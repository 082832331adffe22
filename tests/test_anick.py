import pytest
from hypothesis import given, settings, strategies as st

from u3plus import (
    Degree,
    EMPTY_WORD,
    FieldSpec,
    ModuleElement,
    OrderSpec,
    RewriteSystem,
    Window,
    Word,
    gen_a,
    gen_b,
    parse_poly,
    small_groebner_basis,
    small_window_alphabet,
    word,
)
from u3plus.anick import AnickComplex, GradedMatrix, SplittingError, sparse_rank
from u3plus.minimal import MinimalResolution

from conftest import complex_for


def a(k, p):
    return gen_a(k, p)


def b(k, p):
    return gen_b(k, p)


def W(p, *letters):
    """Word from (kind, index) pairs at prime p."""
    return Word.of([a(k, p) if kind == "a" else b(k, p)
                    for kind, k in letters])


# ---------------------------------------------------------------------------
# expected chain families, instantiated over a window
# ---------------------------------------------------------------------------


def expected_t1(p, m, j=0):
    out = set()
    for k in range(j, m):
        A, B = a(k, p), b(k, p)
        out.add(Word.of([A] * p))
        out.add(Word.of([B] * p))
        out.add(Word.of([B, A] * p))
        if p >= 3:
            out.add(Word.of([B, B, A]))
            out.add(Word.of([B, A, A]))
        for l in range(k + 1, m):
            out.add(Word.of([a(l, p), B]))
            out.add(Word.of([b(l, p), A]))
            out.add(Word.of([a(l, p), A]))
            out.add(Word.of([b(l, p), B]))
    return out


def expected_t2(p, m, j=0):
    """The overlap-tip classification.

    The two per-index entries b_k a_k^p and b_k^p a_k exist only for p >= 3
    (they are overlaps with the degree-three relations) and are the l = k
    boundary of the b_l a_k^p / b_l^p a_k families; graded exactness forces
    them (see test_boundary_tips_are_forced).
    """
    out = set()
    idx = range(j, m)
    for k in idx:
        A, B = a(k, p), b(k, p)
        out.add(Word.of([A] * (p + 1)))
        out.add(Word.of([B] * (p + 1)))
        out.add(Word.of([B] + [B, A] * p))
        out.add(Word.of([B, A] * p + [A]))
        out.add(Word.of([B, A] * (p + 1)))
        if p >= 3:
            out.add(Word.of([B, B, A, A]))
            out.add(Word.of([B] + [A] * p))
            out.add(Word.of([B] * p + [A]))
    for k in idx:
        for l in idx:
            if l <= k:
                continue
            A, B = a(k, p), b(k, p)
            AL, BL = a(l, p), b(l, p)
            out |= {
                Word.of([AL] + [A] * p), Word.of([AL] + [B] * p),
                Word.of([AL] + [B, A] * p),
                Word.of([BL] + [A] * p), Word.of([BL] + [B] * p),
                Word.of([BL] + [B, A] * p),
                Word.of([AL] * p + [A]), Word.of([AL] * p + [B]),
                Word.of([BL] * p + [A]), Word.of([BL] * p + [B]),
                Word.of([BL, AL] * p + [A]), Word.of([BL, AL] * p + [B]),
            }
            if p >= 3:
                out |= {
                    Word.of([AL, B, B, A]), Word.of([AL, B, A, A]),
                    Word.of([BL, B, B, A]), Word.of([BL, B, A, A]),
                    Word.of([BL, BL, AL, A]), Word.of([BL, BL, AL, B]),
                    Word.of([BL, AL, AL, A]), Word.of([BL, AL, AL, B]),
                }
            for r in idx:
                if r <= l:
                    continue
                AR, BR = a(r, p), b(r, p)
                for x in (AR, BR):
                    for y in (AL, BL):
                        for z in (A, B):
                            out.add(Word.of([x, y, z]))
    return out


def expected_degree(w):
    # weights are additive over letters; this re-derives every table row
    return w.degree


def expected_matches(p, m, j=0):
    """Equal-weight (T1, T2) pairs, by family."""
    pairs = set()
    idx = range(j, m)

    def add(u, w):
        pairs.add((u, w))

    for k in idx:
        A, B = a(k, p), b(k, p)
        if k + 1 in idx:
            A1, B1 = a(k + 1, p), b(k + 1, p)
            add(Word.of([B, A] * p), Word.of([A1] + [B] * p))
            add(Word.of([B, A] * p), Word.of([B1] + [A] * p))
            add(Word.of([A1, A]), Word.of([A] * (p + 1)))
            add(Word.of([B1, B]), Word.of([B] * (p + 1)))
            if p >= 3:
                add(Word.of([A1, B]), Word.of([B] + [A] * p))
                add(Word.of([B1, A]), Word.of([B] * p + [A]))
                add(Word.of([B1, A1, A1]), Word.of([A1] + [B, A] * p))
                add(Word.of([B1, B1, A1]), Word.of([B1] + [B, A] * p))
            if p == 2:
                add(Word.of([A1, A1]), Word.of([A1, A, A]))
                add(Word.of([B1, B1]), Word.of([B1, B, B]))
                if k + 2 in idx:
                    A2, B2 = a(k + 2, p), b(k + 2, p)
                    add(Word.of([A2, B1]), Word.of([A1] + [B, A] * 2))
                    add(Word.of([B2, A1]), Word.of([B1] + [B, A] * 2))
        for l in idx:
            if l <= k or k - 1 < j:
                continue
            AL, BL = a(l, p), b(l, p)
            Bk1, Ak1 = b(k - 1, p), a(k - 1, p)
            add(Word.of([AL, b(k, p)]), Word.of([AL] + [Bk1] * p))
            add(Word.of([AL, a(k, p)]), Word.of([AL] + [Ak1] * p))
            add(Word.of([BL, a(k, p)]), Word.of([BL] + [Ak1] * p))
            add(Word.of([BL, b(k, p)]), Word.of([BL] + [Bk1] * p))
        if k + 1 in idx:
            for l in idx:
                if l > k:
                    # (x_{l+1} y_k, x_l^p y_k) families
                    if l + 1 in idx:
                        add(Word.of([a(l + 1, p), a(k, p)]),
                            Word.of([a(l, p)] * p + [a(k, p)]))
                        add(Word.of([a(l + 1, p), b(k, p)]),
                            Word.of([a(l, p)] * p + [b(k, p)]))
                        add(Word.of([b(l + 1, p), a(k, p)]),
                            Word.of([b(l, p)] * p + [a(k, p)]))
                        add(Word.of([b(l + 1, p), b(k, p)]),
                            Word.of([b(l, p)] * p + [b(k, p)]))
    return pairs


# ---------------------------------------------------------------------------
# chain sets
# ---------------------------------------------------------------------------


class TestChainSets:
    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
    def test_t1_matches_classification(self, p, m):
        cx = complex_for(p, m)
        assert {c.word for c in cx.t1} == expected_t1(p, m)

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
    def test_t2_matches_classification(self, p, m):
        cx = complex_for(p, m)
        assert {c.word for c in cx.t2} == expected_t2(p, m)

    def test_t2_21_pinned(self, cx21):
        assert sorted(str(c.word) for c in cx21.t2) == [
            "a0*a0*a0", "b0*a0*b0*a0*a0", "b0*a0*b0*a0*b0*a0",
            "b0*b0*a0*b0*a0", "b0*b0*b0"]

    def test_t2_22_count(self, cx22):
        assert len(cx22.t2) == 22

    def test_t1_is_antichain(self, cx22):
        for c1 in cx22.t1:
            for c2 in cx22.t1:
                if c1 is not c2:
                    assert not c1.word.is_factor_of(c2.word)

    def test_t2_decompositions_unique_and_valid(self, cx31):
        t1_words = {c.word.chars for c in cx31.t1}
        for c in cx31.t2:
            # tip = m1 . v = u . m2 with a nonempty overlap of m1 and m2
            assert c.right_lhs.chars in t1_words
            assert c.u.chars + c.right_lhs.chars == c.word.chars
            prefixes = [w for w in t1_words if c.word.chars.startswith(w)]
            (m1,) = prefixes
            assert len(m1) > len(c.u.chars)  # the rules genuinely overlap

    def test_t2_tips_are_minimal_critical_tips(self, cx22):
        tips = {cp.tip for cp in cx22.system.critical_pairs()}
        minimal = {t for t in tips
                   if not any(o != t and o.is_factor_of(t) for o in tips)}
        assert {c.word for c in cx22.t2} == minimal

    def test_boundary_tips_are_forced(self, cx31):
        """b a^p is a genuine chain: without it the complex is not exact in
        its weight (the classification's k < l families need their l = k
        boundary)."""
        boundary = W(3, ("b", 0), ("a", 0), ("a", 0), ("a", 0))
        degree = boundary.degree
        keep = [c for c in cx31.t2 if c.word != boundary
                and c.word != W(3, ("b", 0), ("b", 0), ("b", 0), ("a", 0))]
        dims1 = len(cx31.basis(1, degree))
        r1 = cx31.matrix(1, degree).rank(cx31.field)
        r2_full = cx31.matrix(2, degree).rank(cx31.field)
        r2_pruned = cx31.matrix(2, degree, source_chains=keep).rank(cx31.field)
        assert dims1 - r1 == r2_full == 1
        assert r2_pruned == 0

    def test_empty_system_has_no_chains(self):
        alphabet = small_window_alphabet(2, 0, 1)
        system = RewriteSystem([], OrderSpec.deglex(alphabet),
                               FieldSpec(2), alphabet)
        cx = AnickComplex(system)
        assert cx.t1 == ()
        assert cx.t2 == ()


class TestDegreeTables:
    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2)])
    def test_t1_degrees(self, p, m):
        cx = complex_for(p, m)
        table = {c: c.degree for c in cx.chains(1)}
        for chain, degree in table.items():
            assert degree == expected_degree(chain.word)
        # spot formulas: deg(a_l b_k) = p^l alpha + p^k beta, and the braid
        assert table[cx._t1_by_chars[W(p, ("a", 1), ("b", 0)).chars]] \
            == Degree(p, 1)
        assert table[cx._t1_by_chars[
            Word.of([b(0, p), a(0, p)] * p).chars]] == Degree(p, p)

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2)])
    def test_t2_degrees(self, p, m):
        cx = complex_for(p, m)
        for chain, degree in {c: c.degree for c in cx.chains(2)}.items():
            assert degree == expected_degree(chain.word)

    def test_braid_power_row(self, cx22):
        # deg((b_k a_k)^{p+1}) = (p^{k+1} + p^k)(alpha + beta)
        chain = cx22._t2_by_chars[Word.of([b(0, 2), a(0, 2)] * 3).chars]
        assert chain.degree == Degree(3, 3)

    def test_level_minus_one(self, cx21):
        assert {c: c.degree for c in cx21.chains(-1)} == {
            cx21.e_chain: Degree(0, 0)}


class TestMatchesW:
    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_families_reproduced(self, p, m):
        cx = complex_for(p, m)
        got = {(u.word, w.word) for u, w in cx.matches_w()}
        assert got == expected_matches(p, m)

    def test_p2_only_bracket_appears_at_window_three(self):
        cx = complex_for(2, 3)
        got = {(str(u.word), str(w.word)) for u, w in cx.matches_w()}
        assert ("a2*b1", "a1*b0*a0*b0*a0") in got
        assert ("b2*a1", "b1*b0*a0*b0*a0") in got

    def test_braid_pairs_present_at_p3(self):
        cx = complex_for(3, 2)
        got = {(str(u.word), str(w.word)) for u, w in cx.matches_w()}
        assert ("b0*a0*b0*a0*b0*a0", "a1*b0*b0*b0") in got
        assert ("b0*a0*b0*a0*b0*a0", "b1*a0*a0*a0") in got


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------


class TestDeltaAndJ:
    def test_delta0_on_generator(self, cx21):
        x = cx21.t0[0]
        got = cx21.delta(0, EMPTY_WORD, x)
        assert got == ModuleElement.basis(x.word, cx21.e_chain, cx21.field)

    def test_j1_no_factorization(self, cx21):
        m = W(2, ("a", 0), ("b", 0))
        x = cx21._t0_by_char[a(0, 2).char]
        assert cx21.jmap(1, m, x) is None

    def test_j1_finds_the_rule_suffix(self, cx22):
        m = W(2, ("b", 0), ("a", 1))
        x = cx22._t0_by_char[b(0, 2).char]
        got = cx22.jmap(1, m, x)
        chain = cx22._t1_by_chars[W(2, ("a", 1), ("b", 0)).chars]
        assert got == ModuleElement.basis(word(b(0, 2)), chain, cx22.field)

    def test_delta2_example(self, cx21):
        chain = cx21._t2_by_chars[
            W(2, ("b", 0), ("a", 0), ("b", 0), ("a", 0), ("a", 0)).chars]
        got = cx21.delta(2, EMPTY_WORD, chain)
        sq = cx21._t1_by_chars[W(2, ("a", 0), ("a", 0)).chars]
        assert got == ModuleElement.basis(
            W(2, ("b", 0), ("a", 0), ("b", 0)), sq, cx21.field)


class TestDifferentials:
    def test_d0_is_evaluation(self, cx21):
        for x in cx21.t0:
            assert cx21.d_chain(0, x) == ModuleElement.basis(
                x.word, cx21.e_chain, cx21.field)

    @pytest.mark.parametrize("p", [2, 3])
    def test_d1_on_generator_power(self, p):
        cx = complex_for(p, 1)
        B = b(0, p)
        chain = cx._t1_by_chars[Word.of([B] * p).chars]
        x = cx._t0_by_char[B.char]
        expected = ModuleElement.basis(Word.of([B] * (p - 1)), x, cx.field)
        assert cx.d_chain(1, chain) == expected

    def test_d1_on_skew_rule_p3(self):
        # d1(.a1 b0) = a1.b0 - b0.a1 - a0^2 b0.a0 (signs visible mod 3)
        cx = complex_for(3, 2)
        chain = cx._t1_by_chars[W(3, ("a", 1), ("b", 0)).chars]
        got = cx.d_chain(1, chain)
        xa0 = cx._t0_by_char[a(0, 3).char]
        xa1 = cx._t0_by_char[a(1, 3).char]
        xb0 = cx._t0_by_char[b(0, 3).char]
        assert got.coefficient(word(a(1, 3)), xb0) == 1
        assert got.coefficient(word(b(0, 3)), xa1) == 2
        assert got.coefficient(W(3, ("a", 0), ("a", 0), ("b", 0)), xa0) == 2
        assert len(got.terms) == 3

    def test_d2_on_substitute_source(self, cx22):
        # d2(.a1 b0^2) = a1.b0^2 - b0.a1b0 - .(b0 a0)^2
        chain = cx22._t2_by_chars[W(2, ("a", 1), ("b", 0), ("b", 0)).chars]
        got = cx22.d_chain(2, chain)
        sq = cx22._t1_by_chars[W(2, ("b", 0), ("b", 0)).chars]
        skew = cx22._t1_by_chars[W(2, ("a", 1), ("b", 0)).chars]
        braid = cx22._t1_by_chars[
            W(2, ("b", 0), ("a", 0), ("b", 0), ("a", 0)).chars]
        assert got == (
            ModuleElement.basis(word(a(1, 2)), sq, cx22.field)
            + ModuleElement.basis(word(b(0, 2)), skew, cx22.field)
            + ModuleElement.basis(EMPTY_WORD, braid, cx22.field))

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1)])
    def test_highest_term_law(self, p, m):
        cx = complex_for(p, m)
        for level in (1, 2):
            for t in cx.chains(level):
                image = cx.d_chain(level, t)
                (mm, tt), _c = cx.leading_basis_term(image)
                delta = cx.delta(level, EMPTY_WORD, t)
                assert next(iter(delta.terms)) == (mm, tt)

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 1)])
    def test_differentials_homogeneous(self, p, m):
        cx = complex_for(p, m)
        for level in (0, 1, 2):
            for t in cx.chains(level):
                image = cx.d_chain(level, t)
                assert image.degrees() <= {t.degree}


class TestSplitting:
    def test_i0_splits_last_letter(self, cx21):
        m = W(2, ("a", 0), ("b", 0))
        f = ModuleElement.basis(m, cx21.e_chain, cx21.field)
        got = cx21.splitting(0, f)
        xb = cx21._t0_by_char[b(0, 2).char]
        assert got == ModuleElement.basis(word(a(0, 2)), xb, cx21.field)

    def test_zero_maps_to_zero(self, cx21):
        zero = ModuleElement.zero(0, cx21.field)
        assert cx21.splitting(1, zero).is_zero

    def test_section_property(self, cx22):
        # i_1 is a section of d_1 on boundaries
        for t in cx22.t2:
            boundary = cx22.d(1, cx22.d_chain(2, t))
            lifted = cx22.splitting(1, boundary)
            assert cx22.d(1, lifted) == boundary

    def test_non_boundary_rejected(self, cx21):
        x = cx21.t0[0]
        f = ModuleElement.basis(EMPTY_WORD, x, cx21.field)
        with pytest.raises(SplittingError):
            cx21.splitting(1, f)

    def test_scalar_level_minus_one_rejected(self, cx21):
        f = ModuleElement.basis(EMPTY_WORD, cx21.e_chain, cx21.field)
        with pytest.raises(SplittingError):
            cx21.splitting(0, f)


class TestComplexAndExactness:
    @pytest.mark.parametrize("p,m,bound", [(2, 1, 8), (3, 1, 12)])
    def test_complex_identities(self, p, m, bound):
        report = complex_for(p, m).complex_check(bound)
        assert report["ok"]
        assert report["failures"] == []
        assert min(report["checked"].values()) > 0

    def test_exactness_at_small_weight(self, cx21):
        reports = cx21.exactness_check(8)
        assert all(r.ok for r in reports)
        origin = [r for r in reports if r.degree == Degree(0, 0)]
        ((r,),) = (origin,)
        assert r.dims == {-1: 1, 0: 0, 1: 0, 2: 0}

    def test_basis_order_has_no_collisions(self, cx22):
        for degree in cx22.relevant_degrees(8):
            for level in (0, 1, 2):
                basis = cx22.basis(level, degree)
                keys = [cx22.pair_key(m, t) for m, t in basis]
                assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("p,bound", [(2, 8), (3, 12)])
    def test_module_dimension_counts_basis(self, p, bound):
        cx = complex_for(p, 1)
        for total in range(bound + 1):
            for alpha in range(total + 1):
                degree = Degree(alpha, total - alpha)
                for level in (-1, 0, 1, 2):
                    assert cx.module_dimension(level, degree) == len(
                        cx.basis(level, degree)), (level, degree)

    def test_requires_reduced_system(self):
        alphabet = small_window_alphabet(2, 0, 1)
        order = OrderSpec.deglex(alphabet)
        polys = [parse_poly("a0*a0", FieldSpec(2)),
                 parse_poly("a0*a0*a0 - b0", FieldSpec(2))]
        system = RewriteSystem.from_polynomials(polys, order, FieldSpec(2),
                                                alphabet)
        from u3plus.anick import ChainError
        with pytest.raises(ChainError):
            AnickComplex(system)


def sparse_rows(dense):
    """Dense rows as (column, coefficient) pairs of the nonzero entries."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in dense]


class TestGradedMatrix:
    def test_rank_mod_p(self):
        assert sparse_rank(sparse_rows([[1, 2], [2, 4]]), FieldSpec(5)) == 1
        assert sparse_rank(sparse_rows([[1, 2], [2, 4]]), FieldSpec(3)) == 1
        assert sparse_rank(sparse_rows([[1, 1], [1, 2]]), FieldSpec(2)) == 2
        assert sparse_rank([], FieldSpec(3)) == 0

    def test_rank_char_zero(self):
        mat = GradedMatrix(Degree(0, 0), [None] * 2, [None] * 2,
                           sparse_rows([[1, 2], [2, 4]]))
        assert mat.rank(FieldSpec(0)) == 1

    def test_json_shape(self, cx21):
        mat = cx21.matrix(1, Degree(2, 0))
        payload = mat.to_json()
        assert payload["degree"] == [2, 0]
        assert all(len(cell) == 3 for cell in payload["entries"])

    def test_rows_are_sparse_and_column_ordered(self, cx31):
        for degree in cx31.relevant_degrees(12):
            for level in (0, 1, 2):
                mat = cx31.matrix(level, degree)
                for row in mat.entries:
                    cols = [j for j, _ in row]
                    assert cols == sorted(set(cols))
                    assert all(c for _, c in row)
                    assert all(0 <= j < len(mat.col_labels) for j in cols)

    def test_rank_degenerate_shapes(self):
        for field in (FieldSpec(5), FieldSpec(0)):
            assert sparse_rank([], field) == 0
            assert sparse_rank([[], []], field) == 0
            # 5 vanishes in F_5 only
            assert sparse_rank(sparse_rows([[0, 0, 0], [0, 5, 0]]),
                               field) == (0 if field.characteristic else 1)


def dense_rank(rows, field):
    """Reference rank: dense Gauss-Jordan elimination, Fractions over Q and
    residues over F_p."""
    rows = [[field.coerce(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.invert(rows[rank][col])
        rows[rank] = [field.mul(x, inv) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [field.add(x, field.neg(field.mul(f, y)))
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def dense_matrices(draw):
    n_rows = draw(st.integers(min_value=0, max_value=7))
    n_cols = draw(st.integers(min_value=0, max_value=7))
    entry = st.one_of(st.just(0), st.integers(min_value=-6, max_value=6),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4))
    return [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]


@settings(max_examples=150, deadline=None)
@given(dense=dense_matrices(), p=st.sampled_from([2, 3, 5, 0]),
       copies=st.integers(min_value=0, max_value=2))
def test_sparse_rank_matches_dense_reference(dense, p, copies):
    field = FieldSpec(p)
    if p:
        # residues only: a fraction's denominator may vanish mod p
        dense = [[int(x) for x in row] for row in dense]
    # repeated rows and multiples of rows must not raise the rank
    dense = dense + [[3 * x for x in row] for row in dense[:copies]]
    coerced = [[field.coerce(x) for x in row] for row in dense]
    assert sparse_rank(sparse_rows(coerced), field) == dense_rank(dense,
                                                                  field)


@pytest.mark.parametrize("p,bound", [(2, 8), (3, 12)])
def test_memoized_images_match_action(p, bound):
    """m.d_n(t) read from the image memo equals act(m, d_chain(n, t)) on an
    independent complex, for every basis element up to the bound."""
    cx = AnickComplex(small_groebner_basis(Window(p, 0, 1)))
    ref = AnickComplex(small_groebner_basis(Window(p, 0, 1)))
    words = sorted(ref.system.irreducible_words(bound), key=len, reverse=True)
    checked = 0
    for n in (0, 1, 2):
        for t in ref.chains(n):
            for m in words:
                if m.degree.norm + t.degree.norm > bound:
                    continue
                # longest words first, so their suffixes fill on the way
                got = cx._element(n - 1, cx._image(n, t, m.chars))
                assert got == ref.act(m, ref.d_chain(n, t)), (n, t, m)
                checked += 1
    assert checked


@pytest.mark.parametrize("p,bound", [(2, 8), (3, 12)])
def test_memoized_chain_map_images_match_action(p, bound):
    """Images under d'_2 and under d_2 of the same chain are kept apart."""
    res = MinimalResolution(Window(p, 0, 1), bound)
    cx = res.cx
    words = sorted(cx.system.irreducible_words(bound), key=len, reverse=True)
    surgered = 0
    for t in res.t2_prime_ext:
        if t.degree.norm > bound:
            continue
        surgered += res.d2_prime(t) != cx.d_chain(2, t)
        for m in words:
            if m.degree.norm + t.degree.norm > bound:
                continue
            got = cx._element(1, cx._image(2, t, m.chars))
            assert got == cx.act(m, cx.d_chain(2, t)), (t, m)
            got = cx._element(1, cx._image(2, t, m.chars, res.d2_prime))
            assert got == cx.act(m, res.d2_prime(t)), (t, m)
    assert surgered
