import gc
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from u3plus import (
    Degree,
    EMPTY_WORD,
    FieldSpec,
    ModuleElement,
    OrderSpec,
    Polynomial,
    RewriteRule,
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
from u3plus.anick import (
    AnickComplex,
    ChainError,
    GradedMatrix,
    SplittingError,
    sparse_rank,
)
from u3plus.minimal import MinimalResolution

from conftest import complex_for, system_for, system_from_polynomials


def a(k, p):
    return gen_a(k, p)


def b(k, p):
    return gen_b(k, p)


def W(p, *letters):
    """Word from (kind, index) pairs at prime p."""
    return Word.of([a(k, p) if kind == "a" else b(k, p)
                    for kind, k in letters])


def chain_pairs(cx):
    """(word, tail word) of every 1-chain and of every 2-chain, in order."""
    return tuple([(Word(c), Word(tail))
                  for c, tail in cx._tails[level].items()]
                 for level in (1, 2))


def reference_chains(system):
    """T_1 and T_2 as :func:`chain_pairs` lists them, read off the rules
    and their critical pairs: T_1 is the lhs with their last letters as
    tails, T_2 the critical tips with no other tip as a proper factor, with
    the second rule's lhs as tails; each in key order."""
    def in_order(pairs):
        return sorted(pairs, key=lambda pair: system.order.key(pair[0]))

    rules = system.rules
    tips = {cp.tip.chars: (cp.tip, rules[cp.rule2].lhs)
            for cp in system.critical_pairs()}
    return (in_order((r.lhs, Word(r.lhs.chars[-1])) for r in rules),
            in_order(pair for chars, pair in tips.items()
                     if not any(other != chars and other in chars
                                for other in tips)))


@st.composite
def monomial_systems(draw):
    """Reduced systems whose rules all have right-hand side 0: 2-4 letters
    and 1-5 tips of length 2-5, none a factor of another."""
    alphabet = small_window_alphabet(2, 0, 2)[:draw(st.integers(2, 4))]
    letters = st.sampled_from([g.char for g in alphabet])
    drawn = draw(st.lists(st.text(letters, min_size=2, max_size=5),
                          min_size=1, max_size=5))
    tips: list[str] = []
    for w in sorted(set(drawn), key=len):
        if not any(t in w for t in tips):
            tips.append(w)
    field = FieldSpec(2)
    return RewriteSystem(
        [RewriteRule(Word(t), Polynomial.zero(field)) for t in tips],
        OrderSpec.deglex(alphabet), field, alphabet)


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
        assert {Word(c) for c in cx.t1} == expected_t1(p, m)

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
    def test_t2_matches_classification(self, p, m):
        cx = complex_for(p, m)
        assert {Word(c) for c in cx.t2} == expected_t2(p, m)

    def test_t2_21_pinned(self, cx21):
        assert sorted(str(Word(c)) for c in cx21.t2) == [
            "a0*a0*a0", "b0*a0*b0*a0*a0", "b0*a0*b0*a0*b0*a0",
            "b0*b0*a0*b0*a0", "b0*b0*b0"]

    def test_t2_22_count(self, cx22):
        assert len(cx22.t2) == 22

    def test_t1_is_antichain(self, cx22):
        for c1 in cx22.t1:
            for c2 in cx22.t1:
                if c1 != c2:
                    assert c1 not in c2

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_chain_tails_unique_and_valid(self, cx31, level):
        t1_words = set(cx31.t1)
        for c, tail in cx31._tails[level].items():
            # word = u . tail, tail the (level - 1)-chain ending the word
            assert tail in cx31.chains(level - 1)
            assert c.endswith(tail)
            u = Word(c[:len(c) - len(tail)])
            assert cx31.delta(level, c) == cx31.act_poly(
                cx31.system.normal_form_word(u),
                ModuleElement(level - 1, {(EMPTY_WORD.chars, tail): 1},
                              cx31.field))
            if level == 2:
                prefixes = [w for w in t1_words if c.startswith(w)]
                (m1,) = prefixes
                assert len(m1) > len(u.chars)  # the rules genuinely overlap

    def test_a1_b1_is_no_1_chain(self):
        cx = complex_for(3, 2)
        assert W(3, ("a", 1), ("b", 1)).chars not in cx.t1

    def test_t2_tips_are_minimal_critical_tips(self):
        for p, m in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                     (5, 1), (5, 2), (5, 3), (7, 2)]:
            cx = complex_for(p, m)
            assert chain_pairs(cx) == reference_chains(cx.system), (p, m)

    @settings(max_examples=200, deadline=None)
    @given(system=monomial_systems())
    def test_chains_of_monomial_systems(self, system):
        assert chain_pairs(AnickComplex(system)) == reference_chains(system)

    def test_chains_need_no_critical_pairs(self, monkeypatch):
        def refuse(system):
            raise AssertionError("critical_pairs called")

        monkeypatch.setattr(RewriteSystem, "critical_pairs", refuse)
        cx = AnickComplex(small_groebner_basis(Window(3, 0, 2)))
        assert cx.t2

    def test_boundary_tips_are_forced(self, cx31):
        """b a^p is a genuine chain: without it the complex is not exact in
        its weight (the classification's k < l families need their l = k
        boundary)."""
        boundary = W(3, ("b", 0), ("a", 0), ("a", 0), ("a", 0))
        degree = boundary.degree
        keep = [c for c in cx31.t2 if c != boundary.chars
                and c != W(3, ("b", 0), ("b", 0), ("b", 0), ("a", 0)).chars]
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

    @pytest.mark.parametrize("level", [3, -2])
    @pytest.mark.parametrize("call", [
        lambda cx, n: cx.chains(n),
        lambda cx, n: cx.delta(n, cx.t0[0]),
        lambda cx, n: cx.basis(n, Degree(2, 2)),
        lambda cx, n: cx.matrix(n, Degree(2, 2)),
        lambda cx, n: cx.jmap(n, cx.t0[0], cx.t0[0]),
    ], ids=["chains", "delta", "basis", "matrix", "jmap"])
    def test_level_out_of_range_is_typed(self, cx21, call, level):
        with pytest.raises(ChainError, match=f"level {level}; levels run "
                                             "from -1 to 2"):
            call(cx21, level)


class TestDegreeTables:
    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2)])
    def test_t1_degrees(self, p, m):
        cx = complex_for(p, m)
        table = {c: Word(c).degree for c in cx.chains(1)}
        for chain, degree in table.items():
            assert degree == expected_degree(Word(chain))
        # spot formulas: deg(a_l b_k) = p^l alpha + p^k beta, and the braid
        assert table[W(p, ("a", 1), ("b", 0)).chars] == Degree(p, 1)
        assert table[
            Word.of([b(0, p), a(0, p)] * p).chars] == Degree(p, p)

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2)])
    def test_t2_degrees(self, p, m):
        cx = complex_for(p, m)
        for chain, degree in {c: Word(c).degree
                              for c in cx.chains(2)}.items():
            assert degree == expected_degree(Word(chain))

    def test_braid_power_row(self, cx22):
        # deg((b_k a_k)^{p+1}) = (p^{k+1} + p^k)(alpha + beta)
        chain = Word.of([b(0, 2), a(0, 2)] * 3)
        assert chain.chars in cx22.t2
        assert chain.degree == Degree(3, 3)

    def test_level_minus_one(self, cx21):
        assert {c: Word(c).degree for c in cx21.chains(-1)} == {
            "": Degree(0, 0)}


class TestMatchesW:
    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2)])
    def test_families_reproduced(self, p, m):
        cx = complex_for(p, m)
        got = {(Word(u), Word(w)) for u, w in cx.matches_w()}
        assert got == expected_matches(p, m)

    def test_p2_only_bracket_appears_at_window_three(self):
        cx = complex_for(2, 3)
        got = {(str(Word(u)), str(Word(w))) for u, w in cx.matches_w()}
        assert ("a2*b1", "a1*b0*a0*b0*a0") in got
        assert ("b2*a1", "b1*b0*a0*b0*a0") in got

    def test_braid_pairs_present_at_p3(self):
        cx = complex_for(3, 2)
        got = {(str(Word(u)), str(Word(w))) for u, w in cx.matches_w()}
        assert ("b0*a0*b0*a0*b0*a0", "a1*b0*b0*b0") in got
        assert ("b0*a0*b0*a0*b0*a0", "b1*a0*a0*a0") in got


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------


class TestDeltaAndJ:
    def test_delta0_on_generator(self, cx21):
        x = cx21.t0[0]
        got = cx21.delta(0, x)
        assert got == ModuleElement(-1, {(x, ""): 1}, cx21.field)

    def test_delta_needs_a_chain_of_its_level_with_a_tail(self, cx21):
        with pytest.raises(ChainError, match="no delta_1"):
            cx21.delta(1, cx21.t0[0])
        with pytest.raises(ChainError, match="no delta_-1"):
            cx21.delta(-1, "")

    def test_j1_no_factorization(self, cx21):
        m = W(2, ("a", 0), ("b", 0))
        x = word(a(0, 2)).chars
        assert x in cx21.t0
        assert cx21.jmap(1, m.chars, x) is None

    def test_j1_finds_the_rule_suffix(self, cx22):
        m = W(2, ("b", 0), ("a", 1))
        x = word(b(0, 2)).chars
        assert x in cx22.t0
        got = cx22.jmap(1, m.chars, x)
        chain = W(2, ("a", 1), ("b", 0)).chars
        assert chain in cx22.t1
        assert got == ModuleElement(1, {(word(b(0, 2)).chars, chain): 1},
                                    cx22.field)

    def test_delta2_example(self, cx21):
        chain = W(2, ("b", 0), ("a", 0), ("b", 0), ("a", 0), ("a", 0)).chars
        got = cx21.delta(2, chain)
        sq = W(2, ("a", 0), ("a", 0)).chars
        assert sq in cx21.t1
        assert got == ModuleElement(
            1, {(W(2, ("b", 0), ("a", 0), ("b", 0)).chars, sq): 1},
            cx21.field)


class TestDifferentials:
    def test_d0_is_evaluation(self, cx21):
        for x in cx21.t0:
            assert cx21.d_chain(0, x) == ModuleElement(
                -1, {(x, ""): 1}, cx21.field)

    @pytest.mark.parametrize("p", [2, 3])
    def test_d1_on_generator_power(self, p):
        cx = complex_for(p, 1)
        B = b(0, p)
        chain = Word.of([B] * p).chars
        x = word(B).chars
        assert x in cx.t0
        expected = ModuleElement(0, {(Word.of([B] * (p - 1)).chars, x): 1},
                                 cx.field)
        assert cx.d_chain(1, chain) == expected

    def test_d1_on_skew_rule_p3(self):
        # d1(.a1 b0) = a1.b0 - b0.a1 - a0^2 b0.a0 (signs visible mod 3)
        cx = complex_for(3, 2)
        chain = W(3, ("a", 1), ("b", 0)).chars
        got = cx.d_chain(1, chain)
        xa0 = word(a(0, 3)).chars
        xa1 = word(a(1, 3)).chars
        xb0 = word(b(0, 3)).chars
        assert {xa0, xa1, xb0} <= set(cx.t0)
        assert got.coefficient((word(a(1, 3)).chars, xb0)) == 1
        assert got.coefficient((word(b(0, 3)).chars, xa1)) == 2
        assert got.coefficient(
            (W(3, ("a", 0), ("a", 0), ("b", 0)).chars, xa0)) == 2
        assert len(got.terms) == 3

    def test_d2_on_substitute_source(self, cx22):
        # d2(.a1 b0^2) = a1.b0^2 - b0.a1b0 - .(b0 a0)^2
        chain = W(2, ("a", 1), ("b", 0), ("b", 0)).chars
        got = cx22.d_chain(2, chain)
        sq = W(2, ("b", 0), ("b", 0)).chars
        skew = W(2, ("a", 1), ("b", 0)).chars
        braid = W(2, ("b", 0), ("a", 0), ("b", 0), ("a", 0)).chars
        assert {sq, skew, braid} <= set(cx22.t1)
        assert got == ModuleElement(1, {(word(a(1, 2)).chars, sq): 1,
                                        (word(b(0, 2)).chars, skew): 1,
                                        (EMPTY_WORD.chars, braid): 1},
                                    cx22.field)

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1)])
    def test_highest_term_law(self, p, m):
        cx = complex_for(p, m)
        for level in (1, 2):
            for t in cx.chains(level):
                image = cx.d_chain(level, t)
                (mm, tt), _c = cx.leading_basis_term(image)
                delta = cx.delta(level, t)
                assert next(iter(delta.terms)) == (mm, tt)

    def test_chain_the_complex_lacks_is_named(self, cx21):
        # a letter is a 0-chain, not a 1-chain of this window
        x = cx21.t0[0]
        missing = re.escape(f"no 1-chain {Word(x)} in the complex")
        with pytest.raises(ChainError, match=missing):
            cx21.d_chain(1, x)
        f = ModuleElement(1, {("", x): 1}, cx21.field)
        with pytest.raises(ChainError, match=missing):
            cx21.d(1, f)

    def test_a_string_that_is_no_n_chain_is_typed(self, cx21):
        # delta, d_chain, matrix and d'_2 take chain chars; a letter is a
        # 0-chain, not a 1-chain or a 2-chain
        x = cx21.t0[0]
        with pytest.raises(ChainError, match=re.escape(
                f"no delta_1 on .{Word(x)}: not a 1-chain")):
            cx21.delta(1, x)
        missing = re.escape(f"no 1-chain {Word(x)} in the complex")
        with pytest.raises(ChainError, match=missing):
            cx21.d_chain(1, x)
        with pytest.raises(ChainError, match=missing):
            cx21.matrix(1, Word(x).degree, source_chains=[x])
        res = MinimalResolution(Window(2, 0, 1), 8)
        with pytest.raises(ChainError, match=re.escape(
                f"no 2-chain {Word(x)} in the complex")):
            res.d2_prime(x)

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 1)])
    def test_differentials_homogeneous(self, p, m):
        cx = complex_for(p, m)
        for level in (0, 1, 2):
            for t in cx.chains(level):
                image = cx.d_chain(level, t)
                assert {Word(w).degree + Word(tt).degree
                        for w, tt in image.terms} <= {Word(t).degree}


class TestSplitting:
    def test_i0_splits_last_letter(self, cx21):
        m = W(2, ("a", 0), ("b", 0))
        f = ModuleElement(-1, {(m.chars, ""): 1}, cx21.field)
        got = cx21.splitting(0, f)
        xb = word(b(0, 2)).chars
        assert xb in cx21.t0
        assert got == ModuleElement(0, {(word(a(0, 2)).chars, xb): 1},
                                    cx21.field)

    def test_zero_maps_to_zero(self, cx21):
        zero = ModuleElement.zero(0, cx21.field)
        assert cx21.splitting(1, zero).is_zero

    def test_section_property(self, cx22):
        # i_0 and i_1 are sections of d_0 and d_1 on boundaries; the
        # boundary of a whole graded basis of P_n takes the splitting
        # several steps
        for level in (0, 1):
            lift_sizes = []
            for degree in cx22.relevant_degrees(6):
                x = ModuleElement(
                    level, dict.fromkeys(cx22.basis(level, degree), 1),
                    cx22.field)
                boundary = cx22.d(level, x)
                lifted = cx22.splitting(level, boundary)
                assert cx22.d(level, lifted) == boundary
                lift_sizes.append(len(lifted.terms))
            assert max(lift_sizes) > 1

    def test_non_boundary_rejected(self, cx21):
        x = cx21.t0[0]
        f = ModuleElement(0, {(EMPTY_WORD.chars, x): 1}, cx21.field)
        with pytest.raises(SplittingError):
            cx21.splitting(1, f)

    def test_scalar_level_minus_one_rejected(self, cx21):
        f = ModuleElement(-1, {(EMPTY_WORD.chars, ""): 1}, cx21.field)
        with pytest.raises(SplittingError, match=re.escape(
                "leading term 1.e admits no chain factorization")):
            cx21.splitting(0, f)

    def test_non_descending_step_rejected(self, monkeypatch):
        # a j_1 that returns twice the true lift leaves -lt f as the next
        # leading term, so the second step does not descend
        cx = AnickComplex(system_for(3, 1))
        t = cx.t1[0]
        f = cx.d_chain(1, t)
        (m, lead), _c = cx.leading_basis_term(f)
        calls = []
        jmap = cx.jmap

        def doubled(n, mm, chain):
            calls.append((n, mm, chain))
            return jmap(n, mm, chain).scale(2)

        monkeypatch.setattr(cx, "jmap", doubled)
        with pytest.raises(SplittingError, match=re.escape(
                f"leading term {Word(m)}.{Word(lead)} is not below")):
            cx.splitting(1, f)
        assert 1 <= len(calls) <= 2


class TestComplexAndExactness:
    @pytest.mark.parametrize("p,m,bound", [(2, 1, 8), (3, 1, 12)])
    def test_complex_identities(self, p, m, bound):
        cx = complex_for(p, m)
        report = cx.complex_check(cx.exactness_check(bound))
        assert report["ok"]
        assert report["failures"] == []
        assert min(report["checked"].values()) > 0

    def test_checked_counts_every_basis_element(self, cx22):
        bound = 8
        report = cx22.complex_check(cx22.exactness_check(bound))
        degrees = cx22.relevant_degrees(bound)
        assert report["checked"] == {
            name: sum(len(cx22.basis(level, d)) for d in degrees)
            for level, name in ((0, "eps_d0"), (1, "d0_d1"), (2, "d1_d2"))}

    @pytest.mark.parametrize("n,name", [(1, "d0_d1"), (2, "d1_d2")])
    def test_corrupt_entry_is_named(self, monkeypatch, n, name):
        """One wrong entry of d_n in row 1.t (t a chain, so d_{n-1}(1.t) is
        not 0) makes d_{n-1}.d_n nonzero in that entry's column."""
        cx = complex_for(2, 2)
        matrix = cx.matrix
        corrupted = []

        def corrupting(level, degree, *rest):
            mat = matrix(level, degree, *rest)
            rows = [i for i, (m, _t) in enumerate(mat.row_labels)
                    if not m]
            if level == n and not corrupted and rows and mat.col_labels:
                row = dict(mat.entries[rows[0]])
                row[0] = cx.field.coerce(row.get(0, 0) + 1)
                mat.entries[rows[0]] = sorted(
                    (j, c) for j, c in row.items() if c)
                m, t = mat.col_labels[0]
                corrupted.append((name, str(Word(m)), str(Word(t))))
            return mat

        monkeypatch.setattr(cx, "matrix", corrupting)
        report = cx.complex_check(cx.exactness_check(12))
        assert corrupted
        assert report["ok"] is False
        assert [f for f in report["failures"] if f[0] == name] == corrupted

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

    def test_requires_reduced_system(self):
        alphabet = small_window_alphabet(2, 0, 1)
        order = OrderSpec.deglex(alphabet)
        polys = [parse_poly("a0*a0", FieldSpec(2)),
                 parse_poly("a0*a0*a0 - b0", FieldSpec(2))]
        system = system_from_polynomials(polys, order, FieldSpec(2),
                                         alphabet)
        with pytest.raises(ChainError, match="reduced basis"):
            AnickComplex(system)


def sparse_rows(dense, field):
    """Dense rows as (column, coefficient) pairs of the entries that are
    nonzero in the field, reduced into it."""
    return [[(j, c) for j, x in enumerate(row) if (c := field.coerce(x))]
            for row in dense]


class TestGradedMatrix:
    def test_rank_mod_p(self):
        for dense, p, rank in (([[1, 2], [2, 4]], 5, 1),
                               ([[1, 2], [2, 4]], 3, 1),
                               ([[1, 1], [1, 2]], 2, 2)):
            field = FieldSpec(p)
            assert sparse_rank(sparse_rows(dense, field), field) == rank
        assert sparse_rank([], FieldSpec(3)) == 0

    def test_rank_char_zero(self):
        mat = GradedMatrix(Degree(0, 0), [None] * 2, [None] * 2,
                           sparse_rows([[1, 2], [2, 4]], FieldSpec(0)))
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
            assert sparse_rank(sparse_rows([[0, 0, 0], [0, 5, 0]], field),
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
                rows[i] = [field.coerce(x - f * y)
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
    assert sparse_rank(sparse_rows(dense, field), field) == dense_rank(
        dense, field)


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
                if m.degree.norm + Word(t).degree.norm > bound:
                    continue
                # longest words first, so their suffixes fill on the way
                got = ModuleElement(n - 1, cx._image(n, t, m.chars), cx.field)
                assert got == ref.act(m.chars, ref.d_chain(n, t)), (n, t, m)
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
        norm = Word(t).degree.norm
        if norm > bound:
            continue
        surgered += res.d2_prime(t) != cx.d_chain(2, t)
        for m in words:
            if m.degree.norm + norm > bound:
                continue
            got = ModuleElement(1, cx._image(2, t, m.chars), cx.field)
            assert got == cx.act(m.chars, cx.d_chain(2, t)), (t, m)
            got = ModuleElement(1, cx._image(2, t, m.chars, res._surgery),
                                cx.field)
            assert got == cx.act(m.chars, res.d2_prime(t)), (t, m)
        # d'_2(.t) is the empty word's entry of the same memo
        assert res.d2_prime(t) == ModuleElement(
            1, cx._image(2, t, "", res._surgery), cx.field)
    assert surgered


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_image_costs_one_letter_action_per_letter(monkeypatch, p, m):
    """Once d_n(.t) is memoized, filling the image of m.t calls the letter
    action len(m) times, one call per letter on the whole image, however
    many chains that image spans."""
    cx = AnickComplex(small_groebner_basis(Window(p, 0, m)))
    words = [w.chars for w in cx.system.irreducible_words(6) if w.chars]
    calls = []
    left_multiply = cx.system._left_multiply

    def counted(letters, terms):
        calls.append(letters)
        return left_multiply(letters, terms)

    spans = 0
    for n in (0, 1, 2):
        for t in cx.chains(n):
            base = cx.d_chain(n, t)
            spans += len({tt for _w, tt in base.terms}) > 1
            images = cx._images[(n, t, None)]
            monkeypatch.setattr(cx.system, "_left_multiply", counted)
            for mm in words:
                for suffix in [k for k in images if k]:
                    del images[suffix]
                calls.clear()
                cx._image(n, t, mm)
                assert len(calls) == len(mm), (n, t, mm)
            monkeypatch.undo()
    assert spans


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_letter_action_stores_no_zero_coefficient(p, m):
    """No value of the letter-action memo or of the image memo keeps a
    cancelled key, after random irreducible words act on the images of
    every chain under d_n and d'_2, and on other irreducible words."""
    res = MinimalResolution(Window(p, 0, m), 8)
    cx = res.cx
    words = cx.system.irreducible_words(8)
    rng = random.Random(10 * p + m)
    for u in rng.choices(words, k=40):
        for n in (0, 1, 2):
            for t in cx.chains(n):
                cx._image(n, t, u.chars)
        for t in res.t2_prime_ext:
            # the surgery reaches the braids of weight up to the bound
            if Word(t).degree.norm <= 8:
                cx._image(2, t, u.chars, res._surgery)
        cx.system._nf_chars(rng.choice(words).chars + u.chars)
    # the terms of every stored image, one map per chain it spans
    images = [{w: c for (w, tt), c in terms.items() if tt == t}
              for by_word in cx._images.values()
              for terms in by_word.values() for t in {t for _w, t in terms}]
    actions = list(cx.system._action.values())
    for values in (images, actions):
        assert values and all(all(terms.values()) for terms in values)
    assert all(images)


def test_module_keys_are_two_strings():
    """A basis element m.t is keyed (m chars, t chars) in basis labels,
    in j_n and in the image memo, whose keys then hold no object the
    garbage collector tracks."""
    cx = AnickComplex(small_groebner_basis(Window(3, 0, 1)))
    reports = cx.exactness_check(12)
    gc.collect()
    keys = [key for by_word in cx._images.values()
            for terms in by_word.values() for key in terms]
    assert keys and not any(gc.is_tracked(key) for key in keys)
    labels = [label for r in reports for mat in (r.d1, r.d2)
              for label in mat.row_labels + mat.col_labels]
    labels += cx.basis(1, reports[-1].degree)
    # j_1(u.x) = .ux for the 1-chain ux, whose tail is its last letter x
    t = cx.t1[0]
    labels += cx.jmap(1, t[:-1], t[-1]).terms
    assert labels and all(type(m) is str and type(t) is str
                          for m, t in labels)


@pytest.mark.parametrize("p,m,bound", [(2, 1, 8), (3, 1, 12), (2, 2, 10)])
def test_basis_is_sorted_by_pair_key(p, m, bound):
    """basis() sorts on ranks derived once per word and chain; the order is
    descending pair_key, for the full and the primed chain sets."""
    from u3plus.minimal import reduced_chain_sets
    cx = complex_for(p, m)
    t1p, t2p = reduced_chain_sets(cx, Window(p, 0, m))
    words = cx.system.irreducible_words(bound)
    checked = 0
    for degree in cx.relevant_degrees(bound):
        for level, primed in ((-1, None), (0, None), (1, t1p), (2, t2p)):
            for chains in {None, primed}:
                pool = cx.chains(level) if chains is None else chains
                want = sorted(((w.chars, t) for t in pool
                               for w in words
                               if w.degree + Word(t).degree == degree),
                              key=lambda mt: cx.pair_key(*mt), reverse=True)
                assert cx.basis(level, degree, chains) == want
                checked += len(want)
    assert checked


def _matrices_built(monkeypatch, cx):
    built = []
    matrix = cx.matrix

    def recording(*args, **kwargs):
        built.append(matrix(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cx, "matrix", recording)
    return built


@pytest.mark.parametrize("p,bound", [(2, 8), (3, 12)])
def test_matrices_share_the_bases_they_meet_at(monkeypatch, p, bound):
    """In one degree, the columns of d_n are the very list that labels the
    rows of d_{n+1}, and the columns of d1' the rows of d'_2."""
    cx = AnickComplex(small_groebner_basis(Window(p, 0, 1)))
    built = _matrices_built(monkeypatch, cx)
    reports = cx.exactness_check(bound)
    assert len(built) == 3 * len(reports)
    for r, (d0, d1, d2) in zip(reports, zip(*[iter(built)] * 3)):
        assert d1 is r.d1 and d2 is r.d2
        assert d0.col_labels is d1.row_labels
        assert d1.col_labels is d2.row_labels
    res = MinimalResolution(Window(p, 0, 1), bound)
    built = _matrices_built(monkeypatch, res.cx)
    reports = res.exactness_at_p1_prime()
    assert len(built) == 2 * len(reports)
    for r, (d1p, d2p) in zip(reports, zip(*[iter(built)] * 2)):
        assert d2p is r.d2_prime
        assert d1p.col_labels is d2p.row_labels


def test_bases_of_other_degrees_are_not_kept(cx21):
    """Only the degree being certified keeps its bases."""
    first = cx21.basis(0, Degree(2, 1))
    assert cx21.basis(0, Degree(2, 1)) is first
    cx21.basis(0, Degree(1, 2))
    again = cx21.basis(0, Degree(2, 1))
    assert again == first and again is not first


def _dense(mat):
    rows = [[0] * len(mat.col_labels) for _ in mat.row_labels]
    for i, row in enumerate(mat.entries):
        for j, c in row:
            rows[i][j] = c
    return rows


@pytest.mark.parametrize("p,bound", [(2, 8), (3, 12)])
def test_sparse_rank_matches_dense_reference_on_anick_matrices(
        monkeypatch, p, bound):
    """The pivot order suits the Anick matrices, so check it on them: d0, d1,
    d2 of the complex and d1', d'_2 of the surgered one."""
    cx = AnickComplex(small_groebner_basis(Window(p, 0, 1)))
    built = _matrices_built(monkeypatch, cx)
    cx.exactness_check(bound)
    if p == 2:
        res = MinimalResolution(Window(2, 0, 1), 8)
        primed = _matrices_built(monkeypatch, res.cx)
        res.exactness_at_p1_prime()
        assert primed
        built += primed
    ranked = 0
    for mat in built:
        rank = sparse_rank(mat.entries, cx.field)
        assert rank == dense_rank(_dense(mat), cx.field), mat.degree
        ranked += rank
    assert ranked
