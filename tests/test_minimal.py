import random

import pytest

from u3plus import (
    EMPTY_WORD,
    FieldSpec,
    ModuleElement,
    Window,
    Word,
    coefficient_lemma_checks,
    gen_a,
    gen_b,
    radical_membership,
    reduced_chain_sets,
    word,
)
from u3plus.anick import AnickComplex, ChainError
from u3plus.minimal import MinimalResolution, WindowTooSmallError
from u3plus.rewriting import RestrictionError

from conftest import complex_for, drop_window_rule, resolution_for


def W2(*letters):
    return Word.of([gen_a(k, 2) if kind == "a" else gen_b(k, 2)
                    for kind, k in letters])


def drop_t2_chain(monkeypatch, w):
    """Make every new AnickComplex build its 2-chains without w."""
    build = AnickComplex._build_level
    monkeypatch.setattr(AnickComplex, "_build_level", lambda cx, n: {
        chars: tail for chars, tail in build(cx, n).items()
        if n != 2 or chars != w.chars})


class TestRadicalMembership:
    def test_positive_weight_coefficient(self, cx21):
        x = ModuleElement(-1, {(word(gen_a(0, 2)).chars, ""): 1},
                          cx21.field)
        assert radical_membership(x)

    def test_scalar_coordinate(self, cx21):
        t = cx21.t1[0]
        x = ModuleElement(1, {(EMPTY_WORD.chars, t): 1}, cx21.field)
        assert not radical_membership(x)

    def test_d0_images(self, cx21):
        for x in cx21.t0:
            assert radical_membership(cx21.d_chain(0, x))


class TestReducedChainSets:
    def test_22_cardinalities(self, cx22):
        t1p, t2p = reduced_chain_sets(cx22, Window(2, 0, 2))
        assert len(t1p) == len(cx22.t1) - 2 == 8
        assert len(t2p) == len(cx22.t2) - 1 == 21

    def test_21_sets(self, cx21):
        t1p, t2p = reduced_chain_sets(cx21, Window(2, 0, 1))
        assert {str(Word(c)) for c in t1p} == {"a0*a0", "b0*b0"}
        # no adjacent index pair inside a one-index window
        assert t2p == cx21.t2

    def test_braids_removed(self, cx22):
        t1p, _ = reduced_chain_sets(cx22, Window(2, 0, 2))
        words = {str(Word(c)) for c in t1p}
        assert "b0*a0*b0*a0" not in words
        assert "b1*a1*b1*a1" not in words


def test_restriction_mismatch_raises(monkeypatch):
    win = Window(2, 0, 1)
    drop_window_rule(monkeypatch, win)
    with pytest.raises(RestrictionError, match="does not restrict"):
        MinimalResolution(win, 8)


class TestD2Prime:
    def test_no_braid_coordinates_left(self):
        res = MinimalResolution(Window(2, 0, 2), 10)
        braids = set(res._braid_chain.values())
        for c in res.t2_prime:
            image = res.d2_prime(c)
            assert not ({t for (_, t) in image.terms} & braids)

    def test_substitution_matches_construction(self):
        # the braid coordinate r.(b0 a0)^2 of d_2(.b1 a0^2) is replaced by
        # r (d_2(.a1 b0^2) + .(b0 a0)^2), a radical element of the image
        res = MinimalResolution(Window(2, 0, 2), 10)
        cx = res.cx
        src = W2(("b", 1), ("a", 0), ("a", 0)).chars
        sub = W2(("a", 1), ("b", 0), ("b", 0)).chars
        braid = W2(("b", 0), ("a", 0), ("b", 0), ("a", 0)).chars
        assert braid in cx.t1
        d2_src = cx.d_chain(2, src)
        r = d2_src.coefficient((EMPTY_WORD.chars, braid))
        assert r == cx.field.coerce(-1)
        bracket = cx.d_chain(2, sub) \
            + ModuleElement(1, {(EMPTY_WORD.chars, braid): 1}, cx.field)
        assert radical_membership(bracket)
        expected = d2_src \
            - ModuleElement(1, {(EMPTY_WORD.chars, braid): r}, cx.field) \
            + bracket.scale(r)
        assert res.d2_prime(src) == expected

    def test_unmatched_degree_passes_through(self):
        res = MinimalResolution(Window(2, 0, 2), 10)
        cx = res.cx
        src = W2(("a", 1), ("a", 0), ("a", 0)).chars
        assert res.d2_prime(src) == cx.d_chain(2, src)

    @pytest.mark.parametrize("p", [2, 3])
    def test_image_in_radical(self, p):
        res = MinimalResolution(Window(p, 0, 1), 4 * p)
        for c in res.t2_prime:
            assert radical_membership(res.d2_prime(c))

    def test_window_too_small_reported(self):
        res = MinimalResolution(Window(2, 0, 1), 8)
        res._substitute_chain.clear()
        res.cx._images.clear()
        needs_braid = W2(("b", 1), ("a", 0), ("a", 0)).chars
        with pytest.raises(WindowTooSmallError):
            res.d2_prime(needs_braid)

    def test_missing_substitute_chain_is_typed(self, monkeypatch):
        # a T_2 without a substitute source a_{k+1} b_k^p is reported as a
        # window error, not as a raw KeyError
        drop_t2_chain(monkeypatch, W2(("a", 1), ("b", 0), ("b", 0)))
        with pytest.raises(WindowTooSmallError, match="substitute source"):
            MinimalResolution(Window(2, 0, 1), 8)

    def test_module_map_export(self):
        res = MinimalResolution(Window(2, 0, 1), 6)
        mapping = {c: res.d2_prime(c) for c in res.t2_prime}
        assert {str(Word(c)) for c in mapping} == {
            "a0*a0*a0", "b0*b0*b0", "b0*a0*b0*a0*a0", "b0*b0*a0*b0*a0",
            "b0*a0*b0*a0*b0*a0"}
        assert all(radical_membership(v) for v in mapping.values())

    @pytest.mark.parametrize("p,bound", [(2, 8), (3, 12)])
    def test_each_chain_surgered_once(self, monkeypatch, p, bound):
        # d'_2(.t) lives in the complex's image memo, so a report computes
        # the surgery once per chain however often it reads the image
        calls = []
        surgery = MinimalResolution._surgery

        def counted(res, chain):
            calls.append(chain)
            return surgery(res, chain)

        monkeypatch.setattr(MinimalResolution, "_surgery", counted)
        assert MinimalResolution(Window(p, 0, 1), bound).report().ok
        assert calls
        assert len(calls) == len(set(calls))


class TestCoefficientChecks:
    @pytest.mark.parametrize("p,m", [
        pytest.param(2, 1, id="2"), pytest.param(3, 1, id="3"),
        pytest.param(5, 1, id="5"), (7, 2), (5, 3)])
    def test_all_pass(self, p, m):
        checks = coefficient_lemma_checks(Window(p, 0, m))
        assert checks
        assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]

    @pytest.mark.parametrize("p,lemma1,a_side", [
        (2, 1, 1), (3, -1, 1), (5, -1, 1)])
    def test_exact_values(self, p, lemma1, a_side):
        """The two signs the surgery leans on.

        The braid-power coefficient in NF(b^{p-1} a^{p-1}) is (-1)^p: +1
        only in characteristic two.  Consequently the braid coordinate in
        d_2(.a_1 b_0^p) carries -(-1)^p, while d_2(.b_1 a_0^p) always
        carries -1.
        """
        field = FieldSpec(p)
        checks = {c.name: c for c in coefficient_lemma_checks(Window(p, 0, 1))}
        got = checks["NF(b0^(p-1)*a0^(p-1)) at (b0*a0)^(p-1)"]
        assert got.actual == str(field.coerce(lemma1))
        got = checks["d2(.a1*b0^p) at .(b0*a0)^p"]
        assert got.actual == str(field.coerce(a_side))
        got = checks["d2(.b1*a0^p) at .(b0*a0)^p"]
        assert got.actual == str(field.coerce(-1))
        got = checks["NF(b1*a0^(p-1)) at (b0*a0)^(p-1)*b0"]
        assert got.actual == str(field.coerce(1))

    def test_missing_lemma_chain_is_typed(self, monkeypatch):
        drop_t2_chain(monkeypatch, W2(("b", 1), ("a", 0), ("a", 0)))
        with pytest.raises(ChainError, match="is not a 2-chain"):
            coefficient_lemma_checks(Window(2, 0, 1))

    def test_larger_chain_words_never_hit(self):
        # equal weight, T1 word above the source: coefficient always zero
        checks = coefficient_lemma_checks(Window(3, 0, 1))
        zero_checks = [c for c in checks if "at larger" in c.name]
        assert zero_checks
        assert all(c.ok for c in zero_checks)


# ---------------------------------------------------------------------------
# smallness against the submodule definition, brute force at tiny size
# ---------------------------------------------------------------------------


class TinyModule:
    """P = A[t1] + A[t2] over the (2,1) algebra, truncated to weight <= 3.

    Vectors are maps (word chars, slot) -> F2; submodules are closed under
    the truncated left action, so smallness can be tested literally.
    """

    def __init__(self, cx):
        self.cx = cx
        self.words = [w for w in cx.system.irreducible_words(3)]
        self.basis = [(w, slot) for slot in (0, 1) for w in self.words]
        self.index = {key: i for i, key in enumerate(self.basis)}
        self.letters = [Word(g.char) for g in cx.system.alphabet]

    def act(self, letter, vec):
        out = [0] * len(self.basis)
        for i, x in enumerate(vec):
            if not x:
                continue
            w, slot = self.basis[i]
            product = letter * w
            if product.degree.norm > 3:
                continue
            nf = self.cx.system.normal_form_word(product)
            for ww, c in nf.items():
                out[self.index[(ww, slot)]] ^= int(c) & 1
        return out

    def closure(self, generators):
        span = []
        frontier = [list(v) for v in generators]
        while frontier:
            vec = frontier.pop()
            vec = self._reduce(vec, span)
            if any(vec):
                span.append(vec)
                for letter in self.letters:
                    frontier.append(self.act(letter, vec))
        return span

    @staticmethod
    def _reduce(vec, span):
        vec = list(vec)
        for row in span:
            pivot = next(i for i, x in enumerate(row) if x)
            if vec[pivot]:
                vec = [a ^ b for a, b in zip(vec, row)]
        return vec

    def dim(self, span):
        return len(span)

    def vector(self, terms):
        out = [0] * len(self.basis)
        for key, c in terms.items():
            out[self.index[key]] ^= int(c) & 1
        return out

    def full(self):
        return self.closure([self.vector({key: 1}) for key in self.basis])

    def sum_spans(self, s1, s2):
        return self.closure([list(v) for v in s1 + s2])


def test_smallness_matches_submodule_definition(cx21):
    tiny = TinyModule(cx21)
    full_dim = tiny.dim(tiny.full())
    rng = random.Random(11)
    e = EMPTY_WORD

    def random_radical_vector():
        terms = {}
        for _ in range(rng.randrange(1, 3)):
            w = rng.choice([w for w in tiny.words if not w.is_empty])
            terms[(w, rng.randrange(2))] = 1
        return tiny.vector(terms)

    # generators inside the radical: no complement can be proper
    for _ in range(6):
        n_span = tiny.closure([random_radical_vector() for _ in range(2)])
        for _ in range(12):
            t_span = tiny.closure(
                [random_radical_vector() for _ in range(2)]
                + [tiny.vector({(e, 0): 1})] * rng.randrange(2)
                + [tiny.vector({(e, 1): 1})] * rng.randrange(2))
            if tiny.dim(tiny.sum_spans(t_span, n_span)) == full_dim:
                assert tiny.dim(t_span) == full_dim

    # a generator with a scalar coordinate admits a proper complement
    bad = tiny.vector({(e, 0): 1, (rng.choice(tiny.words[1:]), 1): 1})
    n_span = tiny.closure([bad])
    t_span = tiny.closure([tiny.vector({(e, 1): 1})])
    assert tiny.dim(tiny.sum_spans(t_span, n_span)) == full_dim
    assert tiny.dim(t_span) < full_dim


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


class TestMinimalityReport:
    def test_21_report(self):
        report = MinimalResolution(Window(2, 0, 1), 8).report()
        assert report.smallness == {"d0": True, "d1": True, "d2": True}
        assert report.d1_after_d2_zero
        assert all(r.ok for r in report.exactness_at_p1_prime)
        assert report.ext_dims[1] == {"0,1": 1, "1,0": 1}
        assert report.ext_dims[2] == {"0,2": 1, "2,0": 1}
        assert report.ok

    def test_ext_counts_equal_chain_counts(self):
        res = MinimalResolution(Window(2, 0, 2), 12)
        report = res.report()
        for level, chains in ((1, res.t0), (2, res.t1_prime),
                              (3, res.t2_prime)):
            total = sum(report.ext_dims[level].values())
            assert total == sum(1 for c in chains
                                if Word(c).degree.norm <= 12)

    def test_json_schema(self):
        payload = MinimalResolution(Window(2, 0, 1), 6).report().to_json()
        assert payload["ok"] is True
        assert set(payload["smallness"]) == {"d0", "d1", "d2"}
        assert payload["exactness_at_P1_prime"][0]["degree"] == [0, 0]
        assert "ext_dims" in payload


@pytest.mark.parametrize("p,bound", [(2, 8), (3, 12)])
def test_dimensions_read_off_the_ranked_matrices(p, bound):
    """The certificates read every dimension off the labels of the matrices
    they rank; the counts agree with the graded bases."""
    cx = complex_for(p, 1)
    for r in cx.exactness_check(bound):
        for level in (-1, 0, 1, 2):
            assert r.dims[level] == len(cx.basis(level, r.degree))
    res = resolution_for(p, 1, bound)
    reports = res.exactness_at_p1_prime()
    assert reports
    for r in reports:
        assert r.dim_p1_prime == len(res.cx.basis(1, r.degree,
                                                  res.t1_prime_ext))
