import random

import pytest
from hypothesis import given, settings, strategies as st

from u3plus import (
    EMPTY_WORD,
    FieldSpec,
    OrderSpec,
    Polynomial,
    QQ,
    RewriteRule,
    RewriteSystem,
    Word,
    divided_alphabet,
    divided_generator,
    find_overlaps,
    gen_a,
    gen_b,
    parse_poly,
    rule_from_poly,
    small_window_alphabet,
    spolynomial,
    word,
)
from u3plus.kostant import big_rewrite_system
from u3plus.rewriting import RestrictionError, RewriteSystemError

from conftest import system_for

F2 = FieldSpec(2)
A0, B0 = gen_a(0, 2), gen_b(0, 2)
A1, B1 = gen_a(1, 2), gen_b(1, 2)


def _irreducible(system, w):
    return system.reduce_once(Polynomial.monomial(w, system.field)) is None


def toy_system():
    """{a b -> 0, b a -> a}: the classic non-confluent pair."""
    order = OrderSpec.deglex(small_window_alphabet(2, 0, 1))
    polys = [parse_poly("a0*b0", F2), parse_poly("b0*a0 - a0", F2)]
    return RewriteSystem.from_polynomials(polys, order, F2,
                                          small_window_alphabet(2, 0, 1))


class TestRuleFromPoly:
    def test_square_to_zero(self):
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 1))
        rule = rule_from_poly(parse_poly("a0*a0", F2), order)
        assert rule.lhs == word(A0, A0)
        assert rule.rhs.is_zero

    def test_skew_orientation(self):
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 2))
        poly = parse_poly("a1*b0 - b0*a1 + a0*b0*a0", F2)
        rule = rule_from_poly(poly, order)
        assert rule.lhs == word(A1, B0)
        assert rule.rhs == parse_poly("b0*a1 - a0*b0*a0", F2)

    def test_monomial(self):
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 1))
        rule = rule_from_poly(parse_poly("3*b0", QQ, prime=2), order)
        assert rule.lhs == word(B0)
        assert rule.rhs.is_zero

    def test_zero_rejected(self):
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 1))
        with pytest.raises(RewriteSystemError):
            rule_from_poly(Polynomial.zero(F2), order)

    def test_non_decreasing_rule_rejected(self):
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 1))
        lhs = word(A0)
        rhs = Polynomial.monomial(word(B0, A0), F2)
        from u3plus.rewriting import RewriteRule
        with pytest.raises(RewriteSystemError):
            RewriteSystem([RewriteRule(lhs, rhs)], order, F2,
                          small_window_alphabet(2, 0, 1))


class TestReduceOnce:
    def test_irreducible_returns_none(self, g21):
        assert g21.reduce_once(parse_poly("a0*b0", F2)) is None

    def test_braid_step(self, g21):
        stepped = g21.reduce_once(parse_poly("b0*a0*b0*a0", F2))
        assert stepped == parse_poly("a0*b0*a0*b0", F2)

    def test_big_system_straightening_step(self):
        system = big_rewrite_system(FieldSpec(3), 2, truncated=True)
        f = parse_poly("eb(1)*ea(1)", FieldSpec(3))
        assert system.reduce_once(f) == parse_poly(
            "ea(1)*eb(1) - eab(1)", FieldSpec(3))

    def test_reduces_greatest_monomial_first(self, g21):
        # two reducible monomials; the greater one (b0 b0 a0) moves first
        f = parse_poly("b0*b0*a0 + a0*a0*b0", F2)
        stepped = g21.reduce_once(f)
        assert stepped == parse_poly("a0*a0*b0", F2)


class TestNormalForm:
    def test_square_vanishes(self, g21):
        assert g21.normal_form(parse_poly("a0*a0", F2)).is_zero

    def test_irreducible_fixed(self, g21):
        f = parse_poly("a0*b0", F2)
        assert g21.normal_form(f) == f

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_braid_power_coefficient(self, p):
        # NF(b^{p-1} a^{p-1}) carries (b a)^{p-1} with coefficient (-1)^p;
        # +1 and -1 agree mod 2, for odd p the sign is genuinely -1
        system = system_for(p, 1)
        field = FieldSpec(p)
        a, b = gen_a(0, p), gen_b(0, p)
        nf = system.normal_form_word(Word.of([b] * (p - 1) + [a] * (p - 1)))
        target = Word.of([b, a] * (p - 1))
        assert nf.coefficient(target) == field.coerce((-1) ** p)

    def test_matches_oracle_along_reduction(self, g31):
        from u3plus import evaluate_poly
        f = parse_poly("b0*b0*a0*a0", FieldSpec(3))
        assert evaluate_poly(g31.normal_form(f)) == evaluate_poly(f)


class TestOverlaps:
    def test_self_overlap(self):
        skeletons = find_overlaps(word(A0, A0), word(A0, A0))
        assert [(t, u, v, c) for t, u, v, c in skeletons] == [
            (word(A0, A0, A0), word(A0), word(A0), "overlap")]

    def test_mixed_overlap(self):
        skeletons = find_overlaps(word(A1, B0), word(B0, B0))
        assert [(t, c) for t, _, _, c in skeletons] == [
            (word(A1, B0, B0), "overlap")]

    def test_no_overlap(self):
        assert find_overlaps(word(A0, B0), word(B1, A0)) == []

    def test_containment(self):
        skeletons = find_overlaps(word(B0, A0, A0), word(A0))
        cases = [(t, u, v) for t, u, v, c in skeletons if c == "containment"]
        assert (word(B0, A0, A0), word(B0), word(A0)) in cases
        assert (word(B0, A0, A0), word(B0, A0), EMPTY_WORD) in cases


class TestCriticalPairs:
    def test_empty_system(self):
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 1))
        system = RewriteSystem([], order, F2, small_window_alphabet(2, 0, 1))
        assert system.critical_pairs() == ()
        assert system.is_complete().complete

    def test_single_square_rule(self):
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 1))
        system = RewriteSystem.from_polynomials(
            [parse_poly("a0*a0", F2)], order, F2,
            small_window_alphabet(2, 0, 1))
        tips = {cp.tip for cp in system.critical_pairs()}
        assert tips == {word(A0, A0, A0)}

    def test_g21_tips_match_enumeration(self, g21):
        tips = {str(cp.tip) for cp in g21.critical_pairs()}
        assert tips == {
            "a0*a0*a0", "b0*b0*b0",
            "b0*b0*a0*b0*a0",
            "b0*a0*b0*a0*a0",
            "b0*a0*b0*a0*b0*a0",
        }

    def test_toy_irreducible_spolynomial(self):
        system = toy_system()
        pairs = {str(cp.tip): cp for cp in system.critical_pairs()}
        assert set(pairs) == {"a0*b0*a0", "b0*a0*b0"}
        bad = pairs["a0*b0*a0"]
        residual = system.normal_form(spolynomial(system, bad))
        assert residual == parse_poly("-a0*a0", F2)
        good = spolynomial(system, pairs["b0*a0*b0"])
        assert system.normal_form(good).is_zero

    def test_complete_system_pairs_all_reducible(self, g22):
        assert all(g22.normal_form(spolynomial(g22, cp)).is_zero
                   for cp in g22.critical_pairs())


class TestCompletenessCertificates:
    @pytest.mark.parametrize("p,m", [(2, 2), (3, 1)])
    def test_window_bases_complete(self, p, m):
        cert = system_for(p, m).is_complete()
        assert cert.complete
        assert cert.failures == []

    def test_toy_incomplete_with_residual(self):
        cert = toy_system().is_complete()
        assert not cert.complete
        (tip, residual), = cert.failures
        assert tip == word(A0, B0, A0)
        assert residual == parse_poly("a0*a0", F2)

    def test_certificate_json_schema(self):
        payload = toy_system().is_complete().to_json()
        assert payload["complete"] is False
        assert payload["pair_count"] == 2
        assert payload["failures"][0]["tip"] == ["a0", "b0", "a0"]


class TestIsReduced:
    def test_window_bases_reduced(self, g22, g31):
        assert g22.is_reduced()
        assert g31.is_reduced()

    def test_nested_lhs_not_reduced(self):
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 1))
        polys = [parse_poly("a0*a0", F2),
                 parse_poly("a0*a0*a0 - b0", F2)]
        system = RewriteSystem.from_polynomials(
            polys, order, F2, small_window_alphabet(2, 0, 1))
        assert not system.is_reduced()

    def test_empty_reduced(self):
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 1))
        assert RewriteSystem([], order, F2,
                             small_window_alphabet(2, 0, 1)).is_reduced()


class TestRestriction:
    def test_truncated_big_system_restricts_complete(self):
        field = FieldSpec(2)
        big = big_rewrite_system(field, 3, truncated=True)
        sub = big.restrict_to_subalphabet(divided_alphabet(1))
        assert sub.is_complete().complete
        assert len(sub.irreducible_words(4)) == 8

    def test_restrict_to_empty(self, g21):
        assert g21.restrict_to_subalphabet([]).rules == ()

    def test_escaping_rhs_rejected(self):
        # ranking the outside generator lowest keeps it on the right-hand
        # side, which is exactly the restriction hypothesis failing
        eab1 = divided_generator("eab", 1)
        alphabet = (eab1,) + small_window_alphabet(2, 0, 1)
        order = OrderSpec.deglex(alphabet)
        polys = [Polynomial.monomial(word(A0, B0), F2)
                 - Polynomial.monomial(word(eab1), F2)]
        system = RewriteSystem.from_polynomials(polys, order, F2, alphabet)
        with pytest.raises(RestrictionError):
            system.restrict_to_subalphabet([A0, B0])


class TestIrreducibleWords:
    def test_g21_full_enumeration(self, g21):
        words = {str(w) for w in g21.irreducible_words(8)}
        assert words == {"1", "a0", "b0", "a0*b0", "b0*a0",
                         "a0*b0*a0", "b0*a0*b0", "a0*b0*a0*b0"}

    def test_empty_system_weight_bound(self):
        alphabet = (A0,)
        order = OrderSpec.deglex(alphabet)
        system = RewriteSystem([], order, F2, alphabet)
        assert [str(w) for w in system.irreducible_words(2)] == [
            "1", "a0", "a0*a0"]

    def test_empty_lhs_leaves_only_the_empty_word(self):
        alphabet = (A0, B0)
        system = RewriteSystem(
            [RewriteRule(EMPTY_WORD, Polynomial.zero(F2))],
            OrderSpec.deglex(alphabet), F2, alphabet)
        assert system.irreducible_words(3) == [EMPTY_WORD]

    def test_g31_count(self, g31):
        assert len(g31.irreducible_words(16)) == 27

    @pytest.mark.parametrize("p,m,bound", [(2, 2, 8), (3, 1, 10)])
    def test_equals_brute_force_filter(self, p, m, bound):
        system = system_for(p, m)
        letters = [(g.char, g.degree.norm) for g in system.alphabet]
        every = [("", 0)]
        for chars, norm in every:
            every.extend((chars + ch, norm + dn) for ch, dn in letters
                         if norm + dn <= bound)
        expected = sorted((Word(chars) for chars, _ in every
                           if _irreducible(system, Word(chars))),
                          key=system.order.key)
        assert system.irreducible_words(bound) == expected


# ---------------------------------------------------------------------------
# reduction invariants
# ---------------------------------------------------------------------------

WORDS22 = st.lists(st.sampled_from(small_window_alphabet(2, 0, 2)),
                   max_size=7).map(Word.of)
POLYS22 = st.lists(
    st.tuples(WORDS22, st.integers(min_value=1, max_value=1)),
    min_size=0, max_size=4).map(
        lambda items: Polynomial(dict(items), F2))


def _reduce_with_random_choices(f, system, rng):
    """Reference reducer: repeatedly rewrite a random redex occurrence."""
    terms = {w.chars: c for w, c in f.items()}
    p = system.field.characteristic
    while True:
        redexes = []
        for chars in terms:
            for idx, rule in enumerate(system.rules):
                lhs = rule.lhs.chars
                ln = len(lhs)
                start = 0
                while True:
                    pos = chars.find(lhs, start)
                    if pos < 0:
                        break
                    redexes.append((chars, pos, idx, ln))
                    start = pos + 1
        if not redexes:
            break
        chars, pos, idx, ln = rng.choice(redexes)
        coeff = terms.pop(chars)
        for t, c in system.rules[idx].rhs.items():
            child = chars[:pos] + t.chars + chars[pos + ln:]
            value = (terms.get(child, 0) + coeff * c) % p
            if value:
                terms[child] = value
            elif child in terms:
                del terms[child]
    return Polynomial({Word(chars): c for chars, c in terms.items()},
                      system.field)


@settings(max_examples=40, deadline=None)
@given(f=POLYS22, seed=st.integers(min_value=0, max_value=2**16))
def test_confluence_strategy_independent(g22, f, seed):
    rng = random.Random(seed)
    assert g22.normal_form(f) == _reduce_with_random_choices(f, g22, rng)


@settings(max_examples=40, deadline=None)
@given(f=POLYS22)
def test_normal_form_idempotent(g22, f):
    nf = g22.normal_form(f)
    assert g22.normal_form(nf) == nf
    assert g22.reduce_once(nf) is None


@settings(max_examples=40, deadline=None)
@given(u=WORDS22, v=WORDS22, data=st.data())
def test_ideal_membership(g22, u, v, data):
    rule = data.draw(st.sampled_from(g22.rules))
    um = Polynomial.monomial(u, F2)
    vm = Polynomial.monomial(v, F2)
    assert g22.normal_form(um * rule.as_polynomial() * vm).is_zero


@settings(max_examples=40, deadline=None)
@given(f=POLYS22)
def test_reduce_once_strictly_decreases(g22, f):
    stepped = g22.reduce_once(f)
    if stepped is None:
        return
    key = g22.order.key
    before = max((key(w) for w in f.terms), default=None)
    # the rewritten monomial disappears; everything new is strictly below it
    new_words = set(stepped.terms) - set(f.terms)
    for w in new_words:
        assert key(w) < before


def test_dropping_rules_detected(g22):
    """Dropping any rule is detected; all but one drop already break
    confluence.

    The exception is the top-index braid power (b1 a1)^2: its failing
    overlap a2 b1^2 needs generator index 2, outside the window, so the
    pruned system is a perfectly complete basis of a larger (infinite
    dimensional) quotient.  The dimension law still catches it.
    """
    top_braid = word(B1, A1, B1, A1)
    for skip in range(len(g22.rules)):
        polys = [r.as_polynomial() for i, r in enumerate(g22.rules)
                 if i != skip]
        pruned = RewriteSystem.from_polynomials(
            polys, g22.order, g22.field, g22.alphabet)
        if g22.rules[skip].lhs == top_braid:
            assert pruned.is_complete().complete
            assert len(pruned.irreducible_words(12)) != 64
        else:
            assert not pruned.is_complete().complete, g22.rules[skip]


# ---------------------------------------------------------------------------
# normal forms by letter action against iterated single steps
# ---------------------------------------------------------------------------

NF_WEIGHT = 9
_NF_SYSTEMS = {
    "p2m2": lambda: system_for(2, 2),
    "p3m1": lambda: system_for(3, 1),
    "big-F2-1": lambda: big_rewrite_system(F2, 1, truncated=True),
}
_NF_SYSTEM_CACHE = {}


def _nf_system(name):
    if name not in _NF_SYSTEM_CACHE:
        _NF_SYSTEM_CACHE[name] = _NF_SYSTEMS[name]()
    return _NF_SYSTEM_CACHE[name]


def _words_up_to(weight, draw_letters):
    """The longest prefix of the drawn letters with total weight <= weight."""
    out, total = [], 0
    for g in draw_letters:
        total += g.degree.norm
        if total > weight:
            break
        out.append(g)
    return Word.of(out)


def _reduce_to_fixpoint(system, f):
    while True:
        stepped = system.reduce_once(f)
        if stepped is None:
            return f
        f = stepped


@pytest.mark.parametrize("name", sorted(_NF_SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_letter_action_matches_single_steps(name, data):
    system = _nf_system(name)
    letters = data.draw(st.lists(st.sampled_from(system.alphabet),
                                 max_size=NF_WEIGHT))
    w = _words_up_to(NF_WEIGHT, letters)
    mono = Polynomial.monomial(w, system.field)
    assert system.normal_form(mono) == _reduce_to_fixpoint(system, mono)
    assert system.normal_form_word(w) == system.normal_form(mono)


@pytest.mark.parametrize("name", sorted(_NF_SYSTEMS))
def test_letter_action_memo_bound(name):
    """The memo holds x + v for a letter x and an irreducible word v only, so
    its size is at most |alphabet| x |irreducible words| of the weight
    reached."""
    base = _nf_system(name)
    # a fresh, empty memo
    system = RewriteSystem(base.rules, base.order, base.field, base.alphabet)
    letters = [g.char for g in system.alphabet]
    frontier = [""]
    for _ in range(6):
        frontier = [x + v for x in letters for v in frontier]
    for chars in frontier:
        system.normal_form_word(Word(chars))
    keys = list(system._action)
    assert keys
    assert all(k[0] in letters and _irreducible(system, Word(k[1:]))
               for k in keys)
    reached = max(Word(k).degree.norm for k in keys)
    irreducible = system.irreducible_words(reached)
    assert len(keys) <= len(system.alphabet) * len(irreducible)
