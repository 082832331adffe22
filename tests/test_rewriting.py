import functools
import random
import re
import sys
import tracemalloc

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
    Window,
    Word,
    divided_alphabet,
    divided_generator,
    find_overlaps,
    gen_a,
    gen_b,
    parse_poly,
    rule_from_poly,
    small_groebner_basis,
    small_window_alphabet,
    spolynomial,
    word,
)
from u3plus import rewriting
from u3plus.kostant import big_rewrite_system
from u3plus.rewriting import (
    CriticalPair,
    RestrictionError,
    RewriteSystemError,
)

from conftest import (
    complex_for,
    rule_polynomial,
    system_for,
    system_from_polynomials,
)

F2 = FieldSpec(2)
A0, B0 = gen_a(0, 2), gen_b(0, 2)
A1, B1 = gen_a(1, 2), gen_b(1, 2)


def _irreducible(system, w):
    return system.reduce_once(Polynomial.monomial(w, system.field)) is None


def _window_system(*polys):
    alphabet = small_window_alphabet(2, 0, 1)
    return system_from_polynomials(
        [parse_poly(f, F2) for f in polys], OrderSpec.deglex(alphabet), F2,
        alphabet)


def toy_system():
    """{a b -> 0, b a -> a}: the classic non-confluent pair."""
    return _window_system("a0*b0", "b0*a0 - a0")


def nested_lhs_system():
    """{a a -> 0, a a a -> b}: one lhs inside another."""
    return _window_system("a0*a0", "a0*a0*a0 - b0")


def inner_lhs_system():
    """{b -> 0, a b a -> a a}: an lhs inside another with no overlap."""
    return _window_system("b0", "a0*b0*a0 - a0*a0")


def rhs_factor_system():
    """{a a -> 0, b a b -> a a b}: an lhs inside another rule's rhs."""
    return _window_system("a0*a0", "b0*a0*b0 - a0*a0*b0")


@functools.lru_cache(maxsize=None)
def _big_system(p, bound):
    return big_rewrite_system(FieldSpec(p), bound, truncated=True)


def pruned_g22(skip):
    """The (2, 2) window basis without rule skip."""
    g22 = system_for(2, 2)
    return system_from_polynomials(
        [rule_polynomial(r) for i, r in enumerate(g22.rules) if i != skip],
        g22.order, g22.field, g22.alphabet)


def big_f3_8_with_changed_rhs(k):
    """The truncated big system over F_3 up to 8, with the coefficient of
    one rhs term of rule k doubled."""
    big = _big_system(3, 8)
    rules = list(big.rules)
    terms = dict(rules[k].rhs.terms)
    w = next(iter(terms))
    terms[w] = 2 * terms[w]
    rules[k] = RewriteRule(rules[k].lhs, Polynomial(terms, big.field))
    return RewriteSystem(rules, big.order, big.field, big.alphabet)


# the systems the all-pairs references below are checked on
PAIR_SYSTEMS = {
    "toy": toy_system,
    "nested": nested_lhs_system,
    "inner": inner_lhs_system,
    "g21": lambda: system_for(2, 1),
    "g22": lambda: system_for(2, 2),
    "g31": lambda: system_for(3, 1),
    "big-F2-3": lambda: _big_system(2, 3),
    "big-F3-8": lambda: _big_system(3, 8),
}
REDUCEDNESS_SYSTEMS = {
    **PAIR_SYSTEMS,
    "g32": lambda: system_for(3, 2),
    "g51": lambda: system_for(5, 1),
    "rhs-factor": rhs_factor_system,
}


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


class TestSystemConstruction:
    def test_empty_lhs_rejected(self):
        alphabet = (A0, B0)
        with pytest.raises(RewriteSystemError,
                           match="empty left-hand side"):
            RewriteSystem([RewriteRule(EMPTY_WORD, Polynomial.zero(F2))],
                          OrderSpec.deglex(alphabet), F2, alphabet)

    @pytest.mark.parametrize("poly,message", [
        ("1", "rule 1 -> 0 has an empty left-hand side"),
        ("a1*a1", "rule a1*a1 -> 0 leaves the alphabet at a1*a1"),
        ("a0*a0*a0 - a1", "rule a0*a0*a0 -> a1 leaves the alphabet at a1"),
    ], ids=["constant", "foreign-lhs", "foreign-rhs"])
    def test_rule_outside_the_alphabet_rejected(self, poly, message):
        # the order knows a1, the system's alphabet does not
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 2))
        with pytest.raises(RewriteSystemError, match=re.escape(message)):
            system_from_polynomials(
                [parse_poly(poly, F2)], order, F2,
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

    @pytest.mark.parametrize("p,m,bound", [(2, 2, 6), (3, 1, 8)])
    def test_letter_action_cold_warm_and_refilled(self, p, m, bound):
        """letters . f equals NF(letters f) whether the memo is cold, warm,
        or warm but missing one entry that letters . f needs; the miss path
        refills that entry.  Single letters start from an empty memo; each
        three-letter word starts once its rightmost letter is in the memo,
        so some of them miss at the middle letter."""
        ref = small_groebner_basis(Window(p, 0, m))
        field = ref.field
        by_degree = {}
        for w in ref.irreducible_words(bound):
            by_degree.setdefault(w.degree, []).append(w)
        # one homogeneous combination of irreducible words per degree, with
        # coefficients 1, 2, ..., p - 1, 1, ...
        combos = [{(w.chars, ""): field.coerce(1 + i % (p - 1))
                   for i, w in enumerate(ws)} for ws in by_degree.values()]
        chars = [g.char for g in ref.alphabet]
        singles = [(x, terms) for x in chars for terms in combos]
        triples = [(x + y + z, terms) for x in chars for y in chars
                   for z in chars for terms in combos]

        def expected(letters, terms):
            f = Polynomial({Word(v): c for (v, _), c in terms.items()}, field)
            nf = ref.normal_form(Polynomial.monomial(Word(letters), field) * f)
            return {(w.chars, ""): c for w, c in nf.items()}

        for cases in (singles, triples):
            system = small_groebner_basis(Window(p, 0, m))
            cold, middle_misses = [], 0
            for letters, terms in cases:
                if len(letters) > 1:
                    system._left_multiply(letters[-1], terms)
                    middle_misses += any(
                        letters[1] + v not in system._action
                        for v, _ in expected(letters[-1], terms))
                cold.append(system._left_multiply(letters, terms))
            assert cold == [expected(x, terms) for x, terms in cases]
            assert (middle_misses > 0) == (cases is triples)
            filled = len(system._action)
            warm = [system._left_multiply(x, terms) for x, terms in cases]
            assert warm == cold
            assert len(system._action) == filled
            for (letters, terms), want in zip(cases, cold):
                key = letters[-1] + next(iter(terms))[0]
                value = system._action.pop(key)
                assert system._left_multiply(letters, terms) == want
                assert system._action[key] == value

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_letter_action_keeps_tails_apart(self, data):
        """letters . terms on a (chars, tail) map, read tail by tail, is the
        normal form of letters times that tail's polynomial, computed on a
        fresh system; the tails are chains of every level."""
        p, m = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
        cx = complex_for(p, m)
        ref = small_groebner_basis(Window(p, 0, m))
        field = ref.field
        words = [w.chars for w in ref.irreducible_words(6)]
        tails = [t for n in (-1, 0, 1, 2) for t in cx.chains(n)]
        terms = data.draw(st.dictionaries(
            st.tuples(st.sampled_from(words), st.sampled_from(tails)),
            st.integers(1, p - 1), max_size=8))
        letters = "".join(data.draw(st.lists(
            st.sampled_from([g.char for g in ref.alphabet]), max_size=3)))
        got = cx.system._left_multiply(letters, terms)
        for t in {t for _w, t in terms} | {t for _w, t in got}:
            f = Polynomial({Word(w): c for (w, tt), c in terms.items()
                            if tt == t}, field)
            nf = ref.normal_form(Polynomial.monomial(Word(letters), field) * f)
            assert {w: c for (w, tt), c in got.items() if tt == t} == {
                w.chars: c for w, c in nf.items()}, (letters, t)

    def test_derivation_uses_no_recursion(self):
        """The letter action derives missing entries on an explicit stack:
        x . y^n under the commutation rule x y -> y x needs n nested
        entries, yet runs under a recursion limit a few frames above the
        caller's depth."""
        system = _window_system("b0*a0 - a0*b0")
        x, y = system.rules[0].lhs.chars
        n, margin = 60, 20
        live = deepest = 0
        head_steps = system._head_steps

        def counted(key):
            nonlocal live, deepest
            live += 1
            deepest = max(deepest, live)
            try:
                return (yield from head_steps(key))
            finally:
                live -= 1

        system._head_steps = counted
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + margin)
        try:
            nf = system._nf_chars(x + y * n)
        finally:
            sys.setrecursionlimit(limit)
        assert nf == {y * n + x: 1}
        # one generator each for x y^n, x y^(n-1), ..., x
        assert deepest == n + 1 > margin


class TestOverlaps:
    def test_self_overlap(self):
        skeletons = find_overlaps(word(A0, A0).chars, word(A0, A0).chars)
        assert [(t, u, v, c) for t, u, v, c in skeletons] == [
            (word(A0, A0, A0).chars, word(A0).chars, word(A0).chars,
             "overlap")]

    def test_mixed_overlap(self):
        skeletons = find_overlaps(word(A1, B0).chars, word(B0, B0).chars)
        assert [(t, c) for t, _, _, c in skeletons] == [
            (word(A1, B0, B0).chars, "overlap")]

    def test_no_overlap(self):
        assert find_overlaps(word(A0, B0).chars, word(B1, A0).chars) == []

    def test_containment(self):
        skeletons = find_overlaps(word(B0, A0, A0).chars, word(A0).chars)
        cases = [(t, u, v) for t, u, v, c in skeletons if c == "containment"]
        assert (word(B0, A0, A0).chars, word(B0).chars,
                word(A0).chars) in cases
        assert (word(B0, A0, A0).chars, word(B0, A0).chars,
                EMPTY_WORD.chars) in cases


class TestCriticalPairs:
    def test_empty_system(self):
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 1))
        system = RewriteSystem([], order, F2, small_window_alphabet(2, 0, 1))
        assert system.critical_pairs() == ()
        assert system.is_complete().complete

    def test_single_square_rule(self):
        order = OrderSpec.deglex(small_window_alphabet(2, 0, 1))
        system = system_from_polynomials(
            [parse_poly("a0*a0", F2)], order, F2,
            small_window_alphabet(2, 0, 1))
        tips = {cp.tip for cp in system.critical_pairs()}
        assert tips == {word(A0, A0, A0).chars}

    def test_g21_tips_match_enumeration(self, g21):
        tips = {str(Word(cp.tip)) for cp in g21.critical_pairs()}
        assert tips == {
            "a0*a0*a0", "b0*b0*b0",
            "b0*b0*a0*b0*a0",
            "b0*a0*b0*a0*a0",
            "b0*a0*b0*a0*b0*a0",
        }

    def test_toy_irreducible_spolynomial(self):
        system = toy_system()
        pairs = {str(Word(cp.tip)): cp for cp in system.critical_pairs()}
        assert set(pairs) == {"a0*b0*a0", "b0*a0*b0"}
        bad = pairs["a0*b0*a0"]
        residual = system.normal_form(spolynomial(system, bad))
        assert residual == parse_poly("-a0*a0", F2)
        good = spolynomial(system, pairs["b0*a0*b0"])
        assert system.normal_form(good).is_zero

    @pytest.mark.parametrize("make", [
        pytest.param(lambda g22: g22, id="g22"),
        pytest.param(lambda g22: big_rewrite_system(FieldSpec(3), 8,
                                                    truncated=True),
                     id="big-F3-8"),
    ])
    def test_no_pair_listed_twice(self, g22, make):
        pairs = make(g22).critical_pairs()
        keys = {(cp.tip, cp.rule1, cp.rule2, cp.u, cp.case)
                for cp in pairs}
        assert len(keys) == len(pairs)
        assert pairs

    def test_complete_system_pairs_all_reducible(self, g22):
        assert all(g22.normal_form(spolynomial(g22, cp)).is_zero
                   for cp in g22.critical_pairs())

    @pytest.mark.parametrize("name", PAIR_SYSTEMS)
    def test_matches_all_pairs_reference(self, monkeypatch, name):
        system = PAIR_SYSTEMS[name]()
        expected = [CriticalPair(tip, i, j, u, v, case)
                    for i, r1 in enumerate(system.rules)
                    for j, r2 in enumerate(system.rules)
                    for tip, u, v, case in find_overlaps(r1.lhs.chars,
                                                         r2.lhs.chars)]
        expected.sort(key=lambda cp: (system.order.key(cp.tip), cp.rule1,
                                      cp.rule2, len(cp.u), cp.case))
        returned = []

        def recording(m1, m2):
            skeletons = find_overlaps(m1, m2)
            returned.append(skeletons)
            return skeletons

        monkeypatch.setattr(rewriting, "find_overlaps", recording)
        assert system.critical_pairs() == tuple(expected)
        # only rule pairs that meet are tried
        assert all(returned)

    def test_containment_reaches_critical_pairs(self):
        pairs = nested_lhs_system().critical_pairs()
        assert {(str(Word(cp.tip)), str(Word(cp.u)), str(Word(cp.v)))
                for cp in pairs if cp.case == "containment"} == {
            ("a0*a0*a0", "1", "a0"), ("a0*a0*a0", "a0", "1")}
        pairs = inner_lhs_system().critical_pairs()
        assert [(str(Word(cp.tip)), cp.rule1, cp.rule2, str(Word(cp.u)),
                 str(Word(cp.v)))
                for cp in pairs if cp.case == "containment"] == [
            ("a0*b0*a0", 1, 0, "a0", "a0")]

    @pytest.mark.parametrize("name", PAIR_SYSTEMS)
    def test_spolynomial_matches_polynomial_arithmetic(self, name):
        system = PAIR_SYSTEMS[name]()
        for cp in system.critical_pairs():
            r1, r2 = system.rules[cp.rule1], system.rules[cp.rule2]
            u = Polynomial.monomial(Word(cp.u), system.field)
            v = Polynomial.monomial(Word(cp.v), system.field)
            if cp.case == "overlap":
                expected = r1.rhs * v - u * r2.rhs
            else:
                expected = r1.rhs - u * r2.rhs * v
            assert spolynomial(system, cp) == expected, cp


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

    @pytest.mark.parametrize("make", [
        pytest.param(lambda g22: g22, id="g22"),
        pytest.param(lambda g22: _big_system(3, 8), id="big-F3-8"),
    ])
    def test_certifies_without_listing_pairs(self, monkeypatch, g22, make):
        system = make(g22)
        expected = len(system.critical_pairs())

        def refuse(self):
            raise AssertionError("critical_pairs called")

        monkeypatch.setattr(RewriteSystem, "critical_pairs", refuse)
        cert = system.is_complete()
        assert cert.complete
        assert cert.pair_count == expected

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: pruned_g22(0), id="g22-without-rule-0"),
        pytest.param(lambda: big_f3_8_with_changed_rhs(0),
                     id="big-F3-8-rule-0-changed"),
    ])
    def test_failures_in_critical_pair_order(self, make):
        system = make()
        expected = [
            (Word(cp.tip), r) for cp in system.critical_pairs()
            if not (r := system.normal_form(spolynomial(system, cp))).is_zero]
        cert = system.is_complete()
        assert len(expected) >= 2
        assert cert.failures == expected
        assert not cert.complete

    def test_keeps_no_pair_list(self):
        system = _big_system(3, 8)
        system.is_complete()  # fills the letter-action memo
        tracemalloc.start()
        try:
            pairs = system.critical_pairs()
            listed = tracemalloc.get_traced_memory()[0]
            del pairs
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert system.is_complete().complete
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < listed / 10, (peak, listed)


class TestIsReduced:
    def test_window_bases_reduced(self, g22, g31):
        assert g22.is_reduced()
        assert g31.is_reduced()

    def test_nested_lhs_not_reduced(self):
        assert not nested_lhs_system().is_reduced()

    def test_lhs_inside_another_rules_rhs_not_reduced(self):
        system = rhs_factor_system()
        assert [str(r) for r in system.rules] == [
            "a0*a0 -> 0", "b0*a0*b0 -> a0*a0*b0"]
        assert not system.is_reduced()

    @pytest.mark.parametrize("name", REDUCEDNESS_SYSTEMS)
    def test_matches_all_pairs_predicate(self, name):
        system = REDUCEDNESS_SYSTEMS[name]()
        lhs = [r.lhs.chars for r in system.rules]
        expected = not any(
            (i != j and other in rule.lhs.chars)
            or any(other in w.chars for w in rule.rhs.terms)
            for i, rule in enumerate(system.rules)
            for j, other in enumerate(lhs))
        assert system.is_reduced() == expected

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
        system = system_from_polynomials(polys, order, F2, alphabet)
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
    assert g22.normal_form(um * rule_polynomial(rule) * vm).is_zero


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
        polys = [rule_polynomial(r) for i, r in enumerate(g22.rules)
                 if i != skip]
        pruned = system_from_polynomials(
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
