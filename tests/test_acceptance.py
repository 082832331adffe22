"""Acceptance gate: one test (or parametrized family) per criterion.

Each criterion prints a PASS line on success, so `pytest -v -rA` yields a
per-criterion report.  Two sub-assertions of criterion 5 pin literal
coefficient values that exact arithmetic refutes for odd characteristic
(see the review notes accompanying the repository): the
braid-power coefficient in NF(b^{p-1} a^{p-1}) is (-1)^p, not 1, and the
braid coordinate of d_2(.a_1 b_0^p) is -(-1)^p, not -1.  Those two tests
are expected to fail for p in {3, 5}; they are kept literal rather than
weakened.  The machine-derived values are asserted (and pass) in
tests/test_minimal.py::TestCoefficientChecks::test_exact_values.
"""

import math
import random
import time

import pytest

from u3plus import (
    Degree,
    EMPTY_WORD,
    FieldSpec,
    KostantElement,
    QQ,
    Word,
    divided_element,
    evaluate_poly,
    evaluate_word,
    gen_a,
    gen_b,
    lucas_binomial,
    word,
)
from u3plus.kostant import DividedMonomial
from conftest import complex_for, resolution_for, rule_polynomial, \
    system_for, system_from_polynomials

CONFIGS = [(2, 1, 8), (2, 2, 64), (3, 1, 27), (3, 2, 729), (5, 1, 125)]


def _enumeration_bound(p, m):
    return sum(4 * (p - 1) * p**k for k in range(m))


# --------------------------------------------------------------------------
# 1. dimension law
# --------------------------------------------------------------------------


@pytest.mark.parametrize("p,m,expected", CONFIGS)
def test_c01_dimension_law(p, m, expected):
    start = time.monotonic()
    system = system_for(p, m)
    count = len(system.irreducible_words(_enumeration_bound(p, m)))
    elapsed = time.monotonic() - start
    assert count == expected == p**(3 * m)
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 dimension law ({p},{m}): "
          f"{count} = p^3m  [{elapsed:.2f}s]  PASS")


# --------------------------------------------------------------------------
# 2. completeness and reducedness
# --------------------------------------------------------------------------


@pytest.mark.parametrize("p,m,_", CONFIGS)
def test_c02_complete_and_reduced(p, m, _):
    system = system_for(p, m)
    cert = system.is_complete()
    assert cert.complete
    assert cert.failures == []
    assert system.is_reduced()
    print(f"ACCEPTANCE 2 completeness ({p},{m}): "
          f"{cert.pair_count} pairs, 0 failures, reduced  PASS")


# --------------------------------------------------------------------------
# 3. oracle soundness
# --------------------------------------------------------------------------


@pytest.mark.parametrize("p,m,_", CONFIGS)
def test_c03a_rules_vanish_in_algebra(p, m, _):
    system = system_for(p, m)
    for rule in system.rules:
        assert evaluate_poly(rule_polynomial(rule)).is_zero, rule
    print(f"ACCEPTANCE 3a rule polynomials vanish ({p},{m})  PASS")


@pytest.mark.parametrize("field", [QQ, FieldSpec(2), FieldSpec(3),
                                   FieldSpec(5)],
                         ids=["char0", "mod2", "mod3", "mod5"])
def test_c03b_straightening_rules_hold(field):
    def ea(k):
        return divided_element("ea", k, field) if k else \
            KostantElement.one(field)

    def eab(k):
        return divided_element("eab", k, field) if k else \
            KostantElement.one(field)

    def eb(k):
        return divided_element("eb", k, field) if k else \
            KostantElement.one(field)

    def binom(n, k):
        return field.coerce(math.comb(n, k))

    for k in range(1, 10):
        for l in range(1, 10):
            for make in (ea, eab, eb):
                assert make(k) * make(l) == make(k + l).scale(
                    binom(k + l, k))
            assert eab(k) * ea(l) == ea(l) * eab(k)
            assert eb(k) * eab(l) == eab(l) * eb(k)
            alternating = KostantElement.zero(field)
            for j in range(min(k, l) + 1):
                term = ea(l - j) * eab(j) * eb(k - j)
                alternating = alternating + term.scale((-1) ** j)
            assert eb(k) * ea(l) == alternating
    print(f"ACCEPTANCE 3b straightening rules k,l<=9 over {field}  PASS")


def test_c03c_associativity_on_random_triples():
    rng = random.Random(20260808)
    fields = [QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5)]
    for trial in range(1000):
        field = fields[trial % 4]
        x, y, z = (
            KostantElement.basis(
                DividedMonomial(rng.randrange(10), rng.randrange(10),
                                rng.randrange(10)), field)
            for _ in range(3))
        assert (x * y) * z == x * (y * z)
    print("ACCEPTANCE 3c associativity on 1000 random triples  PASS")


# --------------------------------------------------------------------------
# 4. relation suite
# --------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_c04_relation_suite(p):
    field = FieldSpec(p)

    def a(k):
        return gen_a(k, p)

    def b(k):
        return gen_b(k, p)

    def value(letters):
        return evaluate_word(Word.of(letters), field)

    # nilpotence of the generators, indices through 2
    for k in range(3):
        assert value([a(k)] * p).is_zero
        assert value([b(k)] * p).is_zero
    # skew relations for 0 <= k < l <= 2
    for k in range(3):
        for l in range(k + 1, 3):
            sign = (-1) ** (l - k)
            tail = [a(k)] * (p - 1) + [b(k), a(k)]
            for s in range(k + 1, l):
                tail += [a(s)] * (p - 1)
            residual = value([a(l), b(k)]) - value([b(k), a(l)]) \
                + value(tail).scale(sign)
            assert residual.is_zero, ("skew_ab", k, l)
            tail = [b(k), a(k)] + [b(k)] * (p - 1)
            for s in range(k + 1, l):
                tail += [b(s)] * (p - 1)
            residual = value([b(l), a(k)]) - value([a(k), b(l)]) \
                - value(tail).scale(sign)
            assert residual.is_zero, ("skew_ba", k, l)
    # braid powers for k <= 1
    for k in range(2):
        assert (value([b(k), a(k)] * p) - value([a(k), b(k)] * p)).is_zero
    # degree-three relations at p = 3, k <= 1
    if p == 3:
        for k in range(2):
            r1 = value([b(k), b(k), a(k)]) - value([b(k), a(k), b(k)]).scale(2) \
                + value([a(k), b(k), b(k)])
            r2 = value([b(k), a(k), a(k)]) - value([a(k), b(k), a(k)]).scale(2) \
                + value([a(k), a(k), b(k)])
            assert r1.is_zero and r2.is_zero
    print(f"ACCEPTANCE 4 relation suite p={p}: all residuals zero  PASS")


# --------------------------------------------------------------------------
# 5. coefficient lemmas (literal claimed values)
# --------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_c05_normal_form_lemmas_as_stated(p):
    """Claimed: both normal-form coefficients equal 1.

    Exact computation gives (-1)^p for the first one, so this fails for odd
    p; see the module docstring and the review notes.
    """
    field = FieldSpec(p)
    system = system_for(p, 2)
    a0, b0, b1 = gen_a(0, p), gen_b(0, p), gen_b(1, p)
    nf = system.normal_form_word(Word.of([b0] * (p - 1) + [a0] * (p - 1)))
    got_first = nf.coefficient(Word.of([b0, a0] * (p - 1)))
    nf = system.normal_form_word(Word.of([b1] + [a0] * (p - 1)))
    got_second = nf.coefficient(Word.of([b0, a0] * (p - 1) + [b0]))
    assert got_second == field.coerce(1)
    assert got_first == field.coerce(1), (
        f"exact value is {got_first} = (-1)^p; the claimed 1 holds only "
        f"mod 2 (see the accompanying review notes)")
    print(f"ACCEPTANCE 5 normal-form lemmas p={p}: both 1  PASS")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_c05_boundary_coefficients_as_stated(p):
    """Claimed: .(b0 a0)^p enters both d_2(.a_1 b_0^p) and d_2(.b_1 a_0^p)
    with coefficient -1, and .a_1 b_1 with coefficient 0.

    Exact computation gives -(-1)^p for the first source, so this fails for
    odd p; see the module docstring and the review notes.
    """
    field = FieldSpec(p)
    cx = complex_for(p, 2)
    a0, b0 = gen_a(0, p), gen_b(0, p)
    a1, b1 = gen_a(1, p), gen_b(1, p)
    braid = Word.of([b0, a0] * p)
    ab_next = Word.of([a1, b1])
    minus_one = field.coerce(-1)

    def coeff(image, target_word):
        for (m, t), c in image.items():
            if m == EMPTY_WORD.chars and t == target_word.chars:
                return c
        return 0

    image_b = cx.d_chain(2, Word.of([b1] + [a0] * p).chars)
    assert coeff(image_b, braid) == minus_one
    assert coeff(image_b, ab_next) == 0
    image_a = cx.d_chain(2, Word.of([a1] + [b0] * p).chars)
    assert coeff(image_a, ab_next) == 0
    assert coeff(image_a, braid) == minus_one, (
        f"exact value is {coeff(image_a, braid)} = -(-1)^p; the claimed -1 "
        f"holds only mod 2 (see the accompanying review notes)")
    print(f"ACCEPTANCE 5 boundary coefficients p={p}: both -1  PASS")


# --------------------------------------------------------------------------
# 6. chain sets, degree tables, weight matches
# --------------------------------------------------------------------------

from test_anick import expected_matches, expected_t1, expected_t2  # noqa: E402


def _degree_tables(p, window):
    """Independent symbolic encoding of every chain-weight row.

    One correction to the printed source material is baked in: the triple
    product a_r b_l b_k weighs p^r alpha + (p^l + p^k) beta (additivity in
    the first letter), and for odd p the l = k boundary entries
    b_k a_k^p / b_k^p a_k of the mixed families are present (they are
    genuine minimal overlaps with the degree-three rules, and exactness
    forces them; see test_anick.TestChainSets.test_boundary_tips_are_forced).
    """
    def a(k):
        return gen_a(k, p)

    def b(k):
        return gen_b(k, p)

    t1 = {}
    t2 = {}
    for k in window:
        t1[Word.of([a(k)] * p)] = Degree(p**(k + 1), 0)
        t1[Word.of([b(k)] * p)] = Degree(0, p**(k + 1))
        t1[Word.of([b(k), a(k)] * p)] = Degree(p**(k + 1), p**(k + 1))
        if p >= 3:
            t1[Word.of([b(k), b(k), a(k)])] = Degree(p**k, 2 * p**k)
            t1[Word.of([b(k), a(k), a(k)])] = Degree(2 * p**k, p**k)
        t2[Word.of([a(k)] * (p + 1))] = Degree(p**(k + 1) + p**k, 0)
        t2[Word.of([b(k)] * (p + 1))] = Degree(0, p**(k + 1) + p**k)
        t2[Word.of([b(k)] + [b(k), a(k)] * p)] = \
            Degree(p**(k + 1), p**(k + 1) + p**k)
        t2[Word.of([b(k), a(k)] * p + [a(k)])] = \
            Degree(p**(k + 1) + p**k, p**(k + 1))
        t2[Word.of([b(k), a(k)] * (p + 1))] = \
            Degree(p**(k + 1) + p**k, p**(k + 1) + p**k)
        if p >= 3:
            t2[Word.of([b(k), b(k), a(k), a(k)])] = \
                Degree(2 * p**k, 2 * p**k)
            t2[Word.of([b(k)] + [a(k)] * p)] = Degree(p**(k + 1), p**k)
            t2[Word.of([b(k)] * p + [a(k)])] = Degree(p**k, p**(k + 1))
    for k in window:
        for l in window:
            if l <= k:
                continue
            t1[Word.of([a(l), b(k)])] = Degree(p**l, p**k)
            t1[Word.of([b(l), a(k)])] = Degree(p**k, p**l)
            t1[Word.of([a(l), a(k)])] = Degree(p**l + p**k, 0)
            t1[Word.of([b(l), b(k)])] = Degree(0, p**l + p**k)
            t2[Word.of([a(l)] + [a(k)] * p)] = \
                Degree(p**l + p**(k + 1), 0)
            t2[Word.of([a(l)] + [b(k)] * p)] = Degree(p**l, p**(k + 1))
            t2[Word.of([a(l)] + [b(k), a(k)] * p)] = \
                Degree(p**l + p**(k + 1), p**(k + 1))
            t2[Word.of([b(l)] + [a(k)] * p)] = Degree(p**(k + 1), p**l)
            t2[Word.of([b(l)] + [b(k)] * p)] = \
                Degree(0, p**l + p**(k + 1))
            t2[Word.of([b(l)] + [b(k), a(k)] * p)] = \
                Degree(p**(k + 1), p**(k + 1) + p**l)
            t2[Word.of([a(l)] * p + [a(k)])] = \
                Degree(p**(l + 1) + p**k, 0)
            t2[Word.of([a(l)] * p + [b(k)])] = Degree(p**(l + 1), p**k)
            t2[Word.of([b(l)] * p + [a(k)])] = Degree(p**k, p**(l + 1))
            t2[Word.of([b(l)] * p + [b(k)])] = \
                Degree(0, p**(l + 1) + p**k)
            t2[Word.of([b(l), a(l)] * p + [a(k)])] = \
                Degree(p**(l + 1) + p**k, p**(l + 1))
            t2[Word.of([b(l), a(l)] * p + [b(k)])] = \
                Degree(p**(l + 1), p**(l + 1) + p**k)
            if p >= 3:
                t2[Word.of([a(l), b(k), b(k), a(k)])] = \
                    Degree(p**l + p**k, 2 * p**k)
                t2[Word.of([a(l), b(k), a(k), a(k)])] = \
                    Degree(p**l + 2 * p**k, p**k)
                t2[Word.of([b(l), b(k), b(k), a(k)])] = \
                    Degree(p**k, 2 * p**k + p**l)
                t2[Word.of([b(l), b(k), a(k), a(k)])] = \
                    Degree(2 * p**k, p**l + p**k)
                t2[Word.of([b(l), b(l), a(l), a(k)])] = \
                    Degree(p**l + p**k, 2 * p**l)
                t2[Word.of([b(l), b(l), a(l), b(k)])] = \
                    Degree(p**l, 2 * p**l + p**k)
                t2[Word.of([b(l), a(l), a(l), a(k)])] = \
                    Degree(2 * p**l + p**k, p**l)
                t2[Word.of([b(l), a(l), a(l), b(k)])] = \
                    Degree(2 * p**l, p**l + p**k)
            for r in window:
                if r <= l:
                    continue
                t2[Word.of([a(r), a(l), a(k)])] = \
                    Degree(p**r + p**l + p**k, 0)
                t2[Word.of([a(r), a(l), b(k)])] = \
                    Degree(p**r + p**l, p**k)
                t2[Word.of([a(r), b(l), a(k)])] = \
                    Degree(p**r + p**k, p**l)
                t2[Word.of([a(r), b(l), b(k)])] = \
                    Degree(p**r, p**l + p**k)
                t2[Word.of([b(r), a(l), a(k)])] = \
                    Degree(p**l + p**k, p**r)
                t2[Word.of([b(r), a(l), b(k)])] = \
                    Degree(p**l, p**r + p**k)
                t2[Word.of([b(r), b(l), a(k)])] = \
                    Degree(p**k, p**r + p**l)
                t2[Word.of([b(r), b(l), b(k)])] = \
                    Degree(0, p**r + p**l + p**k)
    return t1, t2


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_c06_chain_sets_reproduced(p, m):
    cx = complex_for(p, m)
    assert {Word(c) for c in cx.t1} == expected_t1(p, m)
    assert {Word(c) for c in cx.t2} == expected_t2(p, m)
    print(f"ACCEPTANCE 6 chain sets ({p},{m}): |T1|={len(cx.t1)} "
          f"|T2|={len(cx.t2)}  PASS")


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2)])
def test_c06_degree_tables_symbolic(p, m):
    cx = complex_for(p, m)
    t1_expected, t2_expected = _degree_tables(p, range(m))
    assert {w: w.degree for w in map(Word, cx.chains(1))} == t1_expected
    assert {w: w.degree for w in map(Word, cx.chains(2))} == t2_expected
    print(f"ACCEPTANCE 6 degree tables ({p},{m})  PASS")


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_c06_weight_matches_reproduced(p, m):
    cx = complex_for(p, m)
    got = {(Word(u), Word(w)) for u, w in cx.matches_w()}
    assert got == expected_matches(p, m)
    if (p, m) == (2, 3):
        assert (word(gen_a(2, 2), gen_b(1, 2)),
                Word.of([gen_a(1, 2)]
                        + [gen_b(0, 2), gen_a(0, 2)] * 2)) in got
    print(f"ACCEPTANCE 6 weight matches ({p},{m}): {len(got)} pairs  PASS")


# --------------------------------------------------------------------------
# 7. complex identities and exactness
# --------------------------------------------------------------------------


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1)])
def test_c07_complex_and_exactness(p, m):
    bound = 3 * p * p
    start = time.monotonic()
    cx = complex_for(p, m)
    exactness = cx.exactness_check(bound)
    assert exactness and all(r.ok for r in exactness)
    complex_report = cx.complex_check(exactness)
    assert complex_report["ok"], complex_report["failures"]
    minimal = resolution_for(p, m, bound)
    prime_reports = minimal.exactness_at_p1_prime()
    assert prime_reports and all(r.ok for r in prime_reports)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 7 exactness ({p},{m}) Deg<={bound}: complex ok, "
          f"exact at P0/P1 in {len(exactness)} degrees, exact at P1' in "
          f"{len(prime_reports)} degrees  [{elapsed:.1f}s]  PASS")


# --------------------------------------------------------------------------
# 8. minimality
# --------------------------------------------------------------------------


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1)])
def test_c08_minimality(p, m):
    resolution = resolution_for(p, m, 3 * p * p)
    smallness = resolution.smallness_checks()
    assert smallness == {"d0": True, "d1": True, "d2": True}
    assert resolution.d1_after_d2_zero()
    print(f"ACCEPTANCE 8 minimality ({p},{m}): images of d0, d1', d2' "
          f"in the radical  PASS")


# --------------------------------------------------------------------------
# 9. the binomial kernel
# --------------------------------------------------------------------------


def test_c09_lucas_against_factorials():
    for p in (2, 3, 5, 7):
        for n in range(201):
            for k in range(n + 1):
                assert lucas_binomial(k, n - k, p) == math.comb(n, k) % p
    print("ACCEPTANCE 9 binomial kernel n<=200, p in {2,3,5,7}  PASS")


# --------------------------------------------------------------------------
# 10. mutation sensitivity
# --------------------------------------------------------------------------


@pytest.mark.parametrize("p,m", [(2, 2), (3, 1)])
def test_c10_dropping_any_rule_is_detected(p, m):
    """Every single-rule drop trips the gate.

    Most drops already break confluence (criterion 2); drops of rules whose
    failing overlap lies outside the window leave a complete basis of a
    larger quotient and are caught by the dimension law (criterion 1).
    """
    system = system_for(p, m)
    expected = p**(3 * m)
    bound = _enumeration_bound(p, m)
    via = []
    for skip in range(len(system.rules)):
        polys = [rule_polynomial(r) for i, r in enumerate(system.rules)
                 if i != skip]
        pruned = system_from_polynomials(
            polys, system.order, system.field, system.alphabet)
        if not pruned.is_complete().complete:
            via.append("completeness")
            continue
        assert len(pruned.irreducible_words(bound)) != expected, \
            system.rules[skip]
        via.append("dimension")
    print(f"ACCEPTANCE 10 rule drops ({p},{m}): "
          f"{via.count('completeness')} caught by confluence, "
          f"{via.count('dimension')} by dimension  PASS")


def test_c10_sign_flips_detected_by_oracle():
    """Flipping any single coefficient sign breaks kernel membership.

    Run at p = 3: in characteristic two negation is the identity, so sign
    flips are not mutations there.
    """
    from u3plus import Polynomial, rule_from_poly

    system = system_for(3, 2)
    field = system.field
    flips = 0
    for rule in system.rules:
        poly = rule_polynomial(rule)
        for target in set(poly.terms):
            mutated = {w: (field.neg(c) if w == target else c)
                       for w, c in poly.items()}
            bad = Polynomial(mutated, field)
            if rule_from_poly(bad, system.order) == rule:
                # a scalar multiple orients to the identical rule: not a
                # mutation (this covers the one-term rules x^p -> 0)
                continue
            assert not evaluate_poly(bad).is_zero, (rule, target)
            flips += 1
    assert flips > 0
    print(f"ACCEPTANCE 10 sign flips (3,2): {flips} mutants all caught "
          f"by the arithmetic oracle  PASS")
