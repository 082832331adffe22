import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from u3plus import (
    DividedMonomial,
    FieldSpec,
    KostantElement,
    Polynomial,
    QQ,
    Window,
    Word,
    big_rewrite_system,
    dimension_check,
    divided_alphabet,
    divided_element,
    evaluate_poly,
    evaluate_word,
    gen_a,
    gen_b,
    lucas_binomial,
    parse_poly,
    relation_suite,
    small_generator,
    small_groebner_basis,
    word,
)
from u3plus import kostant
from conftest import rule_polynomial, system_for

F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)


def mono(ka, kab, kb, field, coeff=1):
    return KostantElement.basis(DividedMonomial(ka, kab, kb), field, coeff)


class TestLucas:
    def test_choose_zero(self):
        for p in (2, 3, 5):
            for n in range(10):
                assert lucas_binomial(0, n, p) == 1

    def test_three_choose_one_mod_three(self):
        assert lucas_binomial(1, 2, 3) == 0

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 1), (5, 1)])
    def test_vanishes_past_the_truncation(self, p, m):
        top = p**m
        for k in range(top):
            for l in range(top):
                if k + l >= top:
                    assert lucas_binomial(k, l, p) == 0

    def test_agrees_with_factorials_small(self):
        for p in (2, 3, 5, 7):
            for n in range(60):
                for k in range(n + 1):
                    assert lucas_binomial(k, n - k, p) == math.comb(n, k) % p


class TestMultiplyDivided:
    def test_straightening_base_case(self):
        got = divided_element("eb", 1, QQ) * divided_element("ea", 1, QQ)
        assert got == mono(1, 0, 1, QQ) - mono(0, 1, 0, QQ)

    def test_same_kind_merge(self):
        for k, l in [(1, 1), (2, 3), (4, 4)]:
            got = divided_element("ea", k, QQ) * divided_element("ea", l, QQ)
            assert got == mono(k + l, 0, 0, QQ, math.comb(k + l, k))

    def test_unit(self):
        v = mono(2, 1, 3, F3, 2)
        assert KostantElement.one(F3) * v == v
        assert v * KostantElement.one(F3) == v

    def test_alternating_rule_general(self):
        # eb(k) ea(l) expands into the alternating sum over the PBW basis
        k, l = 3, 2
        got = divided_element("eb", k, QQ) * divided_element("ea", l, QQ)
        expected = KostantElement.zero(QQ)
        for j in range(min(k, l) + 1):
            expected = expected + mono(l - j, j, k - j, QQ, (-1) ** j)
        assert got == expected

    def test_graded(self):
        u = mono(2, 1, 0, QQ)
        v = mono(0, 2, 3, QQ)
        product = u * v
        (degree,) = {k.degree for k in product.terms}
        assert degree == DividedMonomial(2, 1, 0).degree \
            + DividedMonomial(0, 2, 3).degree


class TestSmallGenerators:
    def test_a0_is_first_divided_power(self):
        assert small_generator("a", 0, 2) == mono(1, 0, 0, F2)

    def test_b1_at_two(self):
        assert small_generator("b", 1, 2) == mono(0, 0, 2, F2)

    def test_a2_at_three(self):
        assert small_generator("a", 2, 3) == mono(9, 0, 0, F3)


class TestEvaluateWord:
    def test_empty_word(self):
        assert evaluate_word(word(), F2) == KostantElement.one(F2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_generator_power_vanishes(self, p):
        field = FieldSpec(p)
        a = gen_a(0, p)
        assert evaluate_word(word(*[a] * p), field).is_zero

    def test_commutator_witness(self):
        got = evaluate_word(word(gen_b(0, 2), gen_a(0, 2)), F2)
        assert got == mono(1, 0, 1, F2) + mono(0, 1, 0, F2)

    def test_divided_letters(self):
        f = parse_poly("ea(2)*eb(3)", QQ)
        assert evaluate_poly(f) == mono(2, 0, 3, QQ)


class TestSmallBasis:
    def test_g21_rules_pinned(self, g21):
        assert [str(r) for r in g21.rules] == [
            "a0*a0 -> 0",
            "b0*b0 -> 0",
            "b0*a0*b0*a0 -> a0*b0*a0*b0",
        ]

    def test_g31_rules_pinned(self, g31):
        # 2 mod 3 renders as the balanced residue -1
        assert [str(r) for r in g31.rules] == [
            "a0*a0*a0 -> 0",
            "b0*a0*a0 -> -a0*b0*a0 - a0*a0*b0",
            "b0*b0*a0 -> -b0*a0*b0 - a0*b0*b0",
            "b0*b0*b0 -> 0",
            "b0*a0*b0*a0*b0*a0 -> a0*b0*a0*b0*a0*b0",
        ]

    def test_g22_rule_multiset_pinned(self, g22):
        assert [str(r.lhs) for r in g22.rules] == [
            "a0*a0", "b0*b0", "a1*a0", "a1*b0", "b1*a0", "b1*b0",
            "b0*a0*b0*a0", "a1*a1", "b1*b1", "b1*a1*b1*a1"]

    def test_every_rule_in_kernel(self, g32):
        for rule in g32.rules:
            assert evaluate_poly(rule_polynomial(rule)).is_zero

    def test_windowed_basis(self):
        shifted = small_groebner_basis(Window(2, 1, 3))
        assert {str(r.lhs) for r in shifted.rules} == {
            "a1*a1", "b1*b1", "a2*a1", "a2*b1", "b2*a1", "b2*b1",
            "b1*a1*b1*a1", "a2*a2", "b2*b2", "b2*a2*b2*a2"}
        assert shifted.is_complete().complete

    def test_perturbed_sign_caught_by_oracle(self):
        # flipping the correction-term sign breaks membership; this needs an
        # odd characteristic, since -1 = 1 makes every flip a no-op mod 2
        good = parse_poly("a1*b0 - b0*a1 - a0*a0*b0*a0", F3, prime=3)
        bad = parse_poly("a1*b0 - b0*a1 + a0*a0*b0*a0", F3, prime=3)
        assert evaluate_poly(good).is_zero
        assert not evaluate_poly(bad).is_zero


class TestRelationSuite:
    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 1), (3, 3),
                                     (5, 2), (5, 3)])
    def test_all_pass(self, p, m):
        checks = relation_suite(Window(p, 0, m))
        gens = [c for c in checks if c.name.startswith("generates:")]
        assert len(gens) == 3 * (p**m - 1)  # every kind over 1..p^m-1
        failures = [c.name for c in checks if not c.ok]
        assert failures == []

    def test_p_at_least_three_relation_present(self):
        checks = relation_suite(Window(3, 0, 1))
        names = {c.name for c in checks}
        assert "b0^2*a0-2*b0*a0*b0+a0*b0^2" in names

    def test_generation_witnesses_cover_all_divided_powers(self):
        checks = relation_suite(Window(2, 0, 2))
        gens = [c for c in checks if c.name.startswith("generates:")]
        assert len(gens) == 9  # three kinds, powers 1..3
        assert all(c.ok for c in gens)

    def test_pbw_witness_recursion(self):
        # eab(2) at p = 2 unwinds the straightening rule for b1 a1 through
        # eab(1) and the ea/eb powers below it
        win = Window(2, 0, 2)
        memo = {}
        value = kostant._generated("eab", 2, win, memo)
        assert value == divided_element("eab", 2, win.field)
        assert {("eab", 1), ("ea", 1), ("eb", 1)} <= set(memo)

    def test_flipped_correction_sign_fails(self, monkeypatch):
        # (-1)^q (b a + S) instead of (-1)^q (b a - S), where S is the
        # straightening correction: 2 (-1)^q b a minus the true value
        original = kostant._eab_prime_power

        def flipped(s, win, memo):
            ba = (small_generator("b", s, win.p)
                  * small_generator("a", s, win.p))
            return ba.scale(2 * (-1) ** win.p**s) - original(s, win, memo)

        monkeypatch.setattr(kostant, "_eab_prime_power", flipped)
        checks = relation_suite(Window(3, 0, 2))
        failed = [c for c in checks if not c.ok]
        assert [c.name for c in failed] == [
            f"generates:eab({n})" for n in range(1, 9)]
        assert all(c.residual is not None and not c.residual.is_zero
                   for c in failed)


class TestDimension:
    @pytest.mark.parametrize("p,m,expected", [
        (2, 1, 8), (3, 1, 27), (2, 2, 64)])
    def test_counts_agree(self, p, m, expected):
        report = dimension_check(Window(p, 0, m))
        assert report == {"expected": expected, "basis_count": expected,
                          "irreducible_count": expected}

    def test_shifted_window(self):
        report = dimension_check(Window(2, 1, 2))
        assert report["expected"] == 8
        assert report["irreducible_count"] == 8


class TestBigSystem:
    def test_silent_commutation_instance(self):
        system = big_rewrite_system(QQ, 5)
        f = parse_poly("eab(2)*ea(3)", QQ)
        assert system.normal_form(f) == parse_poly("ea(3)*eab(2)", QQ)

    def test_alternating_rule_base_instance(self):
        system = big_rewrite_system(QQ, 2)
        f = parse_poly("eb(1)*ea(1)", QQ)
        assert system.normal_form(f) == parse_poly("ea(1)*eb(1) - eab(1)", QQ)

    def test_truncated_merge_to_zero(self):
        system = big_rewrite_system(F2, 1, truncated=True)
        assert system.normal_form(parse_poly("ea(1)*ea(1)", F2)).is_zero

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
    def test_truncated_complete_with_correct_dimension(self, p, m):
        bound = p**m - 1
        system = big_rewrite_system(FieldSpec(p), bound, truncated=True)
        assert system.is_complete().complete
        assert len(system.irreducible_words(4 * bound)) == p**(3 * m)

    @pytest.mark.parametrize("p,bound,truncates", [
        (2, 3, True), (3, 8, True), (0, 4, False), (3, 5, False)])
    def test_rule_count(self, p, bound, truncates):
        # every (k, l) in 1..bound gives two silent commutations and one
        # straightening rule, plus three merges when k + l <= bound or the
        # system is truncated; no two of these share a left-hand side
        field = FieldSpec(p)
        inside = sum(1 for k in range(1, bound + 1)
                     for l in range(1, bound + 1) if k + l <= bound)
        system = big_rewrite_system(field, bound)
        assert len(system.rules) == 3 * inside + 3 * bound**2
        if truncates:
            system = big_rewrite_system(field, bound, truncated=True)
            assert len(system.rules) == 6 * bound**2

    def test_truncation_needs_prime_power_bound(self):
        with pytest.raises(ValueError):
            big_rewrite_system(F2, 2, truncated=True)
        with pytest.raises(ValueError):
            big_rewrite_system(QQ, 3, truncated=True)


# ---------------------------------------------------------------------------
# oracle invariants
# ---------------------------------------------------------------------------

MONOS = st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))


@settings(max_examples=120, deadline=None)
@given(u=MONOS, v=MONOS, w=MONOS, data=st.data())
def test_associativity(u, v, w, data):
    field = data.draw(st.sampled_from([QQ, F2, F3, F5]))
    x = mono(*u, field)
    y = mono(*v, field)
    z = mono(*w, field)
    assert (x * y) * z == x * (y * z)


@settings(max_examples=80, deadline=None)
@given(u=MONOS, v=MONOS, p=st.sampled_from([2, 3, 5]))
def test_integral_structure_constants_reduce_mod_p(u, v, p):
    field = FieldSpec(p)
    over_q = mono(*u, QQ) * mono(*v, QQ)
    over_p = mono(*u, field) * mono(*v, field)
    reduced = {m: int(c) % p for m, c in over_q.items() if int(c) % p}
    assert all(c.denominator == 1 for _, c in over_q.items())
    assert reduced == dict(over_p.items())


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_wilson_step(p):
    assert math.factorial(p - 1) % p == p - 1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_normal_form_preserves_oracle_value(p, m):
    system = system_for(p, m)
    field = FieldSpec(p)
    rng = random.Random(p * 100 + m)
    letters = list(system.alphabet)
    for _ in range(60):
        w = word(*[rng.choice(letters)
                   for _ in range(rng.randrange(0, 7))])
        if w.degree.norm > 3 * p * p:
            continue
        f = Polynomial.monomial(w, field)
        assert evaluate_poly(system.normal_form(f)) == evaluate_word(w, field)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_irreducible_words_have_independent_images(p, m):
    # the oracle images of the irreducible words, degree by degree, are
    # linearly independent; together with the count this pins the dimension
    system = system_for(p, m)
    field = FieldSpec(p)
    bound = sum(4 * (p - 1) * p**k for k in range(m))
    by_degree = {}
    for w in system.irreducible_words(bound):
        by_degree.setdefault(w.degree, []).append(w)
    from u3plus.anick import sparse_rank
    for degree, words in by_degree.items():
        images = [evaluate_word(w, field) for w in words]
        basis = sorted({m_ for img in images for m_ in img.terms},
                       key=lambda m_: m_.to_json())
        rows = [[(j, img.terms[m_]) for j, img in enumerate(images)
                 if m_ in img.terms] for m_ in basis]
        assert sparse_rank(rows, field) == len(words), degree


# ---------------------------------------------------------------------------
# the evaluation homomorphism against a reference product
# ---------------------------------------------------------------------------

EVAL_ALPHABETS = {
    "window p=2": Window(2, 0, 2).alphabet(),
    "window p=3": Window(3, 0, 2).alphabet(),
    "divided": divided_alphabet(3),
}


def letter_monomial(g):
    """Written out again here, so the reference shares no code with the
    evaluation under test."""
    if g.kind == "a":
        return DividedMonomial(g.degree.alpha, 0, 0)
    if g.kind == "b":
        return DividedMonomial(0, 0, g.degree.beta)
    return {"ea": DividedMonomial(g.index, 0, 0),
            "eab": DividedMonomial(0, g.index, 0),
            "eb": DividedMonomial(0, 0, g.index)}[g.kind]


def reference_value(f):
    """Left-to-right product of basis factors with KostantElement.__mul__."""
    total = KostantElement.zero(f.field)
    for w, c in f.items():
        value = KostantElement.one(f.field)
        for g in w:
            value = value * KostantElement.basis(letter_monomial(g), f.field)
        total = total + value.scale(c)
    return total


@st.composite
def shared_prefix_polys(draw):
    """A polynomial whose words share prefixes, with pairs of terms that
    cancel in the algebra (two commuting letters swapped, opposite
    coefficients), so its value depends on the cancellation being exact."""
    alphabet = EVAL_ALPHABETS[draw(st.sampled_from(sorted(EVAL_ALPHABETS)))]
    field = draw(st.sampled_from([F2, F3, QQ]))
    letters = st.lists(st.sampled_from(alphabet), max_size=4)
    stems = draw(st.lists(letters, min_size=1, max_size=3))
    alpha_side = [g for g in alphabet if letter_monomial(g).k_alphabeta
                  == letter_monomial(g).k_beta == 0]
    terms = {}
    for _ in range(draw(st.integers(1, 8))):
        stem = draw(st.sampled_from(stems))
        tail = draw(letters)
        c = draw(st.integers(-3, 3))
        if draw(st.booleans()):
            x, y = draw(st.sampled_from(alpha_side)), \
                draw(st.sampled_from(alpha_side))
            terms[Word.of(stem + [x, y] + tail)] = c
            terms[Word.of(stem + [y, x] + tail)] = -c
        else:
            terms[Word.of(stem + tail)] = c
    return Polynomial(terms, field)


@settings(max_examples=150, deadline=None)
@given(f=shared_prefix_polys())
def test_evaluation_matches_reference_product(f):
    assert evaluate_poly(f) == reference_value(f)
    for w, _ in f.items():
        assert evaluate_word(w, f.field) == \
            reference_value(Polynomial.monomial(w, f.field))


@pytest.mark.parametrize("field", [F2, F3, QQ])
def test_evaluation_of_empty_word_and_zero(field):
    assert evaluate_word(word(), field) == KostantElement.one(field)
    assert evaluate_poly(Polynomial.monomial(word(), field)) == \
        KostantElement.one(field)
    assert evaluate_poly(Polynomial.zero(field)).is_zero


@pytest.mark.parametrize("p", [2, 3])
def test_evaluation_past_a_zero_prefix(p):
    # a0^p vanishes, so every word through it evaluates to 0; words that
    # avoid it still count
    field = FieldSpec(p)
    a, b = gen_a(0, p), gen_b(0, p)
    dead = [a] * p + [b]
    f = Polynomial({word(*dead): 1, word(*dead, a): 1, word(*[a] * (p - 1)): 1,
                    word(*dead, b, b): 1, word(b, a): 1}, field)
    assert evaluate_word(word(*dead), field).is_zero
    assert evaluate_poly(f) == reference_value(f)
    assert not evaluate_poly(f).is_zero
