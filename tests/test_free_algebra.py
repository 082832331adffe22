import pytest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from u3plus import (
    Degree,
    EMPTY_WORD,
    FieldSpec,
    OrderSpec,
    ParseError,
    Polynomial,
    QQ,
    Word,
    divided_alphabet,
    divided_generator,
    format_poly,
    gen_a,
    gen_b,
    parse_poly,
    small_window_alphabet,
    word,
)
from u3plus.free_algebra import (
    _INTERN,
    CoefficientError,
    EmptyPolynomialError,
    OrderDomainError,
)

F2 = FieldSpec(2)
F3 = FieldSpec(3)

A0, B0 = gen_a(0, 2), gen_b(0, 2)
A1, B1 = gen_a(1, 2), gen_b(1, 2)
DEGLEX2 = OrderSpec.deglex(small_window_alphabet(2, 0, 2))
BIG = OrderSpec.big_ll()


def ea(k):
    return divided_generator("ea", k)


def eab(k):
    return divided_generator("eab", k)


def eb(k):
    return divided_generator("eb", k)


class TestDegreesAndGenerators:
    def test_degree_addition(self):
        assert Degree(1, 2) + Degree(3, 4) == Degree(4, 6)
        assert Degree(2, 3).norm == 5

    def test_generator_degrees(self):
        assert gen_a(2, 3).degree == Degree(9, 0)
        assert gen_b(1, 5).degree == Degree(0, 5)
        assert ea(4).degree == Degree(4, 0)
        assert eab(3).degree == Degree(3, 3)
        assert eb(2).degree == Degree(0, 2)

    def test_interning(self):
        assert gen_a(1, 2) is gen_a(1, 2)
        assert gen_a(1, 2) is not gen_a(1, 3)

    def test_word_degree_is_letter_sum(self):
        w = word(A1, B0, A0)
        assert w.degree == Degree(3, 1)
        assert EMPTY_WORD.degree == Degree(0, 0)

    def test_invalid_generators(self):
        with pytest.raises(ValueError):
            gen_a(0, 4)
        with pytest.raises(ValueError):
            divided_generator("ea", 0)


class TestCompareWords:
    def test_empty_word_is_least(self):
        assert DEGLEX2.compare(EMPTY_WORD, word(A0)) == -1

    def test_skew_leading_monomial_orientation(self):
        # equal weight, first letters decide: a1 outranks b0
        assert DEGLEX2.compare(word(A1, B0), word(B0, A1)) == 1

    def test_big_order_straightening_orientation(self):
        u = word(eb(2), ea(1))
        v = word(ea(1), eab(1), eb(1))
        # equal expansion length 3; expansion-wise eb eb ea > ea eab eb
        assert BIG.compare(u, v) == 1

    def test_small_generators_rejected_by_big_order(self):
        with pytest.raises(OrderDomainError):
            BIG.key(word(A0))

    def test_unknown_generator_rejected_by_deglex(self):
        with pytest.raises(OrderDomainError):
            DEGLEX2.key(word(gen_a(5, 2)))


class TestPolynomialBasics:
    def test_leading_term_char0(self):
        f = parse_poly("a0*b0 - b0*a0", QQ, prime=2)
        lm, lc = f.leading_term(DEGLEX2)
        assert lm == word(B0, A0)
        assert lc == Fraction(-1)

    def test_leading_term_single(self):
        f = Polynomial.monomial(word(A0, B1), F2)
        assert f.leading_term(DEGLEX2) == (word(A0, B1), 1)

    def test_leading_term_of_zero(self):
        with pytest.raises(EmptyPolynomialError):
            Polynomial.zero(F2).leading_term(DEGLEX2)

    def test_additive_inverse(self):
        f = parse_poly("a0*b0 + 3*b0", QQ, prime=2)
        assert (f + f.scale(-1)).is_zero

    def test_multiply_free_concatenates(self):
        f = Polynomial.monomial(word(A0), F2)
        g = Polynomial.monomial(word(B0), F2)
        assert set((f * g).terms) == {word(A0, B0)}

    def test_multiply_distributes_mod2(self):
        f = parse_poly("a0 + b0", F2)
        g = parse_poly("a0", F2)
        assert f * g == parse_poly("a0*a0 + b0*a0", F2)

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            parse_poly("a0", F2) + parse_poly("a0", F3, prime=2)


class TestGrammar:
    def test_two_term_difference(self):
        f = parse_poly("a1*b0 - b0*a1", F2)
        assert len(f) == 2
        assert f.coefficient(word(A1, B0)) == 1

    def test_coefficient_reduces_mod2(self):
        assert parse_poly("2*ea(3)", F2).is_zero

    def test_divided_word(self):
        f = parse_poly("eb(1)*ea(1)", F2)
        assert set(f.terms) == {word(eb(1), ea(1))}

    def test_constants_and_signs(self):
        f = parse_poly("3 - a0", F3)
        assert f.coefficient(EMPTY_WORD) == 0
        assert f.coefficient(word(A0)) == 2

    def test_rational_coefficients_round_trip(self):
        f = parse_poly("3/2*a0 - b0", QQ, prime=2)
        assert parse_poly(format_poly(f), QQ, prime=2) == f

    def test_format_round_trip_modular(self):
        order3 = OrderSpec.deglex(small_window_alphabet(3, 0, 2))
        f = parse_poly("a1*b0 - b0*a1 + a0*b0*a0", F3, prime=3)
        assert parse_poly(format_poly(f, order3), F3, prime=3) == f

    def test_zero_formats_as_zero(self):
        assert format_poly(Polynomial.zero(F2)) == "0"

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("a0 + * b0", F2)
        assert "position" in str(err.value)

    def test_small_generator_needs_prime(self):
        with pytest.raises(ParseError):
            parse_poly("a0", QQ)

    @pytest.mark.parametrize("field", [QQ, F3])
    def test_zero_denominator(self, field):
        with pytest.raises(ParseError) as err:
            parse_poly("1/0*ea(1)", field)
        assert "zero denominator" in str(err.value)

    # one row per ParseError branch: text, field, message, position
    @pytest.mark.parametrize("text,field,message,position", [
        ("", F2, "empty input", 0),
        ("  \t ", F2, "empty input", 0),
        ("a0 + $x", F2, "unexpected input '$x'", 4),
        ("a0 * e(1) + b0", F2, "unexpected input 'e(1) + b'", 4),
        ("ea(1", QQ, "unexpected input 'ea(1'", 0),
        ("a0 +", F2, "unexpected end of input", 3),
        ("-", F2, "unexpected end of input", 0),
        ("2 *", F2, "unexpected end of input", 2),
        ("3/", QQ, "unexpected end of input", 1),
        ("1/a0", F2, "expected denominator", 2),
        ("1/-2", QQ, "expected denominator", 2),
        ("1/0*ea(1)", QQ, "zero denominator", 2),
        ("ea(1) - 5/00", QQ, "zero denominator", 10),
        ("2*3", F2, "expected a generator, got '3'", 2),
        ("a0 + * b0", F2, "expected a generator, got '*'", 5),
        ("a0*+b0", F2, "expected a generator, got '+'", 3),
        ("a0 b0", F3, "expected '+' or '-', got 'b0'", 3),
        ("ea(1) eb(2)", QQ, "expected '+' or '-', got 'eb(2)'", 6),
        ("2/3/4", QQ, "expected '+' or '-', got '/'", 3),
        ("a0 7", F2, "expected '+' or '-', got '7'", 3),
        ("a0", QQ, "generator a0 needs a prime (characteristic 0)", 0),
        ("ea(1)*b01", QQ, "generator b1 needs a prime (characteristic 0)",
         6),
        ("ea(0)", QQ, "divided power must be >= 1", 0),
        ("eab(2) + 3*eb(00)", F2, "divided power must be >= 1", 11),
    ])
    def test_parse_error_message_and_position(self, text, field, message,
                                              position):
        with pytest.raises(ParseError) as err:
            parse_poly(text, field)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_parse_inverts_format(self, data):
        field, prime = data.draw(st.sampled_from(
            [(F2, 2), (F3, 3), (QQ, 2), (QQ, 3)]))
        letters = st.sampled_from(small_window_alphabet(prime, 0, 2)
                                  + divided_alphabet(3))
        coeffs = (st.fractions(-9, 9, max_denominator=8) if field == QQ
                  else st.integers(-9, 9))
        terms = data.draw(st.dictionaries(
            st.lists(letters, max_size=4).map(Word.of), coeffs, max_size=5))
        f = Polynomial(terms, field)
        assert parse_poly(format_poly(f), field, prime=prime) == f

    def test_coefficient_checked_before_the_next_token(self):
        # a term's coefficient is reduced into the field as soon as the
        # term ends, before the token after it is read
        with pytest.raises(CoefficientError):
            parse_poly("1/3 b0", F3)
        with pytest.raises(ParseError):
            parse_poly("1/3 b0", QQ, prime=3)


class TestCoerce:
    @pytest.mark.parametrize("p,value,residue", [
        (3, Fraction(1, 2), 2),
        (5, Fraction(3, 2), 4),
        (5, Fraction(-3, 2), 1),
        (2, Fraction(6, 3), 0),
        (7, -1, 6),
        (7, True, 1),
    ])
    def test_residue(self, p, value, residue):
        assert FieldSpec(p).coerce(value) == residue

    @pytest.mark.parametrize("p,value", [(3, Fraction(1, 3)),
                                         (5, Fraction(2, 25))])
    def test_denominator_divisible_by_p(self, p, value):
        with pytest.raises(CoefficientError):
            FieldSpec(p).coerce(value)

    @settings(max_examples=100, deadline=None)
    @given(p=st.sampled_from((2, 3, 5, 7)),
           num=st.integers(-50, 50), den=st.integers(1, 50))
    def test_fraction_times_denominator_is_numerator(self, p, num, den):
        if den % p == 0:
            return
        x = FieldSpec(p).coerce(Fraction(num, den))
        assert 0 <= x < p
        assert (x * den - num) % p == 0


# ---------------------------------------------------------------------------
# order axioms, property-based
# ---------------------------------------------------------------------------

SMALL_LETTERS = st.sampled_from(small_window_alphabet(2, 0, 2))
SMALL_WORDS = st.lists(SMALL_LETTERS, max_size=6).map(Word.of)
DIVIDED_LETTERS = st.sampled_from(divided_alphabet(3))
DIVIDED_WORDS = st.lists(DIVIDED_LETTERS, max_size=5).map(Word.of)


@pytest.mark.parametrize("order,words", [
    (DEGLEX2, SMALL_WORDS),
    (OrderSpec.deglex(small_window_alphabet(3, 0, 2)),
     st.lists(st.sampled_from(small_window_alphabet(3, 0, 2)),
              max_size=6).map(Word.of)),
    (BIG, DIVIDED_WORDS),
])
class TestOrderAxioms:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_total_and_consistent(self, order, words, data):
        u = data.draw(words)
        v = data.draw(words)
        c = order.compare(u, v)
        assert type(c) is int and c in (-1, 0, 1)
        assert (c == 0) == (u == v)
        assert order.compare(v, u) == -c

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_transitive(self, order, words, data):
        u, v, w = (data.draw(words) for _ in range(3))
        if order.compare(u, v) != 1 and order.compare(v, w) != 1:
            assert order.compare(u, w) != 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_monoidal(self, order, words, data):
        u = data.draw(words)
        v = data.draw(words)
        w = data.draw(words)
        if order.compare(u, v) == -1:
            assert order.compare(u * w, v * w) == -1
            assert order.compare(w * u, w * v) == -1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_empty_word_least(self, order, words, data):
        w = data.draw(words)
        assert order.compare(EMPTY_WORD, w) != 1


STR_LETTERS = (st.sampled_from(small_window_alphabet(2, 0, 3)
                               + small_window_alphabet(3, 0, 3))
               | st.builds(divided_generator,
                           st.sampled_from(("ea", "eab", "eb")),
                           st.integers(1, 200)))


@settings(max_examples=100, deadline=None)
@given(st.lists(STR_LETTERS, max_size=8))
def test_word_str_joins_tokens(letters):
    w = Word.of(letters)
    assert str(w) == ("*".join(w.tokens) if letters else "1")


@settings(max_examples=100, deadline=None)
@given(st.lists(STR_LETTERS, max_size=6), st.lists(STR_LETTERS, max_size=6))
@example([], [])
def test_word_product_degree_matches_recount(left, right):
    u, v = Word.of(left), Word.of(right)
    recounted = Word(u.chars + v.chars)
    assert u * v == recounted
    assert (u * v).degree == recounted.degree


def test_word_str_covers_generators_interned_later():
    k = 97
    while any(key[:2] == ("ea", k) for key in _INTERN):
        k += 1
    g = ea(k)  # interned only now, after Word.__str__ has been used
    assert str(word(g, A0, g)) == f"ea({k})*a0*ea({k})"


def _all_divided_words_bounded(norm_bound, index_bound):
    alphabet = divided_alphabet(index_bound)
    out = [EMPTY_WORD]
    frontier = [EMPTY_WORD]
    while frontier:
        new = []
        for w in frontier:
            for g in alphabet:
                ext = w * Word(g.char)
                if ext.degree.norm <= norm_bound:
                    new.append(ext)
        out.extend(new)
        frontier = new
    return out


def test_big_order_refines_factor_order():
    # exhaustive on divided words of weight <= 6 with powers <= 3
    words = _all_divided_words_bounded(6, 3)
    keys = {w.chars: BIG.key(w) for w in words}
    for u in words:
        for v in words:
            if u.chars != v.chars and u.chars in v.chars:
                assert keys[u.chars] < keys[v.chars], (u, v)


def test_artinian_at_small_weight():
    # on a finite weight-bounded set the key map is a faithful embedding,
    # so there is no infinite descending chain below any of these words
    words = _all_divided_words_bounded(4, 2)
    keys = [BIG.key(w) for w in words]
    assert len(set(keys)) == len(words)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_degree_additive_under_product(data):
    u = data.draw(SMALL_WORDS)
    v = data.draw(SMALL_WORDS)
    f = Polynomial.monomial(u, F2)
    g = Polynomial.monomial(v, F2)
    (w, _coeff), = (f * g).items()
    assert w.degree == u.degree + v.degree
