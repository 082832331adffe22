"""Free-monoid words, monomial orders, and exact-coefficient polynomials.

The generator alphabet has two families:

* "small" generators ``a_k``, ``b_k`` (``k >= 0``), whose weight depends on a
  prime ``p``: ``deg(a_k) = (p^k, 0)`` and ``deg(b_k) = (0, p^k)``;
* divided-power generators ``ea(k)``, ``eab(k)``, ``eb(k)`` (``k >= 1``) with
  weights ``(k, 0)``, ``(k, k)`` and ``(0, k)``.

Weights live in the free commutative monoid on two symbols (``Degree``); the
total weight ``Degree.norm`` grades everything in sight and makes every word
order used here artinian.

Coefficients are exact: residues for characteristic ``p`` and
:class:`fractions.Fraction` in characteristic zero.  No floats anywhere.
Polynomials, and the module and PBW elements of the layers above, are all
:class:`LinearCombination` maps, accumulated by one routine, ``_add_scaled``.

All values are immutable after construction and all operations are pure, so
everything in this module can be shared freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence, Union


class Degree(NamedTuple):
    """Element of the free commutative monoid N*alpha + N*beta."""

    alpha: int
    beta: int

    def __add__(self, other: "Degree") -> "Degree":
        return Degree(self.alpha + other.alpha, self.beta + other.beta)

    @property
    def norm(self) -> int:
        """Total weight: the image under alpha, beta -> 1."""
        return self.alpha + self.beta

    def __str__(self) -> str:
        return f"{self.alpha}a+{self.beta}b"


class FreeAlgebraError(Exception):
    """Base class for errors raised by this package."""


class OrderDomainError(FreeAlgebraError):
    """A word contains a generator the order does not rank."""


class ParseError(FreeAlgebraError):
    """Syntax error in the polynomial grammar, with position info."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EmptyPolynomialError(FreeAlgebraError):
    """Leading-term extraction was attempted on the zero polynomial."""


class CoefficientError(FreeAlgebraError):
    """A rational coefficient has no image in the field F_p."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# --------------------------------------------------------------------------
# generators and interning
# --------------------------------------------------------------------------

_KINDS = ("a", "b", "ea", "eab", "eb")
_DIVIDED_KINDS = ("ea", "eab", "eb")

# Generators are interned: each distinct (kind, index, degree) triple is
# created once and assigned a single unicode character.  Words are stored as
# strings of those characters, which makes factor search, concatenation and
# hashing C-speed operations.
_CHAR_BASE = 0x100
_BY_CHAR: list["Generator"] = []
_INTERN: dict[tuple, "Generator"] = {}
# ord(char) -> token + "*", so Word.__str__ is one str.translate
_STR_TABLE: dict[int, str] = {}


class Generator:
    """One letter of the alphabet.  Use :func:`gen_a`, :func:`gen_b` or
    :func:`divided_generator` to obtain instances; they are interned, so
    identity comparison is sound."""

    __slots__ = ("kind", "index", "degree", "char")

    kind: str
    index: int
    degree: Degree
    char: str

    def __new__(cls, kind: str, index: int, degree: Degree) -> "Generator":
        key = (kind, index, degree)
        hit = _INTERN.get(key)
        if hit is not None:
            return hit
        if kind not in _KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        self = object.__new__(cls)
        self.kind = kind
        self.index = index
        self.degree = degree
        self.char = chr(_CHAR_BASE + len(_BY_CHAR))
        _BY_CHAR.append(self)
        _STR_TABLE[ord(self.char)] = self.token + "*"
        _INTERN[key] = self
        return self

    @property
    def is_divided(self) -> bool:
        return self.kind in _DIVIDED_KINDS

    @property
    def token(self) -> str:
        if self.kind in ("a", "b"):
            return f"{self.kind}{self.index}"
        return f"{self.kind}({self.index})"

    def __repr__(self) -> str:
        return self.token


def gen_a(k: int, p: int) -> Generator:
    """The generator a_k of weight (p^k, 0)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 0:
        raise ValueError("index must be >= 0")
    return Generator("a", k, Degree(p**k, 0))


def gen_b(k: int, p: int) -> Generator:
    """The generator b_k of weight (0, p^k)."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 0:
        raise ValueError("index must be >= 0")
    return Generator("b", k, Degree(0, p**k))


def divided_generator(kind: str, k: int) -> Generator:
    """A divided-power generator ea(k), eab(k) or eb(k), k >= 1."""
    if kind not in _DIVIDED_KINDS:
        raise ValueError(f"not a divided kind: {kind!r}")
    if k < 1:
        raise ValueError("divided power must be >= 1")
    degree = {"ea": Degree(k, 0), "eab": Degree(k, k), "eb": Degree(0, k)}[kind]
    return Generator(kind, k, degree)


def small_window_alphabet(p: int, j: int, m: int) -> tuple[Generator, ...]:
    """Generators a_j < b_j < a_{j+1} < ... < b_{m-1}, in ranking order."""
    if not 0 <= j < m:
        raise ValueError(f"need 0 <= j < m, got j={j}, m={m}")
    out: list[Generator] = []
    for k in range(j, m):
        out.append(gen_a(k, p))
        out.append(gen_b(k, p))
    return tuple(out)


def divided_alphabet(bound: int) -> tuple[Generator, ...]:
    """Divided-power generators with index <= bound, in ranking order
    ea(1) < eab(1) < eb(1) < ea(2) < ..."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    out: list[Generator] = []
    for k in range(1, bound + 1):
        for kind in _DIVIDED_KINDS:
            out.append(divided_generator(kind, k))
    return tuple(out)


# --------------------------------------------------------------------------
# words
# --------------------------------------------------------------------------


class Word:
    """A finite word over the generator alphabet.

    Internally a string of interned generator characters, so concatenation,
    factor search and hashing run at C speed.
    """

    __slots__ = ("chars", "degree")

    chars: str
    degree: Degree

    def __init__(self, chars: str = ""):
        object.__setattr__(self, "chars", chars)
        da = 0
        db = 0
        for c in chars:
            d = _BY_CHAR[ord(c) - _CHAR_BASE].degree
            da += d.alpha
            db += d.beta
        object.__setattr__(self, "degree", Degree(da, db))

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("Word is immutable")

    @classmethod
    def of(cls, letters: Sequence[Generator]) -> "Word":
        return cls("".join(g.char for g in letters))

    def __mul__(self, other: "Word") -> "Word":
        # Degrees add, so the product's letters are not recounted.
        w = object.__new__(Word)
        object.__setattr__(w, "chars", self.chars + other.chars)
        object.__setattr__(w, "degree", self.degree + other.degree)
        return w

    def __len__(self) -> int:
        return len(self.chars)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.chars == other.chars

    def __hash__(self) -> int:
        return hash(self.chars)

    def __iter__(self) -> Iterator[Generator]:
        for c in self.chars:
            yield _BY_CHAR[ord(c) - _CHAR_BASE]

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(g.token for g in self)

    @property
    def is_empty(self) -> bool:
        return not self.chars

    def power(self, n: int) -> "Word":
        return Word(self.chars * n)

    def __str__(self) -> str:
        return self.chars.translate(_STR_TABLE)[:-1] if self.chars else "1"

    def __repr__(self) -> str:
        return f"Word({str(self)})"


EMPTY_WORD = Word("")


def word(*letters: Generator) -> Word:
    """Convenience constructor: word(a0, b0, a0)."""
    return Word.of(letters)


# --------------------------------------------------------------------------
# coefficients
# --------------------------------------------------------------------------

Coefficient = Union[int, Fraction]


@dataclass(frozen=True)
class FieldSpec:
    """Exact coefficient domain: the rationals (characteristic 0) or the
    prime field F_p."""

    characteristic: int

    def __post_init__(self):
        c = self.characteristic
        if c != 0 and not is_prime(c):
            raise ValueError(f"characteristic must be 0 or prime, got {c}")

    def coerce(self, value) -> Coefficient:
        p = self.characteristic
        if p:
            if type(value) is int:
                return value % p
            if isinstance(value, Fraction):
                if value.denominator % p == 0:
                    raise CoefficientError(
                        f"{value} has no residue mod {p}: its denominator "
                        f"is divisible by {p}")
                return value.numerator * pow(value.denominator, -1, p) % p
            return int(value) % p
        if isinstance(value, Fraction):
            return value
        return Fraction(value)

    def mul(self, x: Coefficient, y: Coefficient) -> Coefficient:
        return (x * y) % self.characteristic if self.characteristic else x * y

    def neg(self, x: Coefficient) -> Coefficient:
        return (-x) % self.characteristic if self.characteristic else -x

    def invert(self, x: Coefficient) -> Coefficient:
        if self.characteristic:
            return pow(int(x), -1, self.characteristic)
        if x == 0:
            raise ZeroDivisionError("inverting zero coefficient")
        return Fraction(1) / x

    def __str__(self) -> str:
        return f"F{self.characteristic}" if self.characteristic else "Q"


QQ = FieldSpec(0)


# --------------------------------------------------------------------------
# monomial orders
# --------------------------------------------------------------------------


# the PBW order of the divided kinds
_Y_RANK = {"ea": 0, "eab": 1, "eb": 2}


class OrderSpec:
    """A monoidal, artinian word order.

    Two variants:

    * ``deglex(ranking)``: compare total weight ``Degree.norm`` first, then
      lexicographically by the given generator ranking.
    * ``big_ll()``: for divided-power words.  Expand each letter
      ``e_w^(k) -> e_w^k`` (the map ``phi`` into index-1 words); compare the
      expansions by length, then lexicographically with ea < eab < eb; break
      remaining ties by word length, then lexicographically by the ranking
      ea(1) < eab(1) < eb(1) < ea(2) < ...

    Both orders embed into tuples via :meth:`key`, so word comparison is a
    tuple comparison.  Each refines the factor order and has the empty word
    as least element.
    """

    __slots__ = ("variant", "ranking", "_norm", "_rank_table", "_phi_table",
                 "_phi_len", "_xrank_table")

    def __init__(self, variant: str, ranking: tuple[Generator, ...]):
        self.variant = variant
        self.ranking = ranking
        self._norm: dict[str, int] = {}
        self._rank_table: dict[int, int] = {}
        self._phi_table: dict[int, str] = {}
        self._phi_len: dict[str, int] = {}
        self._xrank_table: dict[int, int] = {}
        if variant == "deglex":
            for rank, g in enumerate(ranking):
                self._norm[g.char] = g.degree.norm
                self._rank_table[ord(g.char)] = _CHAR_BASE + rank

    @classmethod
    def deglex(cls, ranking: Sequence[Generator]) -> "OrderSpec":
        return cls("deglex", tuple(ranking))

    @classmethod
    def big_ll(cls) -> "OrderSpec":
        return cls("big_ll", ())

    def _admit_divided(self, char: str) -> None:
        g = _BY_CHAR[ord(char) - _CHAR_BASE]
        if not g.is_divided:
            raise OrderDomainError(
                f"generator {g.token} is not ranked by this order")
        y = _Y_RANK[g.kind]
        self._phi_table[ord(char)] = chr(_CHAR_BASE + y) * g.index
        self._phi_len[char] = g.index
        self._xrank_table[ord(char)] = _CHAR_BASE + 3 * (g.index - 1) + y

    def key(self, w: Union[Word, str]):
        """A tuple that orders words exactly as this order does."""
        chars = w.chars if isinstance(w, Word) else w
        if self.variant == "deglex":
            norm = self._norm
            try:
                total = 0
                for c in chars:
                    total += norm[c]
            except KeyError:
                g = _BY_CHAR[ord(c) - _CHAR_BASE]
                raise OrderDomainError(
                    f"generator {g.token} is not ranked by this order") from None
            return (total, chars.translate(self._rank_table))
        # big_ll
        phi_len = self._phi_len
        total = 0
        for c in chars:
            if c not in phi_len:
                self._admit_divided(c)
            total += phi_len[c]
        return (total, chars.translate(self._phi_table), len(chars),
                chars.translate(self._xrank_table))

    def compare(self, u: Union[Word, str], v: Union[Word, str]) -> int:
        """-1, 0 or 1 as u is below, equal to or above v."""
        ku = self.key(u)
        kv = self.key(v)
        if ku < kv:
            return -1
        if ku > kv:
            return 1
        return 0

    def __repr__(self) -> str:
        if self.variant == "deglex":
            return f"OrderSpec.deglex({'<'.join(g.token for g in self.ranking)})"
        return "OrderSpec.big_ll()"


# --------------------------------------------------------------------------
# sparse linear combinations
# --------------------------------------------------------------------------


def _add_scaled(acc: dict, terms: dict, coeff, p: int) -> None:
    """acc += coeff * terms for key -> coefficient maps, dropping the keys
    that cancel; p is the characteristic, 0 for the rationals."""
    for w, c in terms.items():
        s = acc.get(w, 0) + coeff * c
        if p:
            s %= p
        if s:
            acc[w] = s
        elif w in acc:
            del acc[w]


class LinearCombination:
    """Finitely supported map key -> nonzero coefficient over a FieldSpec.

    The keys are words (:class:`Polynomial`), basis elements m.t of a free
    module (``anick.ModuleElement``) or PBW monomials
    (``kostant.KostantElement``).  Instances are immutable; every operation
    returns a new element of the same kind.  ``_clean=True`` promises that
    the coefficients are already reduced and nonzero.
    """

    __slots__ = ("terms", "field")

    terms: dict
    field: FieldSpec

    def __init__(self, terms: dict, field: FieldSpec, *, _clean: bool = False):
        if not _clean:
            coerce = field.coerce
            terms = {k: v for k, c in terms.items() if (v := coerce(c))}
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, field: FieldSpec):
        return cls({}, field, _clean=True)

    def _like(self, terms: dict):
        """An element of the same kind over clean terms."""
        return type(self)(terms, self.field, _clean=True)

    def _check(self, other: "LinearCombination") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        if self.field != other.field:
            raise ValueError(
                f"field mismatch: {self.field} vs {other.field}")

    def _plus(self, other: "LinearCombination", sign: int):
        self._check(other)
        out = dict(self.terms)
        _add_scaled(out, other.terms, sign, self.field.characteristic)
        return self._like(out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, coeff):
        out: dict = {}
        _add_scaled(out, self.terms, self.field.coerce(coeff),
                    self.field.characteristic)
        return self._like(out)

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self) and self.field == other.field
                and self.terms == other.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> Coefficient:
        return self.terms.get(key, self.field.coerce(0))

    def items(self):
        return self.terms.items()

    def __len__(self) -> int:
        return len(self.terms)


class Polynomial(LinearCombination):
    """Finitely supported map Word -> nonzero coefficient over a FieldSpec."""

    __slots__ = ()

    # bound in this class's own namespace so that the span tracer of
    # perfbench/spans.py, which wraps vars(Polynomial)["__add__"], finds it
    __add__ = LinearCombination.__add__

    @classmethod
    def monomial(cls, w: Word, field: FieldSpec, coeff=1) -> "Polynomial":
        return cls({w: coeff}, field)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Free product: concatenate words bilinearly."""
        self._check(other)
        p = self.field.characteristic
        out: dict[Word, Coefficient] = {}
        for u, cu in self.terms.items():
            _add_scaled(out, {u * v: cv for v, cv in other.terms.items()},
                        cu, p)
        return Polynomial(out, self.field, _clean=True)

    def leading_term(self, order: OrderSpec) -> tuple[Word, Coefficient]:
        """The order-maximal word of the support, with its coefficient."""
        if not self.terms:
            raise EmptyPolynomialError("zero polynomial has no leading term")
        w = max(self.terms, key=order.key)
        return w, self.terms[w]

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)} over {self.field})"


# --------------------------------------------------------------------------
# text grammar
# --------------------------------------------------------------------------
#
#   poly  := ['-'|'+'] term (('+'|'-') term)*
#   term  := [coeff '*'] word | coeff
#   coeff := int ['/' int]
#   word  := gen ('*' gen)*
#   gen   := 'a' nat | 'b' nat | 'ea(' nat ')' | 'eab(' nat ')' | 'eb(' nat ')'
#
# Whitespace is insignificant.  The '/' extension (rational coefficients) is
# accepted on input so that characteristic-zero output round-trips.

_TOKEN_RE = re.compile(
    r"\s*(?P<token>(?P<divided>eab|ea|eb)\((?P<divided_index>\d+)\)"
    r"|(?P<small>[ab])(?P<small_index>\d+)|(?P<int>\d+)|(?P<op>[-+*/]))")


def parse_poly(text: str, field: FieldSpec,
               prime: Optional[int] = None) -> Polynomial:
    """Parse the expression grammar into a polynomial.

    ``a``/``b`` generators need a prime to fix their weights; it defaults to
    the field characteristic when that is positive.  A :class:`ParseError`
    quotes the token it stops at, with that token's position.
    """
    if prime is None and field.characteristic:
        prime = field.characteristic
    found = []
    pos = 0
    while m := _TOKEN_RE.match(text, pos):
        found.append(m)
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ParseError(f"unexpected input {rest[:8]!r}", pos)
    if not found:
        raise ParseError("empty input", 0)
    end = found[-1].start("token")
    tokens = iter(found)
    tok = next(tokens)
    terms: dict[Word, Coefficient] = {}
    op = "+"  # the operator before the operand tok; '+' and '-' open a term
    if tok["op"] in ("+", "-"):
        op = tok["op"]
        tok = next(tokens, None)
    while True:
        if tok is None:
            raise ParseError("unexpected end of input", end)
        at = tok.start("token")
        opens = op in ("+", "-")
        if opens:
            sign = -1 if op == "-" else 1
            coeff: Coefficient = 1
            letters: list[Generator] = []
        if op == "/":
            if not tok["int"]:
                raise ParseError("expected denominator", at)
            if not int(tok["int"]):
                raise ParseError("zero denominator", at)
            coeff = Fraction(coeff, int(tok["int"]))
        elif opens and tok["int"]:
            coeff = int(tok["int"])
        elif tok["small"]:
            if prime is None:
                raise ParseError(
                    f"generator {tok['small']}{int(tok['small_index'])} "
                    "needs a prime (characteristic 0)", at)
            make = gen_a if tok["small"] == "a" else gen_b
            letters.append(make(int(tok["small_index"]), prime))
        elif tok["divided"]:
            try:
                letters.append(divided_generator(tok["divided"],
                                                 int(tok["divided_index"])))
            except ValueError as exc:
                raise ParseError(str(exc), at) from None
        else:
            raise ParseError(f"expected a generator, got {tok['token']!r}", at)
        tok = next(tokens, None)
        follows = tok["op"] if tok else None
        # '*' joins factors; '/' may follow only the int that opens a term
        if follows != "*" and (follows != "/" or not opens or letters):
            _add_scaled(terms, {Word.of(letters): field.coerce(coeff)}, sign,
                        field.characteristic)
            if tok is None:
                return Polynomial(terms, field, _clean=True)
            if follows not in ("+", "-"):
                raise ParseError(f"expected '+' or '-', got {tok['token']!r}",
                                 tok.start("token"))
        op = follows
        tok = next(tokens, None)


def _format_coeff(c: Coefficient) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def format_poly(f: Polynomial, order: Optional[OrderSpec] = None) -> str:
    """Render a polynomial, terms in descending order.

    Modular coefficients print as balanced residues (2 mod 3 prints as -1),
    which the parser folds back, so parse . format is the identity.  Without
    an explicit order, terms are sorted by weight and interned spelling,
    which is deterministic for any fixed alphabet.
    """
    if f.is_zero:
        return "0"
    if order is not None:
        keyfn = order.key
    else:
        def keyfn(w: Word):
            return (w.degree.norm, w.chars)
    p = f.field.characteristic
    parts: list[str] = []
    for w in sorted(f.terms, key=keyfn, reverse=True):
        c = f.terms[w]
        if p and c > p // 2:
            c = c - p
        negative = c < 0
        mag = -c if negative else c
        if w.is_empty:
            body = _format_coeff(mag)
        elif mag == 1:
            body = str(w)
        else:
            body = f"{_format_coeff(mag)}*{w}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)
