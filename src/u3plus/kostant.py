"""Divided-power arithmetic for the integral enveloping algebra of strictly
upper-triangular 3x3 matrices, and the Groebner bases built on it.

The algebra has the PBW basis ea(i)*eab(j)*eb(k) (divided powers of the three
root vectors).  Products are straightened with the closed rules

    ea(k) ea(l)   = C(k+l, k) ea(k+l)            (same for eab, eb)
    eab(k) ea(l)  = ea(l) eab(k)
    eb(k) eab(l)  = eab(l) eb(k)
    eb(k) ea(l)   = sum_{j=0}^{min(k,l)} (-1)^j ea(l-j) eab(j) eb(k-j)

whose structure constants are integers, so the arithmetic specializes from
characteristic 0 to every prime p; binomials mod p go through Lucas' theorem.
This module is the ground truth ("oracle") that every rewriting rule in the
package is checked against.

Small generators: a_k = ea(p^k), b_k = eb(p^k).  For a window of indices
j <= k <= m-1 the function :func:`small_groebner_basis` builds the reduced
basis of the kernel of the evaluation map onto the subalgebra they generate;
every rule polynomial is oracle-verified at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .free_algebra import (
    Coefficient,
    Degree,
    FieldSpec,
    FreeAlgebraError,
    Generator,
    LinearCombination,
    OrderSpec,
    Polynomial,
    Word,
    _add_scaled,
    divided_alphabet,
    divided_generator,
    gen_a,
    gen_b,
    is_prime,
    small_window_alphabet,
)
from .rewriting import RewriteRule, RewriteSystem, rule_from_poly


class OracleError(FreeAlgebraError):
    """A rule polynomial failed ground-truth verification."""


def lucas_binomial(k: int, l: int, p: int) -> int:
    """C(k+l, k) mod p, computed digit by digit in base p.

    Zero exactly when adding k and l in base p carries.
    """
    if k < 0 or l < 0:
        return 0
    n = k + l
    r = 1
    while n or k:
        r = r * math.comb(n % p, k % p) % p
        if r == 0:
            return 0
        n //= p
        k //= p
    return r


def _binomial(k: int, l: int, field: FieldSpec) -> Coefficient:
    """C(k+l, k) in the field."""
    if field.characteristic:
        return lucas_binomial(k, l, field.characteristic)
    return field.coerce(math.comb(k + l, k))


@dataclass(frozen=True)
class DividedMonomial:
    """PBW basis element ea(k_alpha) * eab(k_alphabeta) * eb(k_beta)."""

    k_alpha: int
    k_alphabeta: int
    k_beta: int

    @property
    def degree(self) -> Degree:
        return Degree(self.k_alpha + self.k_alphabeta,
                      self.k_alphabeta + self.k_beta)

    def as_word(self) -> Word:
        letters = []
        if self.k_alpha:
            letters.append(divided_generator("ea", self.k_alpha))
        if self.k_alphabeta:
            letters.append(divided_generator("eab", self.k_alphabeta))
        if self.k_beta:
            letters.append(divided_generator("eb", self.k_beta))
        return Word.of(letters)

    def to_json(self) -> list[int]:
        return [self.k_alpha, self.k_alphabeta, self.k_beta]

    def __str__(self) -> str:
        w = self.as_word()
        return str(w)


UNIT_MONOMIAL = DividedMonomial(0, 0, 0)


def _mul_basis(u: DividedMonomial, v: DividedMonomial,
               field: FieldSpec) -> dict[DividedMonomial, Coefficient]:
    """Straighten the product of two basis monomials.

    One pass suffices: commute eb past ea with the alternating sum, move the
    two silent commutations, then merge equal kinds with binomials.
    """
    out: dict[DividedMonomial, Coefficient] = {}
    for j in range(min(u.k_beta, v.k_alpha) + 1):
        c = _binomial(u.k_alpha, v.k_alpha - j, field)
        if not c:
            continue
        c = field.mul(c, _binomial(u.k_alphabeta, j, field))
        if not c:
            continue
        c = field.mul(c, _binomial(u.k_alphabeta + j, v.k_alphabeta, field))
        if not c:
            continue
        c = field.mul(c, _binomial(u.k_beta - j, v.k_beta, field))
        if not c:
            continue
        if j % 2:
            c = field.neg(c)
        # the eab power grows with j, so no two terms share a monomial
        out[DividedMonomial(u.k_alpha + v.k_alpha - j,
                            u.k_alphabeta + j + v.k_alphabeta,
                            u.k_beta - j + v.k_beta)] = c
    return out


class KostantElement(LinearCombination):
    """Finitely supported combination of PBW basis monomials."""

    __slots__ = ()

    @classmethod
    def one(cls, field: FieldSpec) -> "KostantElement":
        return cls({UNIT_MONOMIAL: 1}, field)

    @classmethod
    def basis(cls, mono: DividedMonomial, field: FieldSpec,
              coeff=1) -> "KostantElement":
        return cls({mono: coeff}, field)

    def __mul__(self, other: "KostantElement") -> "KostantElement":
        self._check(other)
        field = self.field
        p = field.characteristic
        out: dict[DividedMonomial, Coefficient] = {}
        for mu, cu in self.terms.items():
            for mv, cv in other.terms.items():
                _add_scaled(out, _mul_basis(mu, mv, field), field.mul(cu, cv),
                            p)
        return KostantElement(out, field, _clean=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms,
                           key=lambda m: (m.degree.norm, m.to_json())):
            c = self.terms[mono]
            parts.append(f"{c}*{mono}" if mono != UNIT_MONOMIAL else f"{c}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"KostantElement({self})"


def divided_element(kind: str, k: int, field: FieldSpec) -> KostantElement:
    mono = {"ea": DividedMonomial(k, 0, 0),
            "eab": DividedMonomial(0, k, 0),
            "eb": DividedMonomial(0, 0, k)}[kind]
    return KostantElement.basis(mono, field)


def small_generator(kind: str, k: int, p: int,
                    field: Optional[FieldSpec] = None) -> KostantElement:
    """a_k = ea(p^k) or b_k = eb(p^k)."""
    if field is None:
        field = FieldSpec(p)
    if kind == "a":
        return divided_element("ea", p**k, field)
    if kind == "b":
        return divided_element("eb", p**k, field)
    raise ValueError(f"small generator kind must be 'a' or 'b', got {kind!r}")


def _letter_monomial(g: Generator) -> DividedMonomial:
    """The basis monomial a letter evaluates to.

    a_k and b_k carry their divided power in their weight, so no prime is
    needed: a letter of weight (n, 0) maps to ea(n), one of weight (0, n) to
    eb(n), and divided letters map to their own basis monomials.
    """
    if g.kind == "a":
        return DividedMonomial(g.degree.alpha, 0, 0)
    if g.kind == "b":
        return DividedMonomial(0, 0, g.degree.beta)
    if g.kind == "ea":
        return DividedMonomial(g.index, 0, 0)
    if g.kind == "eab":
        return DividedMonomial(0, g.index, 0)
    return DividedMonomial(0, 0, g.index)


def evaluate_word(w: Word, field: FieldSpec) -> KostantElement:
    """The evaluation homomorphism on monomials: the product, in the word's
    order, of the letters' basis monomials (see :func:`_letter_monomial`)."""
    factors = [KostantElement.basis(_letter_monomial(g), field) for g in w]
    if not factors:
        return KostantElement.one(field)
    # start from the first factor, not from 1: rule words have two or three
    # letters, and one more product per word would add a third to a half
    return math.prod(factors[1:], start=factors[0])


def evaluate_poly(f: Polynomial) -> KostantElement:
    """Linear extension of :func:`evaluate_word`: the sum of c * (value of
    w) over the terms c*w of f."""
    field = f.field
    out: dict[DividedMonomial, Coefficient] = {}
    for w, c in f.items():
        _add_scaled(out, evaluate_word(w, field).terms, c,
                    field.characteristic)
    return KostantElement(out, field, _clean=True)


# --------------------------------------------------------------------------
# windows and the small basis
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """Generator indices j <= k <= m-1 at a prime p."""

    p: int
    j: int
    m: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not 0 <= self.j < self.m:
            raise ValueError(f"need 0 <= j < m, got j={self.j}, m={self.m}")

    @property
    def field(self) -> FieldSpec:
        return FieldSpec(self.p)

    @property
    def indices(self) -> range:
        return range(self.j, self.m)

    def alphabet(self) -> tuple[Generator, ...]:
        return small_window_alphabet(self.p, self.j, self.m)

    def order(self) -> OrderSpec:
        return OrderSpec.deglex(self.alphabet())

    def a(self, k: int) -> Generator:
        return gen_a(k, self.p)

    def b(self, k: int) -> Generator:
        return gen_b(k, self.p)

    def extended(self, extra: int = 1) -> "Window":
        return Window(self.p, self.j, self.m + extra)

    def __str__(self) -> str:
        return f"Window(p={self.p}, indices {self.j}..{self.m - 1})"


def _small_relation_polys(win: Window) -> list[tuple[str, dict, Polynomial]]:
    """The defining relations of the window subalgebra, with names."""
    p = win.p
    field = win.field

    def mono(letters, coeff=1) -> Polynomial:
        return Polynomial.monomial(Word.of(letters), field, coeff)

    a = win.a
    b = win.b
    out: list[tuple[str, dict, Polynomial]] = []
    for k in win.indices:
        out.append((f"a{k}^p", {"k": k},
                    mono([a(k)] * p)))
        out.append((f"b{k}^p", {"k": k},
                    mono([b(k)] * p)))
        braid = [b(k), a(k)] * p
        braid_rev = [a(k), b(k)] * p
        out.append((f"(b{k}*a{k})^p-(a{k}*b{k})^p", {"k": k},
                    mono(braid) - mono(braid_rev)))
        if p >= 3:
            out.append((f"b{k}^2*a{k}-2*b{k}*a{k}*b{k}+a{k}*b{k}^2", {"k": k},
                        mono([b(k), b(k), a(k)])
                        - mono([b(k), a(k), b(k)], 2)
                        + mono([a(k), b(k), b(k)])))
            out.append((f"b{k}*a{k}^2-2*a{k}*b{k}*a{k}+a{k}^2*b{k}", {"k": k},
                        mono([b(k), a(k), a(k)])
                        - mono([a(k), b(k), a(k)], 2)
                        + mono([a(k), a(k), b(k)])))
    for k in win.indices:
        for l in win.indices:
            if l <= k:
                continue
            sign = -1 if (l - k) % 2 else 1
            # a_l b_k - b_k a_l + sign * a_k^{p-1} b_k a_k a_{k+1}^{p-1} ...
            tail = [a(k)] * (p - 1) + [b(k), a(k)]
            for s in range(k + 1, l):
                tail += [a(s)] * (p - 1)
            out.append((f"skew_ab(l={l},k={k})", {"k": k, "l": l},
                        mono([a(l), b(k)]) - mono([b(k), a(l)])
                        + mono(tail, sign)))
            # b_l a_k - a_k b_l - sign * b_k a_k b_k^{p-1} b_{k+1}^{p-1} ...
            tail = [b(k), a(k)] + [b(k)] * (p - 1)
            for s in range(k + 1, l):
                tail += [b(s)] * (p - 1)
            out.append((f"skew_ba(l={l},k={k})", {"k": k, "l": l},
                        mono([b(l), a(k)]) - mono([a(k), b(l)])
                        - mono(tail, sign)))
            # the like-named generators commute
            out.append((f"a{l}*a{k}-a{k}*a{l}", {"k": k, "l": l},
                        mono([a(l), a(k)]) - mono([a(k), a(l)])))
            out.append((f"b{l}*b{k}-b{k}*b{l}", {"k": k, "l": l},
                        mono([b(l), b(k)]) - mono([b(k), b(l)])))
    return out


def small_groebner_basis(win: Window) -> RewriteSystem:
    """The reduced basis of the window presentation, oracle-verified.

    Every relation polynomial is evaluated into the divided-power algebra and
    must vanish there; a nonzero value aborts construction.
    """
    order = win.order()
    rules: list[RewriteRule] = []
    for name, _indices, poly in _small_relation_polys(win):
        value = evaluate_poly(poly)
        if not value.is_zero:
            raise OracleError(
                f"relation {name} does not hold in the algebra: {value}")
        rules.append(rule_from_poly(poly, order))
    rules.sort(key=lambda r: order.key(r.lhs))
    return RewriteSystem(rules, order, win.field, win.alphabet())


# --------------------------------------------------------------------------
# the big system on the divided alphabet
# --------------------------------------------------------------------------


def big_rewrite_system(field: FieldSpec, bound: int,
                       truncated: bool = False) -> RewriteSystem:
    """Straightening rules on divided generators of index <= bound.

    Same-kind merge rules with k+l > bound close up only in the truncated
    variant, which requires characteristic p and bound = p^m - 1 so that the
    binomial vanishes mod p; then the merge rewrites to 0.  Untruncated, the
    merge rules are instantiated for k+l <= bound only (a window of the full
    system, adequate for words whose merges stay inside the bound).

    Each rule is verified against the divided-power arithmetic at
    construction.
    """
    if truncated:
        p = field.characteristic
        if not p:
            raise ValueError("truncated system needs positive characteristic")
        q = p
        while q - 1 < bound:
            q *= p
        if q - 1 != bound:
            raise ValueError(
                f"truncated bound must be p^m - 1, got {bound} for p={p}")
    order = OrderSpec.big_ll()
    rules: list[RewriteRule] = []

    def ea(k):
        return divided_generator("ea", k)

    def eab(k):
        return divided_generator("eab", k)

    def eb(k):
        return divided_generator("eb", k)

    def mono(letters, coeff=1) -> Polynomial:
        return Polynomial.monomial(Word.of(letters), field, coeff)

    for k in range(1, bound + 1):
        for l in range(1, bound + 1):
            # same-kind merges
            if k + l <= bound:
                c = _binomial(k, l, field)
                for make in (ea, eab, eb):
                    lhs = mono([make(k), make(l)])
                    rhs = mono([make(k + l)], c) if c else \
                        Polynomial.zero(field)
                    rules.append(rule_from_poly(lhs - rhs, order))
            elif truncated:
                if _binomial(k, l, field):
                    raise OracleError(
                        f"binomial C({k + l},{k}) nonzero mod "
                        f"{field.characteristic}; bound is not p^m - 1")
                for make in (ea, eab, eb):
                    rules.append(rule_from_poly(mono([make(k), make(l)]),
                                                order))
            # silent commutations
            rules.append(rule_from_poly(
                mono([eab(k), ea(l)]) - mono([ea(l), eab(k)]), order))
            rules.append(rule_from_poly(
                mono([eb(k), eab(l)]) - mono([eab(l), eb(k)]), order))
            # the alternating straightening rule
            rhs = Polynomial.zero(field)
            for j in range(min(k, l) + 1):
                letters = []
                if l - j:
                    letters.append(ea(l - j))
                if j:
                    letters.append(eab(j))
                if k - j:
                    letters.append(eb(k - j))
                rhs = rhs + mono(letters, -1 if j % 2 else 1)
            rules.append(rule_from_poly(mono([eb(k), ea(l)]) - rhs, order))

    for rule in rules:
        lhs_val = evaluate_word(rule.lhs, field)
        rhs_val = evaluate_poly(rule.rhs)
        if lhs_val != rhs_val:
            raise OracleError(f"big rule {rule} disagrees with the oracle")
    rules.sort(key=lambda r: order.key(r.lhs))
    return RewriteSystem(rules, order, field, divided_alphabet(bound))


# --------------------------------------------------------------------------
# relation suite, generation witnesses, dimension count
# --------------------------------------------------------------------------


@dataclass
class RelationCheck:
    name: str
    indices: dict
    ok: bool
    residual: Optional[KostantElement] = None

    def to_json(self) -> dict:
        out = {"relation": self.name, "indices": self.indices,
               "status": "pass" if self.ok else "fail"}
        if self.residual is not None:
            out["residual"] = [
                [str(c), mono.to_json()]
                for mono, c in sorted(self.residual.items(),
                                      key=lambda kv: kv[0].to_json())]
        return out


def _generated(kind: str, n: int, win: Window, memo: dict) -> KostantElement:
    """e_kind(n) built from the evaluated small generators by ring operations.

    a_s and b_s give ea(p^s) and eb(p^s), and eab(p^s) unwinds the
    alternating straightening rule (:func:`_eab_prime_power`).  Any other
    power is the product over its base-p digits d*p^s of e_kind(p^s)^d / d!.
    Every value lies in the subalgebra the small generators generate, so its
    equality with e_kind(n) is the executable witness that they generate the
    window.  ``memo`` holds the values of one suite call.
    """
    key = (kind, n)
    if key in memo:
        return memo[key]
    p = win.p
    field = win.field
    digits = []
    q, s = n, 0
    while q:
        q, d = divmod(q, p)
        if d:
            digits.append((s, d))
        s += 1
    if len(digits) == 1 and digits[0][1] == 1:  # n = p^s
        s = digits[0][0]
        if kind == "eab":
            value = _eab_prime_power(s, win, memo)
        else:
            value = small_generator("a" if kind == "ea" else "b", s, p, field)
    else:
        value = KostantElement.one(field)
        for s, d in digits:
            base = _generated(kind, p**s, win, memo)
            power = KostantElement.one(field)
            for _ in range(d):
                power = power * base
            value = value * power.scale(field.invert(math.factorial(d)))
    memo[key] = value
    return value


def _eab_prime_power(s: int, win: Window, memo: dict) -> KostantElement:
    """eab(p^s) = (-1)^{p^s} (b_s a_s - sum_{j<p^s} (-1)^j ea(p^s-j) eab(j)
    eb(p^s-j)), the straightening rule for eb(p^s) ea(p^s) solved for its
    last term."""
    field = win.field
    q = win.p**s
    acc = (small_generator("b", s, win.p, field)
           * small_generator("a", s, win.p, field))
    for j in range(q):
        part = (_generated("ea", q - j, win, memo)
                * _generated("eab", j, win, memo)
                * _generated("eb", q - j, win, memo))
        acc = acc - part.scale(-1 if j % 2 else 1)
    return acc.scale(-1 if q % 2 else 1)


def relation_suite(win: Window) -> list[RelationCheck]:
    """Check every defining relation against the divided-power arithmetic,
    and, for a window starting at 0, that the small generators generate
    every e_kind(n) with 1 <= n <= p^m - 1.  Failures are reported, not
    raised."""
    checks: list[RelationCheck] = []
    for name, indices, poly in _small_relation_polys(win):
        value = evaluate_poly(poly)
        checks.append(RelationCheck(name, indices, value.is_zero,
                                    None if value.is_zero else value))
    if win.j == 0:
        memo: dict = {}
        field = win.field
        for kind in ("ea", "eab", "eb"):
            for n in range(1, win.p**win.m):
                residual = (_generated(kind, n, win, memo)
                            - divided_element(kind, n, field))
                checks.append(RelationCheck(
                    f"generates:{kind}({n})", {"n": n}, residual.is_zero,
                    None if residual.is_zero else residual))
    return checks


def dimension_check(win: Window) -> dict:
    """Irreducible-word count against the closed dimension formula."""
    expected = win.p**(3 * (win.m - win.j))
    bound = sum(4 * (win.p - 1) * win.p**k for k in win.indices)
    system = small_groebner_basis(win)
    words = system.irreducible_words(bound)
    # PBW monomials ea(ka) eab(kab) eb(kb) with every exponent a multiple
    # of p^j up to p^m - 1
    q = win.p**win.j
    top = win.p**win.m - 1
    return {
        "expected": expected,
        "basis_count": (top // q + 1) ** 3,
        "irreducible_count": len(words),
    }
