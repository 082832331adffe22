"""Rewriting systems over free associative algebras.

A rule replaces occurrences of its leading monomial by a strictly smaller
polynomial; a system bundles rules with a monoidal artinian order, which
guarantees that exhaustive rewriting terminates.  On top of one-step and full
reduction the module provides overlap enumeration, critical pairs,
completeness and reducedness certificates, subalphabet restriction and
bounded irreducible-word enumeration.  The window bases are written down in
full (``kostant.small_groebner_basis``) and certified complete, so nothing
here completes a system.

Subalphabet restriction keeps the rules whose left-hand side uses only the
given letters and raises ``RestrictionError`` when such a rule's right-hand
side leaves them.  ``minimal.MinimalResolution`` checks at construction that
the basis of its upward-extended window restricts to exactly the requested
window's basis, and raises ``RestrictionError`` otherwise.

Reduction strategy (fixed so golden outputs are deterministic): the normal
form of a word is built by its letters acting, right to left, on the empty
word.  A letter x acts on an irreducible word v by rewriting x.v at position
0 (the only place a redex can start), preferring the rule with the longest
left-hand side, and letting every rhs word act in turn on the rest of v.
The action of each letter on each irreducible word is memoized on the
system, so the memo holds at most |alphabet| x |irreducible words reached|
entries.  For complete systems the result is strategy-independent; for
incomplete ones it is still an irreducible reduct of the input, though not
necessarily the one another strategy would reach.  One-step reduction
(``reduce_once``) rewrites the order-greatest reducible monomial at its
leftmost redex, longest left-hand side first.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .free_algebra import (
    FieldSpec,
    FreeAlgebraError,
    Generator,
    OrderSpec,
    Polynomial,
    Word,
    _add_scaled,
)


class RewriteSystemError(FreeAlgebraError):
    """Invalid rule or system construction."""


class RestrictionError(FreeAlgebraError):
    """A system does not restrict to a subalphabet as required."""


@dataclass(frozen=True)
class RewriteRule:
    """lhs -> rhs with every rhs monomial strictly below lhs."""

    lhs: Word
    rhs: Polynomial

    def as_polynomial(self) -> Polynomial:
        """The defining polynomial lhs - rhs."""
        return Polynomial.monomial(self.lhs, self.rhs.field) - self.rhs

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


def rule_from_poly(p: Polynomial, order: OrderSpec) -> RewriteRule:
    """Orient a nonzero polynomial into the monic rule lm(p) -> lower part."""
    if p.is_zero:
        raise RewriteSystemError("cannot orient the zero polynomial")
    lm, lc = p.leading_term(order)
    rest = Polynomial({w: c for w, c in p.items() if w != lm}, p.field,
                      _clean=True)
    rhs = rest.scale(p.field.neg(p.field.invert(lc)))
    return RewriteRule(lm, rhs)


@dataclass(frozen=True)
class CriticalPair:
    """Two rules meeting on one word.

    ``overlap``:      tip = lhs1 . v = u . lhs2, with a nonempty proper
                      overlap (rule 1 matches at position 0, rule 2 ends the
                      tip);
    ``containment``:  tip = lhs1 = u . lhs2 . v, rule 2's monomial inside
                      rule 1's.
    """

    tip: Word
    rule1: int
    rule2: int
    u: Word
    v: Word
    case: str

    def __str__(self) -> str:
        return f"tip {self.tip} (rules {self.rule1},{self.rule2}, {self.case})"


def spolynomial(system: "RewriteSystem", cp: CriticalPair) -> Polynomial:
    """rhs difference of the two reductions of the tip; 0-reducibility of all
    of these is exactly completeness."""
    r1 = system.rules[cp.rule1]
    r2 = system.rules[cp.rule2]
    fld = system.field
    um = Polynomial.monomial(cp.u, fld)
    vm = Polynomial.monomial(cp.v, fld)
    if cp.case == "overlap":
        return r1.rhs * vm - um * r2.rhs
    return r1.rhs - um * r2.rhs * vm


def find_overlaps(m1: Word, m2: Word) -> list[tuple[Word, Word, Word, str]]:
    """All overlap and containment skeletons of two monomials.

    Returns tuples ``(tip, u, v, case)``:

    * ``overlap``: a nonempty proper suffix of ``m1`` equals a proper prefix
      of ``m2``; ``tip = m1.v = u.m2``;
    * ``containment``: ``m2`` is a proper factor of ``m1``;
      ``tip = m1 = u.m2.v`` (one entry per occurrence).
    """
    out: list[tuple[Word, Word, Word, str]] = []
    s1, s2 = m1.chars, m2.chars
    for ov in range(1, min(len(s1), len(s2))):
        if s1[-ov:] == s2[:ov]:
            out.append((Word(s1 + s2[ov:]), Word(s1[:-ov]), Word(s2[ov:]),
                        "overlap"))
    if len(s2) < len(s1):
        start = 0
        while True:
            pos = s1.find(s2, start)
            if pos < 0:
                break
            out.append((m1, Word(s1[:pos]), Word(s1[pos + len(s2):]),
                        "containment"))
            start = pos + 1
    return out


@dataclass
class CompletenessCertificate:
    complete: bool
    pair_count: int
    failures: list[tuple[Word, Polynomial]]

    def to_json(self) -> dict:
        return {
            "complete": self.complete,
            "pair_count": self.pair_count,
            "failures": [
                {"tip": list(tip.tokens), "residual": str(res)}
                for tip, res in self.failures
            ],
        }


# yields the letter-action keys it needs, receives their values, returns a
# char-string -> coefficient map
_ActionSteps = typing.Generator[str, dict, dict]


class RewriteSystem:
    """A fixed set of rewriting rules with its order and alphabet.

    The rules never change after construction; the normal-form memo (the
    letter action) fills as normal forms are computed, so an instance is not
    safe to share between threads.
    """

    def __init__(self, rules: Sequence[RewriteRule], order: OrderSpec,
                 field: FieldSpec, alphabet: Sequence[Generator]):
        self.order = order
        self.field = field
        self.alphabet = tuple(alphabet)
        self.rules = tuple(rules)
        # lhs chars -> rule index; redexes are found by slicing a word and
        # looking the slice up, longest lhs length first
        self._rule_index: dict[str, int] = {}
        for i, rule in enumerate(self.rules):
            if rule.rhs.field != field:
                raise RewriteSystemError("rule field does not match system")
            if rule.lhs.chars in self._rule_index:
                raise RewriteSystemError(
                    f"duplicate left-hand side {rule.lhs}")
            self._rule_index[rule.lhs.chars] = i
            lk = order.key(rule.lhs)
            for w in rule.rhs.terms:
                if not order.key(w) < lk:
                    raise RewriteSystemError(
                        f"rule {rule} is not order-decreasing at {w}")
        self._lhs_lengths = sorted({len(lhs) for lhs in self._rule_index},
                                   reverse=True)
        # x + v -> NF(x v) for a letter x and an irreducible word v
        self._action: dict[str, dict[str, object]] = {}

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_polynomials(cls, polys: Iterable[Polynomial], order: OrderSpec,
                         field: FieldSpec,
                         alphabet: Sequence[Generator]) -> "RewriteSystem":
        return cls([rule_from_poly(p, order) for p in polys], order, field,
                   alphabet)

    # -- redex search --------------------------------------------------------

    def _rule_at(self, chars: str, pos: int) -> Optional[tuple[int, int]]:
        """(lhs length, rule index) of the longest lhs starting at pos."""
        room = len(chars) - pos
        for ln in self._lhs_lengths:
            if ln <= room:
                idx = self._rule_index.get(chars[pos:pos + ln])
                if idx is not None:
                    return ln, idx
        return None

    def _find_redex(self, chars: str) -> Optional[tuple[int, int, int]]:
        """(position, lhs length, rule index) of the leftmost redex, longest
        lhs first."""
        for pos in range(len(chars)):
            hit = self._rule_at(chars, pos)
            if hit is not None:
                return (pos,) + hit
        return None

    # -- normal forms ----------------------------------------------------------

    def _letters_steps(self, letters: str, terms: dict) -> _ActionSteps:
        """letters . terms for a combination of irreducible words: the letters
        act right to left through the memo, asking for missing entries."""
        memo = self._action
        p = self.field.characteristic
        for x in reversed(letters):
            out: dict[str, object] = {}
            for v, c in terms.items():
                key = x + v
                image = memo.get(key)
                if image is None:
                    image = yield key
                _add_scaled(out, image, c, p)
            terms = out
        return terms

    def _head_steps(self, key: str) -> _ActionSteps:
        """NF(key) for key = x + v with v irreducible: any redex starts at
        position 0; each rhs word then acts on the rest of v."""
        hit = self._rule_at(key, 0)
        if hit is None:
            return {key: self.field.coerce(1)}
        ln, idx = hit
        rest = key[ln:]
        p = self.field.characteristic
        out: dict[str, object] = {}
        for t, c in self.rules[idx].rhs.items():
            image = yield from self._letters_steps(t.chars, {rest: c})
            _add_scaled(out, image, 1, p)
        return out

    def _left_multiply(self, letters: str, terms: dict) -> dict:
        """NF(letters . terms) for a char-string -> coefficient map over
        irreducible words.

        Missing letter actions are computed on an explicit stack (each one
        only needs strictly smaller words), so deep derivations use no
        Python recursion.
        """
        memo = self._action
        stack: list[tuple[Optional[str], _ActionSteps]] = [
            (None, self._letters_steps(letters, terms))]
        value = None
        while True:
            key, steps = stack[-1]
            try:
                need = steps.send(value)
            except StopIteration as done:
                value = done.value
                stack.pop()
                if key is None:
                    return value
                memo[key] = value
                continue
            value = None
            stack.append((need, self._head_steps(need)))

    def _nf_chars(self, chars: str) -> dict[str, object]:
        """Normal form of a single word as a char-string -> coefficient map."""
        return self._left_multiply(chars, {"": self.field.coerce(1)})

    def normal_form(self, f: Polynomial) -> Polynomial:
        """NF(f): exhaustive reduction; unique for complete systems."""
        if f.field != self.field:
            raise RewriteSystemError("polynomial field does not match system")
        p = self.field.characteristic
        acc: dict[str, object] = {}
        for w, c in f.items():
            _add_scaled(acc, self._nf_chars(w.chars), c, p)
        return Polynomial({Word(chars): c for chars, c in acc.items()},
                          self.field, _clean=True)

    def normal_form_word(self, w: Word) -> Polynomial:
        return Polynomial({Word(chars): c
                           for chars, c in self._nf_chars(w.chars).items()},
                          self.field, _clean=True)

    def reduce_once(self, g: Polynomial) -> Optional[Polynomial]:
        """One reduction step per the fixed strategy, or None if irreducible."""
        if g.field != self.field:
            raise RewriteSystemError("polynomial field does not match system")
        keyfn = self.order.key
        for w in sorted(g.terms, key=keyfn, reverse=True):
            red = self._find_redex(w.chars)
            if red is None:
                continue
            pos, ln, idx = red
            coeff = g.terms[w]
            u = Polynomial.monomial(Word(w.chars[:pos]), self.field)
            v = Polynomial.monomial(Word(w.chars[pos + ln:]), self.field)
            replaced = (u * self.rules[idx].rhs * v).scale(coeff)
            rest = Polynomial({x: c for x, c in g.items() if x != w},
                              self.field, _clean=True)
            return rest + replaced
        return None

    # -- certificates ----------------------------------------------------------

    def critical_pairs(self) -> tuple[CriticalPair, ...]:
        """All overlaps and containments between ordered rule pairs."""
        out: list[CriticalPair] = []
        seen: set[tuple] = set()
        for i, r1 in enumerate(self.rules):
            for j, r2 in enumerate(self.rules):
                for tip, u, v, case in find_overlaps(r1.lhs, r2.lhs):
                    key = (tip.chars, i, j, u.chars, case)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(CriticalPair(tip, i, j, u, v, case))
        out.sort(key=lambda cp: (self.order.key(cp.tip), cp.rule1, cp.rule2,
                                 len(cp.u.chars), cp.case))
        return tuple(out)

    def is_complete(self) -> CompletenessCertificate:
        """Check every critical pair; failures carry the nonzero residual."""
        failures: list[tuple[Word, Polynomial]] = []
        pairs = self.critical_pairs()
        for cp in pairs:
            residual = self.normal_form(spolynomial(self, cp))
            if not residual.is_zero:
                failures.append((cp.tip, residual))
        return CompletenessCertificate(not failures, len(pairs), failures)

    def is_reduced(self) -> bool:
        """No rule's monomials contain another rule's lhs as a factor."""
        lhs_chars = [r.lhs.chars for r in self.rules]
        for i, rule in enumerate(self.rules):
            for j, other in enumerate(lhs_chars):
                if i != j and other in rule.lhs.chars:
                    return False
            for w in rule.rhs.terms:
                if any(other in w.chars for other in lhs_chars):
                    return False
        return True

    # -- derived systems -------------------------------------------------------

    def restrict_to_subalphabet(self, gens: Iterable[Generator]
                                ) -> "RewriteSystem":
        """Keep the rules whose lhs lies in the subalphabet; their rhs must
        stay inside too, otherwise the restriction hypothesis fails."""
        allowed = {g.char for g in gens}
        kept: list[RewriteRule] = []
        for rule in self.rules:
            if not set(rule.lhs.chars) <= allowed:
                continue
            for w in rule.rhs.terms:
                if not set(w.chars) <= allowed:
                    raise RestrictionError(
                        f"rule {rule} leaves the subalphabet "
                        f"(offending monomial {w})")
            kept.append(rule)
        sub_alpha = tuple(g for g in self.alphabet if g.char in allowed)
        return RewriteSystem(kept, self.order, self.field, sub_alpha)

    def irreducible_words(self, deg_bound: int) -> list[Word]:
        """All words of total weight <= deg_bound with no lhs factor."""
        # extending an irreducible word by a letter can only create a redex
        # that ends in that letter
        lhs_by_last: dict[str, list[str]] = {}
        for r in self.rules:
            lhs = r.lhs.chars
            # an empty lhs is a suffix of every word
            for last in lhs[-1:] or "".join(g.char for g in self.alphabet):
                lhs_by_last.setdefault(last, []).append(lhs)
        out: list[Word] = []
        letters = [(g.char, g.degree.norm) for g in self.alphabet]

        def extend(chars: str, norm: int) -> None:
            out.append(Word(chars))
            for ch, dn in letters:
                if norm + dn > deg_bound:
                    continue
                cand = chars + ch
                if any(cand.endswith(l) for l in lhs_by_last.get(ch, ())):
                    continue
                extend(cand, norm + dn)

        extend("", 0)
        out.sort(key=self.order.key)
        return out

    def __repr__(self) -> str:
        return (f"RewriteSystem({len(self.rules)} rules over "
                f"{self.field}, {self.order!r})")
