"""Rewriting systems over free associative algebras.

A rule replaces occurrences of its leading monomial by a strictly smaller
polynomial; a system bundles rules with a monoidal artinian order, which
guarantees that exhaustive rewriting terminates.  On top of one-step and full
reduction the module provides overlap enumeration, critical pairs,
completeness and reducedness certificates, subalphabet restriction and
bounded irreducible-word enumeration.  The window bases are written down in
full (``kostant.small_groebner_basis``) and certified complete, so nothing
here completes a system.  Those certificates scan no rule pairs: a word's
lhs factors, and the rules whose lhs starts with a suffix of another lhs,
are found by slicing and looking the slice up in a dictionary of left-hand
sides (or of their proper prefixes, as the critical pairs are found).

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
entries.  Every normal form, and every action of a word on a module element,
is one loop over it (``_left_multiply``) on (word, tail) keys that carries the
tail through untouched and derives a missing entry on an explicit stack.  For
complete systems the result is strategy-independent; for incomplete ones it is
still an irreducible reduct of the input, though not necessarily the one
another strategy would reach.  One-step reduction (``reduce_once``) rewrites
the order-greatest reducible monomial at its leftmost redex, longest left-hand
side first.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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


class CriticalPair(NamedTuple):
    """Two rules meeting on one word; the words are character strings.

    ``overlap``:      tip = lhs1 . v = u . lhs2, with a nonempty proper
                      overlap (rule 1 matches at position 0, rule 2 ends the
                      tip);
    ``containment``:  tip = lhs1 = u . lhs2 . v, rule 2's monomial inside
                      rule 1's.
    """

    tip: str
    rule1: int
    rule2: int
    u: str
    v: str
    case: str

    def __str__(self) -> str:
        return (f"tip {Word(self.tip)} (rules {self.rule1},{self.rule2}, "
                f"{self.case})")


def spolynomial(system: "RewriteSystem", cp: CriticalPair) -> Polynomial:
    """rhs difference of the two reductions of the tip; 0-reducibility of all
    of these is exactly completeness."""
    # overlap: r1.rhs . v - u . r2.rhs; containment: r1.rhs - u . r2.rhs . v
    v1, v2 = (cp.v, "") if cp.case == "overlap" else ("", cp.v)
    acc = {w.chars + v1: c for w, c in system.rules[cp.rule1].rhs.items()}
    _add_scaled(acc, {cp.u + w.chars + v2: c
                      for w, c in system.rules[cp.rule2].rhs.items()},
                -1, system.field.characteristic)
    return Polynomial({Word(chars): c for chars, c in acc.items()},
                      system.field, _clean=True)


def find_overlaps(m1: str, m2: str) -> list[tuple[str, str, str, str]]:
    """All overlap and containment skeletons of two monomials' chars.

    Returns tuples ``(tip, u, v, case)``:

    * ``overlap``: a nonempty proper suffix of ``m1`` equals a proper prefix
      of ``m2``; ``tip = m1.v = u.m2``;
    * ``containment``: ``m2`` is a proper factor of ``m1``;
      ``tip = m1 = u.m2.v`` (one entry per occurrence).
    """
    out: list[tuple[str, str, str, str]] = []
    for ov in range(1, min(len(m1), len(m2))):
        if m1[-ov:] == m2[:ov]:
            out.append((m1 + m2[ov:], m1[:-ov], m2[ov:], "overlap"))
    if len(m2) < len(m1):
        pos = m1.find(m2)
        while pos >= 0:
            out.append((m1, m1[:pos], m1[pos + len(m2):], "containment"))
            pos = m1.find(m2, pos + 1)
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

    Every rule has a nonempty left-hand side and only letters of the
    alphabet, or construction raises :class:`RewriteSystemError`.  The rules
    never change after construction; the normal-form memo (the letter
    action) fills as normal forms are computed, so an instance is not safe to
    share between threads.
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
        letters = {g.char for g in self.alphabet}
        for i, rule in enumerate(self.rules):
            if rule.rhs.field != field:
                raise RewriteSystemError("rule field does not match system")
            if rule.lhs.is_empty:
                raise RewriteSystemError(
                    f"rule {rule} has an empty left-hand side")
            for w in (rule.lhs, *rule.rhs.terms):
                if not letters.issuperset(w.chars):
                    raise RewriteSystemError(
                        f"rule {rule} leaves the alphabet at {w}")
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

    def _head_steps(self, key: str) -> _ActionSteps:
        """NF(key) for key = x + v with v irreducible: any redex starts at
        position 0; the letters of each rhs word then act, right to left
        through the memo, on the rest of v, asking for missing entries."""
        hit = self._rule_at(key, 0)
        if hit is None:
            return {key: self.field.coerce(1)}
        ln, idx = hit
        rest = key[ln:]
        memo = self._action
        p = self.field.characteristic
        out: dict[str, object] = {}
        for t, c in self.rules[idx].rhs.items():
            terms = {rest: c}
            for x in reversed(t.chars):
                acted: dict[str, object] = {}
                for v, cv in terms.items():
                    image = memo.get(x + v)
                    if image is None:
                        image = yield x + v
                    _add_scaled(acted, image, cv, p)
                terms = acted
            _add_scaled(out, terms, 1, p)
        return out

    def _derive(self, key: str) -> dict:
        """NF(key) for key = x + v with v irreducible, stored in the memo
        with every missing entry it needs.

        Each missing entry only needs strictly smaller words, so they are
        computed on an explicit stack of :meth:`_head_steps` generators and
        deep derivations use no Python recursion.
        """
        memo = self._action
        stack = [(key, self._head_steps(key))]
        value = None
        while True:
            need, steps = stack[-1]
            try:
                want = steps.send(value)
            except StopIteration as done:
                value = memo[need] = done.value
                stack.pop()
                if not stack:
                    return value
                continue
            value = None
            stack.append((want, self._head_steps(want)))

    def _left_multiply(self, letters: str, terms: dict) -> dict:
        """NF(letters . terms) for a (chars, tail) -> coefficient map over
        irreducible chars: the letters act right to left through the memo,
        :meth:`_derive` computes each missing entry, and each tail, such as
        a chain's chars, passes through untouched.  Each image is added in
        place, as ``_add_scaled`` would, cancelled keys dropped."""
        memo = self._action
        p = self.field.characteristic
        for x in reversed(letters):
            out: dict[tuple, object] = {}
            for (v, tail), c in terms.items():
                image = memo.get(x + v)
                if image is None:
                    image = self._derive(x + v)
                for w, cw in image.items():
                    key = (w, tail)
                    s = out.get(key, 0) + c * cw
                    if p:
                        s %= p
                    if s:
                        out[key] = s
                    elif key in out:
                        del out[key]
            terms = out
        return terms

    def _nf_chars(self, chars: str) -> dict[str, object]:
        """Normal form of a single word as a char-string -> coefficient map."""
        return {w: c for (w, _tail), c in self._left_multiply(
            chars, {("", ""): self.field.coerce(1)}).items()}

    def normal_form(self, f: Polynomial) -> Polynomial:
        """NF(f): exhaustive reduction; unique for complete systems."""
        if f.field != self.field:
            raise RewriteSystemError("polynomial field does not match system")
        p = self.field.characteristic
        acc: dict[tuple[str, str], object] = {}
        for w, c in f.items():
            _add_scaled(acc, self._left_multiply(w.chars, {("", ""): c}), 1, p)
        return Polynomial({Word(v): c for (v, _tail), c in acc.items()},
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

    def _lhs_factors(self, chars: str) -> Iterator[int]:
        """The rules whose lhs is a factor of chars, one per occurrence."""
        index = self._rule_index
        for ln in self._lhs_lengths:
            for pos in range(len(chars) - ln + 1):
                idx = index.get(chars[pos:pos + ln])
                if idx is not None:
                    yield idx

    def _critical_pairs(self) -> Iterator[CriticalPair]:
        """Every overlap and containment of an ordered rule pair, as found.

        Only partners meet in ``find_overlaps``: rule j is a partner of rule
        i when lhs_j starts with a proper suffix of lhs_i (looked up in a map
        from proper prefixes to rules) or is a proper factor of lhs_i.  Any
        other pair has no skeleton.
        """
        lhs = [rule.lhs.chars for rule in self.rules]
        by_prefix: dict[str, list[int]] = {}
        for j, s2 in enumerate(lhs):
            for k in range(1, len(s2)):
                by_prefix.setdefault(s2[:k], []).append(j)
        for i, s1 in enumerate(lhs):
            partners = {j for j in self._lhs_factors(s1) if j != i}
            for k in range(1, len(s1)):
                partners.update(by_prefix.get(s1[k:], ()))
            for j in partners:
                for tip, u, v, case in find_overlaps(s1, lhs[j]):
                    yield CriticalPair(tip, i, j, u, v, case)

    def _sorted(self, pairs: typing.Collection[CriticalPair]) -> list:
        """The pairs on the total key (tip key, rule1, rule2, len(u), case),
        with one order key per distinct tip."""
        tip_keys = {tip: self.order.key(tip)
                    for tip in {cp.tip for cp in pairs}}
        return sorted(pairs, key=lambda cp: (tip_keys[cp.tip], cp.rule1,
                                             cp.rule2, len(cp.u), cp.case))

    def critical_pairs(self) -> tuple[CriticalPair, ...]:
        """All overlaps and containments between ordered rule pairs."""
        return tuple(self._sorted(list(self._critical_pairs())))

    def is_complete(self) -> CompletenessCertificate:
        """Check each critical pair as it is found; keep only the failures,
        with their nonzero residuals, in ``critical_pairs`` order."""
        count = 0
        residuals: dict[CriticalPair, Polynomial] = {}
        for cp in self._critical_pairs():
            count += 1
            residual = self.normal_form(spolynomial(self, cp))
            if not residual.is_zero:
                residuals[cp] = residual
        return CompletenessCertificate(
            not residuals, count,
            [(Word(cp.tip), residuals[cp]) for cp in self._sorted(residuals)])

    def is_reduced(self) -> bool:
        """No rule's monomials contain another rule's lhs as a factor."""
        for i, rule in enumerate(self.rules):
            if any(j != i for j in self._lhs_factors(rule.lhs.chars)):
                return False
            for w in rule.rhs.terms:
                if next(self._lhs_factors(w.chars), None) is not None:
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
        index = self._rule_index
        lengths = self._lhs_lengths
        out: list[Word] = []
        letters = [(g.char, g.degree.norm) for g in self.alphabet]

        def extend(chars: str, norm: int) -> None:
            out.append(Word(chars))
            for ch, dn in letters:
                if norm + dn > deg_bound:
                    continue
                cand = chars + ch
                if any(cand[-ln:] in index for ln in lengths):
                    continue
                extend(cand, norm + dn)

        extend("", 0)
        out.sort(key=self.order.key)
        return out

    def __repr__(self) -> str:
        return (f"RewriteSystem({len(self.rules)} rules over "
                f"{self.field}, {self.order!r})")
