"""The first steps of the Anick resolution of the trivial module.

Given a reduced complete rewriting system presenting an augmented graded
algebra (every generator maps to 0 under the augmentation), this module
builds:

* the chain sets T_{-1} = {empty word}, T_0 = generators, and T_1, T_2 by
  one recursion (Anick's, grown to the left).  An n-chain is a word u.c
  ending in an (n-1)-chain c = h.c', its tail, such that a left-hand side
  starts u.h at position 0 and ends inside h, and no left-hand side starts
  at positions 1..|u|-1 of u.h.  So T_1 is the rule leading monomials, and
  T_2 the words u.l, l in T_1, where a left-hand side at position 0
  overlaps l and no other one lies in u.l without its last letter.  A word
  has at most one suffix in T_n: two would be nested, yet T_0 is letters,
  T_1 is an antichain (the basis is reduced), and a 2-chain ending another
  one would start a left-hand side where the recursion rules one out.
  Within one level a chain is fixed by its word, so a chain is its word's
  chars, a plain string ("" for the level -1 chain), and the complex keeps
  one map per level from each chain's chars to its tail's chars;
* the free modules P_n on those chains, with K-basis m.t (m an irreducible
  word, t a chain), ordered through m.t -> mt; an element of P_n, a graded
  basis label and a matrix label all key m.t as (m chars, t chars);
* the maps delta_n / j_n, both read off that one suffix, and the mutually
  recursive differentials d_n and splittings i_n:

      delta_n(.uc)  = NF(u).c             (c the tail of the n-chain uc)
      j_n(m.t)      = u.vt                (m = uv, vt the n-chain ending mt)
      d_0(.t)       = delta_0(.t)
      d_{n+1}(.t)   = delta_{n+1}(.t) - i_n(d_n(delta_{n+1}(.t)))
      i_n(f)        = j_n(lt f) + i_n(f - d_n(j_n(lt f)))

  The splitting i_n terminates because d_n(j_n(lt f)) has leading term lt f,
  so each step strictly lowers the leading term (D. J. Anick, Trans. AMS 296,
  1986).  The basis order compares total weight first, so only finitely many
  basis elements lie below any one of them; :meth:`AnickComplex.splitting`
  checks the descent at every step and raises :class:`SplittingError` at the
  first step that does not descend.

* degree-by-degree matrices of the differentials with exact rank checks that
  certify the complex is exact at P_0 and P_1 in every tested degree; the
  complex identities eps.d_0 = d_0.d_1 = d_1.d_2 = 0 are their products.

Every image m.d_n(t) of a basis element, and m.f(t) for a supplied chain map
f such as the surgered d'_2, is memoized on the complex, keyed by (n, t,
f) and then by the word m, as one flat (m chars, t chars) -> coefficient
map; the empty word's entry, d_n(.t) or f(.t), is computed there once and
read by :meth:`AnickComplex.d_chain`.  A missing image x m'.d_n(t) is the
letter x acting on the memoized image of its suffix m'.t, one call of the
system's letter action on every chain of that image at once, and the
differentials, the splittings and the graded matrices all read the same
images; a letter acts from the system's letter-action memo, computing only
missing entries.  The graded matrices drop the entry of each column once no
later degree can extend it, when the degrees ascend as in the certificates,
so the memo holds a narrow band of degrees; an entry read again after that
is recomputed from its longest suffix still held.

A graded basis is sorted on the words mt with each letter translated to
its rank, made once per word and once per chain, and the bases of the
degree being certified are kept, so the matrices meeting at one basis (the
columns of d_n, the rows of d_{n+1}) share one list.  Graded matrices are
stored sparsely, row by row, and ranked by one exact elimination
(:func:`sparse_rank`) over F_p or the rationals that pivots at the
smallest source basis element of each row.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, Optional, Sequence

from .free_algebra import (
    Degree,
    FieldSpec,
    FreeAlgebraError,
    LinearCombination,
    Polynomial,
    Word,
    _add_scaled,
)
from .rewriting import RewriteSystem


class ChainError(FreeAlgebraError):
    """Chain-set construction violated a structural assumption, or a chain
    argument is not a chain of its level."""


class SplittingError(FreeAlgebraError):
    """The contracting homotopy failed: input not in the expected image."""


def _chain_text(t: str) -> str:
    """The text .w of the chain with chars t; the level -1 chain is .e."""
    return f".{Word(t)}" if t else ".e"


class ModuleElement(LinearCombination):
    """A combination of basis elements m.t of P_n, keyed (m chars, t chars)."""

    __slots__ = ("level",)

    def __init__(self, level: int, terms: dict, field: FieldSpec,
                 *, _clean: bool = False):
        object.__setattr__(self, "level", level)
        super().__init__(terms, field, _clean=_clean)

    @classmethod
    def zero(cls, level: int, field: FieldSpec) -> "ModuleElement":
        return cls(level, {}, field, _clean=True)

    def _like(self, terms: dict) -> "ModuleElement":
        return ModuleElement(self.level, terms, self.field, _clean=True)

    def _check(self, other: "ModuleElement") -> None:
        super()._check(other)
        if self.level != other.level:
            raise ValueError("module element mismatch")

    def __eq__(self, other: object) -> bool:
        return super().__eq__(other) and self.level == other.level

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (m, t), c in sorted(
                self.terms.items(),
                key=lambda kv: (str(Word(kv[0][1])), str(Word(kv[0][0])))):
            coeff = "" if c == 1 else f"{c}*"
            head = str(Word(m)) if m else ""
            parts.append(f"{coeff}{head}{_chain_text(t)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ModuleElement(level={self.level}, {self})"


# --------------------------------------------------------------------------
# exact graded matrices
# --------------------------------------------------------------------------

@dataclass
class GradedMatrix:
    """The matrix of one differential in one degree, over the exact field.

    Each row lists its (column index, nonzero coefficient) pairs in
    increasing column order.
    """

    degree: Degree
    row_labels: list[tuple[str, str]]
    col_labels: list[tuple[str, str]]
    entries: list[list[tuple[int, object]]]

    def rank(self, field: FieldSpec) -> int:
        return sparse_rank(self.entries, field)

    def to_json(self) -> dict:
        return {
            "degree": [self.degree.alpha, self.degree.beta],
            "rows": [[str(Word(m)), str(Word(t))] for m, t in self.row_labels],
            "cols": [[str(Word(m)), str(Word(t))] for m, t in self.col_labels],
            "entries": [[i, j, str(x)] for i, row in enumerate(self.entries)
                        for j, x in row],
        }


def sparse_rank(rows: Iterable[Iterable[tuple[int, object]]],
                field: FieldSpec) -> int:
    """Rank of the matrix whose rows are (column, coefficient) pairs, by
    exact elimination over the field: residues mod p, or Fractions.  Every
    coefficient must already be a nonzero element of the field, as the
    entries of :meth:`AnickComplex.matrix` are.

    Each row is reduced at its largest column against the pivot row of
    that column until it vanishes or reaches a column with no pivot yet,
    whose pivot it then becomes.  The columns of a graded matrix run down
    the source basis, so the largest column is its smallest element; on the
    Anick matrices this takes far fewer steps than the smallest column.
    """
    p = field.characteristic
    pivots: dict[int, dict[int, object]] = {}
    for row in rows:
        vec = dict(row)
        while vec:
            lead = max(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = field.invert(vec[lead])
                pivots[lead] = ({j: c * inv % p for j, c in vec.items()} if p
                                else {j: c * inv for j, c in vec.items()})
                break
            _add_scaled(vec, pivot, field.neg(vec[lead]), p)
    return len(pivots)


def _product_failures(name: str, left: Iterable, right: GradedMatrix,
                      field: FieldSpec) -> list[tuple[str, str, str]]:
    """(name, m, t) for each column m.t of right at which left.right is
    nonzero; left is sparse rows whose columns index the rows of right."""
    coerce = field.coerce
    nonzero: set[int] = set()
    for row in left:
        acc: dict[int, object] = {}
        for j, c in row:
            for k, x in right.entries[j]:
                acc[k] = acc.get(k, 0) + c * x
        nonzero.update(k for k, x in acc.items() if coerce(x))
    return [(name, str(Word(m)), str(Word(t)))
            for m, t in (right.col_labels[k] for k in sorted(nonzero))]


# --------------------------------------------------------------------------
# the complex
# --------------------------------------------------------------------------


@dataclass
class DegreeReport:
    degree: Degree
    dims: dict          # level -> dimension of the graded component
    ranks: dict         # map name -> rank
    exact_at_augmentation: bool
    exact_at_p0: bool
    exact_at_p1: bool
    # the matrices of d1 and d2 in this degree, kept for the report
    d1: GradedMatrix = dc_field(repr=False, compare=False)
    d2: GradedMatrix = dc_field(repr=False, compare=False)
    # (identity, m, t) where eps.d0, d0.d1 or d1.d2 is nonzero at m.t
    failures: list = dc_field(repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return (self.exact_at_augmentation and self.exact_at_p0
                and self.exact_at_p1)

    def to_json(self) -> dict:
        return {
            "degree": [self.degree.alpha, self.degree.beta],
            "dims": {str(k): v for k, v in self.dims.items()},
            "ranks": dict(self.ranks),
            "exact_at_augmentation": self.exact_at_augmentation,
            "exact_at_P0": self.exact_at_p0,
            "exact_at_P1": self.exact_at_p1,
        }


class AnickComplex:
    """Chains and differentials for one reduced complete rewriting system."""

    def __init__(self, system: RewriteSystem):
        if not system.is_reduced():
            raise ChainError("the Anick construction needs a reduced basis")
        if system.order.variant != "deglex":
            raise ChainError("the graded bases are keyed by a deglex order")
        self.system = system
        self.order = system.order
        # words of one weight compare in deglex as their letters' ranks do
        self._rank_table = {ord(g.char): i
                            for i, g in enumerate(self.order.ranking)}
        self.field = system.field
        # level -> chain chars -> tail chars; the level -1 chain has no tail
        self._tails: dict[int, dict[str, Optional[str]]] = {-1: {"": None}}
        for n in range(3):
            self._tails[n] = self._build_level(n)
        self.t0, self.t1, self.t2 = (self.chains(n) for n in range(3))
        # (n, t, dmap) -> m chars -> the terms of m.d_n(t) or m.dmap(t);
        # the key "" holds the image of .t itself and is kept for good.
        # matrix() drops the entry of a column once no later degree can
        # read it, assuming the degrees ascend in (alpha, beta) as in the
        # certificates; a later read recomputes it
        self._images: dict[tuple, dict[str, dict]] = {}
        # expiry alpha -> image map, words, image map, words, ...: the
        # entries to drop past it, flat so that no new object is tracked
        self._expiry: dict[int, list] = {}
        # the degrees of the letters x with x m irreducible -> the reach of
        # m, head m[:L-1] -> that reach, and word degree -> (reach, words),
        # as in :meth:`_classify`
        self._reaches: dict[tuple, tuple[int, ...]] = {}
        self._head_reaches: dict[str, tuple[int, ...]] = {}
        self._word_classes: dict[tuple, list[tuple[tuple, list[str]]]] = {}
        self._top_norm = max((g.degree.norm for g in system.alphabet),
                             default=0)
        self._words_bound = -1
        # degree -> (rank string, chars) for each irreducible word of it
        self._words_by_degree: dict[Degree, list[tuple[str, str]]] = {}
        # chain set chars -> (alpha, beta) -> (rank string, chain chars)
        self._chain_groups: dict[tuple, dict[tuple, list]] = {}
        # the bases of one degree, by (level, chain set chars): the matrices
        # that meet at a basis share its list, kept with the (word degree,
        # chains) parts it was made of
        self._bases_degree: Optional[Degree] = None
        self._bases: dict[tuple, tuple[list, list]] = {}

    # -- chain sets ---------------------------------------------------------

    def _build_level(self, n: int) -> dict[str, str]:
        """The n-chains with their tails, from the (n-1)-chains by the
        recursion of the module docstring; the 0-chains are the letters.

        A lhs that starts u.h at position 0 and ends inside h is u.s with s
        a nonempty prefix of h, so the candidates u are read off a map from
        every nonempty lhs suffix s to its prefix u (u is empty only for a
        one-letter lhs, itself a 1-chain).  Levels n >= 1 are sorted by key.
        """
        system = self.system
        if n == 0:
            return {g.char: "" for g in system.alphabet}
        prefixes: dict[str, list[str]] = {}
        for lhs in system._rule_index:
            for k in range(len(lhs)):
                prefixes.setdefault(lhs[k:], []).append(lhs[:k])
        found = []
        for c, tail in self._tails[n - 1].items():
            h = c[:len(c) - len(tail)]
            for k in range(1, len(h) + 1):
                for u in prefixes.get(h[:k], ()):
                    uh = u + h
                    if all(system._rule_at(uh, pos) is None
                           for pos in range(1, len(u))):
                        found.append((u + c, c))
        found.sort(key=lambda pair: self.order.key(pair[0]))
        return dict(found)

    def _level(self, level: int) -> dict[str, Optional[str]]:
        """The chains of one level, each mapped to its tail."""
        tails = self._tails.get(level)
        if tails is None:
            raise ChainError(
                f"no chains at level {level}; levels run from -1 to 2")
        return tails

    def chains(self, level: int) -> tuple[str, ...]:
        return tuple(self._level(level))

    def matches_w(self) -> list[tuple[str, str]]:
        """All (t1, t2) chain pairs of equal weight."""
        degree = {t: Word(t).degree for t in self.t1 + self.t2}
        key = self.order.key
        out = [(c1, c2) for c1 in self.t1 for c2 in self.t2
               if degree[c1] == degree[c2]]
        out.sort(key=lambda pair: (key(pair[0]), key(pair[1])))
        return out

    # -- irreducible words, graded bases -------------------------------------

    def _ensure_words(self, norm_bound: int) -> None:
        if norm_bound <= self._words_bound:
            return
        by_degree: dict[Degree, list[tuple[str, str]]] = {}
        for w in self.system.irreducible_words(norm_bound):
            by_degree.setdefault(w.degree, []).append(
                (w.chars.translate(self._rank_table), w.chars))
        self._words_by_degree = by_degree
        self._words_bound = norm_bound

    def pair_key(self, m: str, t: str):
        """Basis order on m.t via the word mt, which determines m.t within
        one level: mt has at most one chain suffix there."""
        return self.order.key(m + t)

    def basis(self, level: int, degree: Degree,
              chain_set: Optional[Iterable[str]] = None
              ) -> list[tuple[str, str]]:
        """The K-basis of (P_level)_degree as (m chars, t chars) keys,
        sorted descending by :meth:`pair_key`.

        The bases of one degree are kept until a basis of another degree is
        asked for, so the matrices that meet at one basis share its list.
        """
        if degree != self._bases_degree:
            self._bases_degree, self._bases = degree, {}
        chains = tuple(self._level(level) if chain_set is None else chain_set)
        hit = self._bases.get((level, chains))
        if hit is not None:
            return hit[0]
        self._ensure_words(degree.norm)
        groups = self._chain_groups.get(chains)
        if groups is None:
            groups = self._chain_groups[chains] = {}
            for t in chains:
                groups.setdefault(tuple(Word(t).degree), []).append(
                    (t.translate(self._rank_table), t))
        words = self._words_by_degree
        alpha, beta = degree
        # every mt of one degree has the same weight, so pair_key compares
        # the ranks of the letters of mt, and those rank strings differ
        keyed: dict[str, tuple[str, str]] = {}
        parts = []
        for (ta, tb), group in groups.items():
            word_degree = (alpha - ta, beta - tb)
            ranked = words.get(word_degree)
            if ranked:
                parts.append((word_degree, group))
                keyed.update({rm + rt: (m, t) for rt, t in group
                              for rm, m in ranked})
        out = [keyed[r] for r in sorted(keyed, reverse=True)]
        self._bases[(level, chains)] = (out, parts)
        return out

    # -- the maps -------------------------------------------------------------

    def act(self, m: str, elt: ModuleElement) -> ModuleElement:
        """Left action of the word with chars m on an element whose words
        are irreducible, through the system's letter-action memo."""
        return ModuleElement(elt.level, self.system._left_multiply(
            m, elt.terms), self.field, _clean=True)

    def act_poly(self, f: Polynomial, elt: ModuleElement) -> ModuleElement:
        out = ModuleElement.zero(elt.level, self.field)
        for w, c in f.items():
            out = out + self.act(w.chars, elt).scale(c)
        return out

    def delta(self, n: int, t: str) -> ModuleElement:
        """delta_n(.uc) = NF(u).c, where c is the tail of the n-chain uc."""
        tail = self._level(n).get(t)
        if tail is None:
            raise ChainError(f"no delta_{n} on {_chain_text(t)}: " + (
                f"not a {n}-chain" if n >= 0 else "it has no tail"))
        return ModuleElement(n - 1, self.system._left_multiply(
            t[:len(t) - len(tail)], {("", tail): self.field.coerce(1)}),
            self.field, _clean=True)

    def jmap(self, n: int, m: str, t: str) -> Optional[ModuleElement]:
        """j_n on the basis element m.t (chars m and t); None encodes 0.

        j_n(m.t) = u.vt when m = uv and vt is an n-chain (its tail is t).
        A word has at most one n-chain suffix, so the first found is it.
        """
        lookup = self._level(n)
        for i in range(len(m), -1, -1):
            if m[i:] + t in lookup:
                return ModuleElement(n, {(m[:i], m[i:] + t): 1}, self.field)
        return None

    def d_chain(self, n: int, t: str,
                dmap: Optional[Callable[[str], ModuleElement]] = None
                ) -> ModuleElement:
        """d_n(.t), or dmap(.t): the empty word's entry of the image memo."""
        return ModuleElement(n - 1, self._image(n, t, "", dmap), self.field,
                             _clean=True)

    def _image(self, n: int, t: str, m: str,
               dmap: Optional[Callable[[str], ModuleElement]] = None
               ) -> dict:
        """The terms of m.d_n(t), or of m.dmap(t); memoized, read only.

        The empty word's entry is computed first, from delta_n or dmap, and
        is kept for good.  A missing image x m'.t is the letter x acting on
        the image of m'.t; the memo fills from the longest suffix of m it
        still holds, so an entry that :meth:`matrix` dropped is recomputed,
        with the same terms, if it is asked for again.
        """
        key = (n, t, dmap)
        images = self._images.get(key)
        if images is None:
            if t not in self._level(n):
                raise ChainError(f"no {n}-chain {Word(t)} in the complex")
            base = self.delta(n, t) if dmap is None else dmap(t)
            if dmap is None and n > 0:
                base = base - self.splitting(n - 1, self.d(n - 1, base))
            images = self._images[key] = {"": base.terms}
        image = images.get(m)
        if image is not None:
            return image
        i = 1
        while m[i:] not in images:
            i += 1
        image = images[m[i:]]
        for k in range(i - 1, -1, -1):
            image = images[m[k:]] = self.system._left_multiply(m[k], image)
        return image

    def d(self, n: int, elt: ModuleElement) -> ModuleElement:
        """The differential extended module-linearly."""
        if elt.level != n:
            raise ValueError(f"element of level {elt.level} fed to d_{n}")
        p = self.field.characteristic
        out: dict = {}
        for (m, t), c in elt.items():
            _add_scaled(out, self._image(n, t, m), c, p)
        return ModuleElement(n - 1, out, self.field, _clean=True)

    def leading_basis_term(self, elt: ModuleElement):
        return max(elt.terms.items(), key=lambda kv: self.pair_key(*kv[0]))

    def splitting(self, n: int, f: ModuleElement) -> ModuleElement:
        """i_n on ker(d_{n-1}) (ker of the augmentation for n = 0).

        Implemented as a worklist that strips the leading basis term m.t
        with j_n and subtracts the corresponding boundary.  j_n(m.t) = u.vt
        is the only candidate, because mt has at most one n-chain suffix.
        The leading term must drop strictly at every step, in the order of
        :meth:`pair_key`, which bounds the number of steps; a step that does
        not descend raises :class:`SplittingError`, and so does a leading
        term with no n-chain suffix, such as the scalar 1.e for n = 0.
        """
        if f.level != n - 1:
            raise ValueError(f"element of level {f.level} fed to i_{n}")
        result = ModuleElement.zero(n, self.field)
        work, previous = f, None
        while not work.is_zero:
            (m, t), c = self.leading_basis_term(work)
            lead = self.pair_key(m, t)
            if previous is not None and lead >= previous:
                raise SplittingError(
                    f"leading term {Word(m)}{_chain_text(t)} is not "
                    f"below the previous step's leading term; i_{n} does "
                    f"not descend")
            previous = lead
            image = self.jmap(n, m, t)
            if image is None:
                raise SplittingError(
                    f"leading term {Word(m)}{_chain_text(t)} admits "
                    f"no chain factorization; input is not a boundary")
            image = image.scale(c)
            result = result + image
            work = work - self.d(n, image)
        return result

    # -- certificates -----------------------------------------------------------

    def complex_check(self, reports: Sequence[DegreeReport]) -> dict:
        """eps.d0, d0.d1 and d1.d2 vanish on every basis element counted by
        the per-degree reports of :meth:`exactness_check`."""
        failures = [f for r in reports for f in r.failures]
        checked = {name: sum(r.dims[level] for r in reports)
                   for level, name in ((0, "eps_d0"), (1, "d0_d1"),
                                       (2, "d1_d2"))}
        return {"checked": checked, "failures": failures,
                "ok": not failures}

    def matrix(self, n: int, degree: Degree,
               source_chains: Optional[Sequence[str]] = None,
               target_chains: Optional[Sequence[str]] = None,
               dmap: Optional[Callable[[str], ModuleElement]] = None
               ) -> GradedMatrix:
        """The matrix of d_n (or of a supplied chain map) in one degree.

        The image memo entry of a column m.t in degree D, m nonempty, is
        read again only as the seed of a column x m.t, in degree D + deg x.
        A b-letter x keeps alpha, and an a-letter adds at most w, the reach
        of m (see :meth:`_classify`) at what the word bound leaves above D.
        So when the degrees ascend in (alpha, beta), as in the
        certificates, the entry is dead past alpha D.alpha + w, and the
        first matrix of a later alpha drops it; in any other order an entry
        read again is recomputed.
        """
        chains = tuple(self._level(n) if source_chains is None
                       else source_chains)
        cols = self.basis(n, degree, chains)
        rows = self.basis(n - 1, degree, target_chains)
        alpha = degree.alpha
        for due in [due for due in self._expiry if due < alpha]:
            bucket = self._expiry.pop(due)
            for images, words in zip(bucket[::2], bucket[1::2]):
                for m in words:
                    images.pop(m, None)
        index = {label: i for i, label in enumerate(rows)}
        entries: list[list[tuple[int, object]]] = [[] for _ in rows]
        for jcol, (m, t) in enumerate(cols):
            for label, c in self._image(n, t, m, dmap).items():
                entries[index[label]].append((jcol, c))
        # the columns m.t of one basis part are every word m of its word
        # degree times every chain t of its group
        room = min(self._words_bound - degree.norm, self._top_norm)
        expiry = self._expiry
        for word_degree, group in self._bases[(n, chains)][1]:
            classes = self._word_classes.get(word_degree)
            if classes is None:
                classes = self._classify(word_degree)
            for _rank, t in group:
                images = self._images[(n, t, dmap)]
                for reach, words in classes:
                    bucket = expiry.get(alpha + reach[room])
                    if bucket is None:
                        bucket = expiry[alpha + reach[room]] = []
                    bucket += images, words
        return GradedMatrix(degree, rows, cols, entries)

    def _classify(self, word_degree: tuple[int, int]
                  ) -> list[tuple[tuple[int, ...], list[str]]]:
        """The nonempty irreducible words m of one degree, grouped by their
        reach, whose entry r is the largest alpha of an a-letter x of norm
        <= r with x m irreducible, 0 if there is none.  A redex of x m
        starts at x, so it lies in x and the head m[:L-1], L the longest
        lhs, and the reach is found once per head and made once per set of
        such letters."""
        system = self.system
        cut = max(system._lhs_lengths, default=1) - 1
        classes: dict[int, tuple[tuple[int, ...], list[str]]] = {}
        for _rank, m in self._words_by_degree.get(word_degree, ()):
            if not m:
                continue
            reach = self._head_reaches.get(m[:cut])
            if reach is None:
                letters = tuple(
                    g.degree for g in system.alphabet if g.degree.alpha
                    and system._rule_at(g.char + m[:cut], 0) is None)
                reach = self._reaches.get(letters)
                if reach is None:
                    reach = self._reaches[letters] = tuple(
                        max((d.alpha for d in letters if d.norm <= r),
                            default=0)
                        for r in range(self._top_norm + 1))
                self._head_reaches[m[:cut]] = reach
            group = classes.get(id(reach))
            if group is None:
                group = classes[id(reach)] = (reach, [])
            group[1].append(m)
        out = self._word_classes[word_degree] = list(classes.values())
        return out

    def relevant_degrees(self, deg_bound: int) -> list[Degree]:
        """Degrees (<= bound) in which some P_n has a nonzero component."""
        self._ensure_words(deg_bound)
        chain_degrees = {Word(t).degree for level in (-1, 0, 1, 2)
                         for t in self.chains(level)}
        return [Degree(*d) for d in sorted(
            {(ca + ma, cb + mb) for ca, cb in chain_degrees
             for ma, mb in self._words_by_degree
             if ca + ma + cb + mb <= deg_bound})]

    def exactness_check(self, deg_bound: int) -> list[DegreeReport]:
        """Rank-nullity certificates per degree: the complex is exact at P_0
        and P_1, and the augmentation is exact too.  Each report also keeps
        the basis elements at which eps.d0, d0.d1 or d1.d2 is nonzero."""
        reports = []
        for degree in self.relevant_degrees(deg_bound):
            d0, d1, d2 = (self.matrix(n, degree) for n in (0, 1, 2))
            dims = {-1: len(d0.row_labels), 0: len(d1.row_labels),
                    1: len(d2.row_labels), 2: len(d2.col_labels)}
            # the augmentation reads the coefficient of 1.e
            eps = [[(i, 1)] for i, (m, _t) in enumerate(d0.row_labels)
                   if not m]
            failures = [f for name, left, right in (
                ("eps_d0", eps, d0), ("d0_d1", d0.entries, d1),
                ("d1_d2", d1.entries, d2))
                for f in _product_failures(name, left, right, self.field)]
            r0, r1, r2 = (m.rank(self.field) for m in (d0, d1, d2))
            ker_eps = dims[-1] - len(eps)
            reports.append(DegreeReport(
                degree=degree,
                dims=dims,
                ranks={"d0": r0, "d1": r1, "d2": r2},
                exact_at_augmentation=(r0 == ker_eps),
                exact_at_p0=(dims[0] - r0 == r1),
                exact_at_p1=(dims[1] - r1 == r2),
                d1=d1,
                d2=d2,
                failures=failures,
            ))
        return reports
