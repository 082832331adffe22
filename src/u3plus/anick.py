"""The first steps of the Anick resolution of the trivial module.

Given a reduced complete rewriting system presenting an augmented graded
algebra (every generator maps to 0 under the augmentation), this module
builds:

* the chain sets T_{-1} = {empty word}, T_0 = generators, T_1 = rule leading
  monomials, T_2 = tips of minimal overlaps between T_1 elements;
* the free modules P_n on those chains, with K-basis m.t (m an irreducible
  word, t a chain), ordered through m.t -> mt;
* the maps delta_n / j_n and the mutually recursive differentials d_n and
  splittings i_n:

      d_0(.t)     = delta_0(.t)
      d_{n+1}(.t) = delta_{n+1}(.t) - i_n(d_n(delta_{n+1}(.t)))
      i_n(f)      = j_n(lt f) + i_n(f - d_n(j_n(lt f))),   i_0 = j_0

* degree-by-degree matrices of the differentials with exact rank checks that
  certify the complex is exact at P_0 and P_1 in every tested degree.

Every image m.d_n(t) of a basis element, and m.f(t) for a supplied chain map
f such as the surgered d'_2, is memoized on the complex, keyed by (n, t, f)
and then by the word m.  A missing image x m'.d_n(t) is the letter x acting
on the memoized image of its suffix m'.t, so each image costs one letter
action, and the differentials, the splittings, the complex identities and
the graded matrices all read the same images.  Graded matrices are stored
sparsely, row by row, and ranked by one exact elimination
(:func:`sparse_rank`) over F_p or the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, Optional, Sequence, Union

from .free_algebra import (
    Degree,
    EMPTY_WORD,
    FieldSpec,
    FreeAlgebraError,
    LinearCombination,
    Polynomial,
    Word,
    _add_scaled,
)
from .rewriting import RewriteSystem, find_overlaps


class ChainError(FreeAlgebraError):
    """Chain-set construction violated a structural assumption."""


class SplittingError(FreeAlgebraError):
    """The contracting homotopy failed: input not in the expected image."""


@dataclass(frozen=True)
class Chain:
    """A module generator .t at one level of the resolution.

    Level 2 chains carry their unique minimal-overlap decomposition
    ``word = m1.v = u.m2`` as the pair (u, right_lhs = m2).
    """

    level: int
    word: Word
    u: Optional[Word] = None
    right_lhs: Optional[Word] = None

    def __post_init__(self):
        # chains key every memo, so hash once; equal chains share level
        # and word, so this agrees with the field-wise equality
        object.__setattr__(self, "_hash", hash((self.level, self.word.chars)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> Degree:
        return self.word.degree

    def to_json(self) -> list[str]:
        return list(self.word.tokens)

    def __str__(self) -> str:
        return f".{self.word}" if self.level >= 0 else ".e"

    def __repr__(self) -> str:
        return f"Chain(level={self.level}, {self.word})"


class ModuleElement(LinearCombination):
    """Finitely supported combination of basis elements m.t of one P_n."""

    __slots__ = ("level",)

    def __init__(self, level: int, terms: dict, field: FieldSpec,
                 *, _clean: bool = False):
        object.__setattr__(self, "level", level)
        super().__init__(terms, field, _clean=_clean)

    @classmethod
    def zero(cls, level: int, field: FieldSpec) -> "ModuleElement":
        return cls(level, {}, field, _clean=True)

    @classmethod
    def basis(cls, m: Word, chain: Chain, field: FieldSpec,
              coeff=1) -> "ModuleElement":
        return cls(chain.level, {(m, chain): coeff}, field)

    def _like(self, terms: dict) -> "ModuleElement":
        return ModuleElement(self.level, terms, self.field, _clean=True)

    def _check(self, other: "ModuleElement") -> None:
        super()._check(other)
        if self.level != other.level:
            raise ValueError("module element mismatch")

    def __eq__(self, other: object) -> bool:
        return super().__eq__(other) and self.level == other.level

    def coefficient(self, m: Word, chain: Chain):
        return super().coefficient((m, chain))

    def chain_coefficient(self, chain: Chain) -> Polynomial:
        """The algebra coefficient of the coordinate .chain."""
        return Polynomial(
            {m: c for (m, t), c in self.terms.items() if t == chain},
            self.field, _clean=True)

    def degrees(self) -> set[Degree]:
        return {m.degree + t.degree for (m, t) in self.terms}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (m, t), c in sorted(
                self.terms.items(),
                key=lambda kv: (str(kv[0][1].word), str(kv[0][0]))):
            coeff = "" if c == 1 else f"{c}*"
            head = str(m) if not m.is_empty else ""
            tail = str(t.word) if t.level >= 0 else "e"
            parts.append(f"{coeff}{head}.{tail}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ModuleElement(level={self.level}, {self})"


# --------------------------------------------------------------------------
# exact graded matrices
# --------------------------------------------------------------------------

# a module element grouped by chain: {chain: {word chars: coefficient}}
_Grouped = dict[Chain, dict[str, object]]


def _grouped(elt: ModuleElement) -> _Grouped:
    out: _Grouped = {}
    for (w, t), c in elt.items():
        out.setdefault(t, {})[w.chars] = c
    return out


@dataclass
class GradedMatrix:
    """The matrix of one differential in one degree, over the exact field.

    Each row lists its (column index, nonzero coefficient) pairs in
    increasing column order.
    """

    degree: Degree
    row_labels: list[tuple[Word, Chain]]
    col_labels: list[tuple[Word, Chain]]
    entries: list[list[tuple[int, object]]]

    def rank(self, field: FieldSpec) -> int:
        return sparse_rank(self.entries, field)

    def to_json(self) -> dict:
        return {
            "degree": [self.degree.alpha, self.degree.beta],
            "rows": [[str(m), str(t.word)] for m, t in self.row_labels],
            "cols": [[str(m), str(t.word)] for m, t in self.col_labels],
            "entries": [[i, j, str(x)] for i, row in enumerate(self.entries)
                        for j, x in row],
        }


def sparse_rank(rows: Iterable[Iterable[tuple[int, object]]],
                field: FieldSpec) -> int:
    """Rank of the matrix whose rows are (column, coefficient) pairs, by
    exact elimination over the field: residues mod p, or Fractions.

    Each row is reduced at its leading (smallest) column against the pivot
    row of that column until it vanishes or reaches a column with no pivot
    yet, whose pivot it then becomes.
    """
    p = field.characteristic
    coerce = field.coerce
    pivots: dict[int, dict[int, object]] = {}
    for row in rows:
        vec = {}
        for j, c in row:
            c = coerce(c)
            if c:
                vec[j] = c
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = field.invert(vec[lead])
                pivots[lead] = {j: field.mul(c, inv) for j, c in vec.items()}
                break
            _add_scaled(vec, pivot, field.neg(vec[lead]), p)
    return len(pivots)


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
        self.system = system
        self.order = system.order
        self.field = system.field
        self.e_chain = Chain(-1, EMPTY_WORD)
        self.t0 = tuple(Chain(0, Word(g.char)) for g in system.alphabet)
        self._t0_by_char = {c.word.chars: c for c in self.t0}
        self.t1 = tuple(Chain(1, r.lhs) for r in system.rules)
        self._t1_by_chars = {c.word.chars: c for c in self.t1}
        self._check_antichain()
        self.t2 = self._build_t2()
        self._t2_by_chars = {c.word.chars: c for c in self.t2}
        self._d_memo: dict[tuple[int, Chain], ModuleElement] = {}
        # (n, chain, dmap) -> m chars -> m.d_n(t) or m.dmap(t), grouped;
        # the key "" holds the image of .t itself
        self._images: dict[tuple, dict[str, _Grouped]] = {}
        self._words_bound = -1
        self._words_by_degree: dict[Degree, list[Word]] = {}

    # -- chain sets ---------------------------------------------------------

    def _check_antichain(self) -> None:
        for c1 in self.t1:
            for c2 in self.t1:
                if c1 is not c2 and c1.word.is_factor_of(c2.word):
                    raise ChainError(
                        f"T1 is not an anti-chain: {c1.word} divides {c2.word}")

    def _build_t2(self) -> tuple[Chain, ...]:
        tips: dict[str, tuple[Word, Word, Word]] = {}
        for r1 in self.system.rules:
            for r2 in self.system.rules:
                for tip, u, v, case in find_overlaps(r1.lhs, r2.lhs):
                    if case != "overlap":
                        raise ChainError(
                            "containment overlap in a reduced system")
                    prev = tips.get(tip.chars)
                    if prev is not None and (prev[1].chars != u.chars
                                             or prev[2].chars != r2.lhs.chars):
                        raise ChainError(
                            f"ambiguous overlap decomposition for {tip}")
                    tips[tip.chars] = (tip, u, r2.lhs)
        minimal: list[Chain] = []
        all_tips = list(tips.values())
        for tip, u, m2 in all_tips:
            if any(other.chars != tip.chars and other.chars in tip.chars
                   for other, _, _ in all_tips):
                continue
            minimal.append(Chain(2, tip, u=u, right_lhs=m2))
        minimal.sort(key=lambda c: self.order.key(c.word))
        return tuple(minimal)

    def chains(self, level: int) -> tuple[Chain, ...]:
        return {-1: (self.e_chain,), 0: self.t0, 1: self.t1,
                2: self.t2}[level]

    def matches_w(self) -> list[tuple[Chain, Chain]]:
        """All (t1, t2) chain pairs of equal weight."""
        out = [(c1, c2) for c1 in self.t1 for c2 in self.t2
               if c1.degree == c2.degree]
        out.sort(key=lambda pair: (self.order.key(pair[0].word),
                                   self.order.key(pair[1].word)))
        return out

    # -- irreducible words, graded bases -------------------------------------

    def _ensure_words(self, norm_bound: int) -> None:
        if norm_bound <= self._words_bound:
            return
        by_degree: dict[Degree, list[Word]] = {}
        for w in self.system.irreducible_words(norm_bound):
            by_degree.setdefault(w.degree, []).append(w)
        self._words_by_degree = by_degree
        self._words_bound = norm_bound

    def irreducible_of_degree(self, degree: Degree) -> list[Word]:
        self._ensure_words(degree.norm)
        return self._words_by_degree.get(degree, [])

    def pair_key(self, m: Word, chain: Chain):
        """Basis order on m.t via the word mt, ties broken by t (which with
        mt determines m)."""
        key = self.order.key
        return key(m.chars + chain.word.chars), key(chain.word.chars)

    def basis(self, level: int, degree: Degree,
              chain_set: Optional[Sequence[Chain]] = None
              ) -> list[tuple[Word, Chain]]:
        """The K-basis of (P_level)_degree, sorted descending by
        :meth:`pair_key`."""
        chains = self.chains(level) if chain_set is None else chain_set
        key = self.order.key
        chain_key: dict[Chain, tuple] = {}
        out: list[tuple[Word, Chain]] = []
        for t in chains:
            rest = degree - t.degree
            if rest.alpha < 0 or rest.beta < 0:
                continue
            chain_key[t] = key(t.word.chars)
            for m in self.irreducible_of_degree(rest):
                out.append((m, t))
        out.sort(key=lambda mt: (key(mt[0].chars + mt[1].word.chars),
                                 chain_key[mt[1]]), reverse=True)
        return out

    def module_dimension(self, level: int, degree: Degree) -> int:
        """dim (P_level)_degree."""
        total = 0
        for t in self.chains(level):
            rest = degree - t.degree
            if rest.alpha >= 0 and rest.beta >= 0:
                total += len(self.irreducible_of_degree(rest))
        return total

    # -- the maps -------------------------------------------------------------

    def act(self, m: Union[Word, str], elt: ModuleElement) -> ModuleElement:
        """Left action of a word on an element whose words are irreducible:
        the letters of m act through the system's letter-action memo."""
        chars = m.chars if isinstance(m, Word) else m
        if not chars:
            return elt
        left_multiply = self.system._left_multiply
        out: dict[tuple[Word, Chain], object] = {}
        for t, terms in _grouped(elt).items():
            for chars2, c2 in left_multiply(chars, terms).items():
                out[(Word(chars2), t)] = c2
        return ModuleElement(elt.level, out, self.field, _clean=True)

    def act_poly(self, f: Polynomial, elt: ModuleElement) -> ModuleElement:
        out = ModuleElement.zero(elt.level, self.field)
        for w, c in f.items():
            out = out + self.act(w, elt).scale(c)
        return out

    def delta(self, n: int, m: Word, chain: Chain) -> ModuleElement:
        """delta_n on the basis element m.t."""
        field = self.field
        if n == 0:
            nf = self.system.normal_form_word(Word(m.chars + chain.word.chars))
            return ModuleElement(
                -1, {(w, self.e_chain): c for w, c in nf.items()}, field)
        if n == 1:
            head = chain.word.chars[:-1]
            x = self._t0_by_char[chain.word.chars[-1]]
            nf = self.system.normal_form_word(Word(m.chars + head))
            return ModuleElement(0, {(w, x): c for w, c in nf.items()}, field)
        if n == 2:
            u = chain.u
            m2 = self._t1_by_chars[chain.right_lhs.chars]
            nf = self.system.normal_form_word(Word(m.chars + u.chars))
            return ModuleElement(1, {(w, m2): c for w, c in nf.items()}, field)
        raise ValueError(f"no delta at level {n}")

    def jmap(self, n: int, m: Word, chain: Chain) -> Optional[ModuleElement]:
        """j_n on the basis element m.(chain); None encodes 0.

        j_0(ux.e) = u.x; j_1(m.x) = u.vx when m = uv with vx in T_1;
        j_2(m.t) = u.vt when m = uv with vt in T_2.  Factorizations are
        unique because T_1 is an anti-chain and T_2 tips are minimal.
        """
        field = self.field
        if n == 0:
            if m.is_empty:
                return None
            x = self._t0_by_char[m.chars[-1]]
            return ModuleElement.basis(Word(m.chars[:-1]), x, field)
        lookup = self._t1_by_chars if n == 1 else self._t2_by_chars
        suffix = chain.word.chars
        hits: list[tuple[str, str]] = []
        for i in range(len(m.chars) + 1):
            cand = m.chars[i:] + suffix
            if cand in lookup:
                hits.append((m.chars[:i], cand))
        if not hits:
            return None
        if len(hits) > 1:
            raise ChainError(
                f"ambiguous factorization of {m}.{chain.word}: basis not "
                f"reduced")
        u, cand = hits[0]
        return ModuleElement.basis(Word(u), lookup[cand], field)

    def d_chain(self, n: int, chain: Chain) -> ModuleElement:
        """d_n(.t), memoized."""
        key = (n, chain)
        hit = self._d_memo.get(key)
        if hit is not None:
            return hit
        if n == 0:
            result = self.delta(0, EMPTY_WORD, chain)
        else:
            dl = self.delta(n, EMPTY_WORD, chain)
            result = dl - self.splitting(n - 1, self.d(n - 1, dl))
        self._d_memo[key] = result
        return result

    def _image(self, n: int, chain: Chain, m: str,
               dmap: Optional[Callable[[Chain], ModuleElement]] = None
               ) -> _Grouped:
        """m.d_n(t), or m.dmap(t), grouped by chain; memoized, read only.

        A missing image x m'.t is the letter x acting on the image of m'.t;
        the memo fills from the longest suffix of m it already holds.
        """
        key = (n, chain, dmap)
        images = self._images.get(key)
        if images is None:
            base = self.d_chain(n, chain) if dmap is None else dmap(chain)
            images = self._images[key] = {"": _grouped(base)}
        image = images.get(m)
        if image is not None:
            return image
        i = 1
        while m[i:] not in images:
            i += 1
        image = images[m[i:]]
        left_multiply = self.system._left_multiply
        for k in range(i - 1, -1, -1):
            image = {t: acted for t, terms in image.items()
                     if (acted := left_multiply(m[k], terms))}
            images[m[k:]] = image
        return image

    def _apply(self, n: int, elt: _Grouped) -> _Grouped:
        """d_n of a grouped element of P_n, grouped."""
        p = self.field.characteristic
        out: _Grouped = {}
        for t, terms in elt.items():
            for m, c in terms.items():
                for tt, image in self._image(n, t, m).items():
                    _add_scaled(out.setdefault(tt, {}), image, c, p)
        return {tt: terms for tt, terms in out.items() if terms}

    def _element(self, level: int, elt: _Grouped) -> ModuleElement:
        return ModuleElement(
            level, {(Word(w), t): c for t, terms in elt.items()
                    for w, c in terms.items()}, self.field, _clean=True)

    def d(self, n: int, elt: ModuleElement) -> ModuleElement:
        """The differential extended module-linearly."""
        if elt.level != n:
            raise ValueError(f"element of level {elt.level} fed to d_{n}")
        return self._element(n - 1, self._apply(n, _grouped(elt)))

    def leading_basis_term(self, elt: ModuleElement):
        return max(elt.terms.items(), key=lambda kv: self.pair_key(*kv[0]))

    def splitting(self, n: int, f: ModuleElement) -> ModuleElement:
        """i_n on ker(d_{n-1}) (ker of the augmentation for n = 0).

        Implemented as a worklist that strips the leading basis term with
        j_n and subtracts the corresponding boundary; the leading term drops
        strictly at every step, and a step budget converts any
        non-termination bug into an error.
        """
        if f.level != n - 1:
            raise ValueError(f"element of level {f.level} fed to i_{n}")
        field = self.field
        if n == 0:
            # distinct words m.e split into distinct u.x, so nothing adds up
            out: dict[tuple[Word, Chain], object] = {}
            for (m, _e), c in f.items():
                if m.is_empty:
                    raise SplittingError("element is not in ker(augmentation)")
                out[(Word(m.chars[:-1]), self._t0_by_char[m.chars[-1]])] = c
            return ModuleElement(0, out, field, _clean=True)
        budget = 16
        for d in f.degrees():
            budget += 4 * max(1, self.module_dimension(n, d))
        result = ModuleElement.zero(n, field)
        work = f
        while not work.is_zero:
            budget -= 1
            if budget < 0:
                raise SplittingError(
                    "splitting recursion exceeded its step budget")
            (m, t), c = self.leading_basis_term(work)
            image = self.jmap(n, m, t)
            if image is None:
                raise SplittingError(
                    f"leading term {m}.{t.word} admits no chain "
                    f"factorization; input is not a boundary")
            image = image.scale(c)
            result = result + image
            ((jm, jt), jc), = image.items()
            work = work - self._element(
                n - 1, self._image(n, jt, jm.chars)).scale(jc)
        return result

    # -- certificates -----------------------------------------------------------

    def complex_check(self, deg_bound: int) -> dict:
        """eps.d0, d0.d1 and d1.d2 vanish on every basis element m.t with
        total weight <= deg_bound."""
        failures = []
        counts = {"eps_d0": 0, "d0_d1": 0, "d1_d2": 0}
        e_chain = self.e_chain
        for level, name in ((0, "eps_d0"), (1, "d0_d1"), (2, "d1_d2")):
            for t in self.chains(level):
                room = deg_bound - t.degree.norm
                if room < 0:
                    continue
                self._ensure_words(room)
                for md, words in sorted(self._words_by_degree.items()):
                    if md.norm > room:
                        continue
                    for m in words:
                        counts[name] += 1
                        image = self._image(level, t, m.chars)
                        if level == 0:  # the augmentation: coefficient of e.e
                            ok = not image.get(e_chain, {}).get("")
                        else:
                            ok = not self._apply(level - 1, image)
                        if not ok:
                            failures.append((name, str(m), str(t.word)))
        return {"checked": counts, "failures": failures,
                "ok": not failures}

    def matrix(self, n: int, degree: Degree,
               source_chains: Optional[Sequence[Chain]] = None,
               target_chains: Optional[Sequence[Chain]] = None,
               dmap: Optional[Callable[[Chain], ModuleElement]] = None
               ) -> GradedMatrix:
        """The matrix of d_n (or of a supplied chain map) in one degree."""
        cols = self.basis(n, degree, source_chains)
        rows = self.basis(n - 1, degree, target_chains)
        index: dict[Chain, dict[str, int]] = {}
        for i, (m, t) in enumerate(rows):
            index.setdefault(t, {})[m.chars] = i
        entries: list[list[tuple[int, object]]] = [[] for _ in rows]
        for jcol, (m, t) in enumerate(cols):
            for tt, terms in self._image(n, t, m.chars, dmap).items():
                row_of = index[tt]
                for w, c in terms.items():
                    entries[row_of[w]].append((jcol, c))
        return GradedMatrix(degree, rows, cols, entries)

    def relevant_degrees(self, deg_bound: int) -> list[Degree]:
        """Degrees (<= bound) in which some P_n has a nonzero component."""
        self._ensure_words(deg_bound)
        out: set[Degree] = set()
        for level in (-1, 0, 1, 2):
            for t in self.chains(level):
                base = t.degree
                if base.norm > deg_bound:
                    continue
                for md in self._words_by_degree:
                    d = base + md
                    if d.norm <= deg_bound:
                        out.add(d)
        return sorted(out)

    def exactness_check(self, deg_bound: int) -> list[DegreeReport]:
        """Rank-nullity certificates per degree: the complex is exact at P_0
        and P_1, and the augmentation is exact too."""
        reports = []
        for degree in self.relevant_degrees(deg_bound):
            d0, d1, d2 = (self.matrix(n, degree) for n in (0, 1, 2))
            dims = {-1: len(d0.row_labels), 0: len(d1.row_labels),
                    1: len(d2.row_labels), 2: len(d2.col_labels)}
            r0, r1, r2 = (m.rank(self.field) for m in (d0, d1, d2))
            ker_eps = dims[-1] - (1 if degree == Degree(0, 0) else 0)
            reports.append(DegreeReport(
                degree=degree,
                dims=dims,
                ranks={"d0": r0, "d1": r1, "d2": r2},
                exact_at_augmentation=(r0 == ker_eps),
                exact_at_p0=(dims[0] - r0 == r1),
                exact_at_p1=(dims[1] - r1 == r2),
                d1=d1,
                d2=d2,
            ))
        return reports
