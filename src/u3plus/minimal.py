"""Surgery on the Anick resolution to make its first three steps minimal.

Over the graded algebra presented by a window basis, the Anick complex is
exact but P_1 and P_2 carry redundant generators: the differential hits the
coordinates .(b_k a_k)^p with a unit scalar coefficient (-1 in
characteristic two, +1 otherwise) coming from the equal-weight sources
.a_{k+1} b_k^p.  Dropping both families,

    T'_1 = T_1 without the (b_k a_k)^p,
    T'_2 = T_2 without the a_{k+1} b_k^p,

and cancelling every excluded coordinate inside d_2 against the right unit
multiple of d_2(.a_{k+1} b_k^p) yields a map d'_2 whose image lies in the
radical, d'_1 . d'_2 = 0 for the restriction d'_1 of d_1, and the complex
stays exact at P'_1.  Then every differential image is small and the
generator counts of P_0, P'_1, P'_2 are the graded dimensions of the first
three extension groups of the trivial module.

Substituting for index k requires the chain a_{k+1} b_k^p, so computations
run inside a window extended upward.  The extension is conservative when the
extended basis restricts to the requested window's basis: then the rules,
normal forms and differentials of low-index words and chains are unchanged.
``MinimalResolution`` checks this restriction property at construction and
raises ``RestrictionError`` when the restricted extended basis differs from
the window basis.  Reports are restricted to the requested window.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .free_algebra import (
    Degree,
    FreeAlgebraError,
    Polynomial,
    Word,
)
from .anick import (
    AnickComplex,
    Chain,
    ChainError,
    GradedMatrix,
    ModuleElement,
)
from .kostant import Window, small_groebner_basis
from .rewriting import RestrictionError


class WindowTooSmallError(FreeAlgebraError):
    """A substitution referenced a braid coordinate outside the window."""


def radical_membership(x: ModuleElement) -> bool:
    """True iff no coordinate of x has a scalar (weight-zero) part.

    For graded free modules this is exactly smallness of the submodule the
    element generates.
    """
    return all(m for (m, _t) in x.terms)


def _braid_word(win: Window, k: int) -> Word:
    return Word.of([win.b(k), win.a(k)]).power(win.p)

def _excluded_t2_word(win: Window, k: int) -> Word:
    return Word.of([win.a(k + 1)] + [win.b(k)] * win.p)


def _t2_chain(cx: AnickComplex, w: Word, error: type, why: str) -> Chain:
    """The 2-chain with word w, or the given error when T_2 lacks it."""
    chain = cx.chain(2, w)
    if chain is None:
        raise error(f"{w} is not a 2-chain of the window basis; {why}")
    return chain


def reduced_chain_sets(cx: AnickComplex, win: Window
                       ) -> tuple[tuple[Chain, ...], tuple[Chain, ...]]:
    """(T'_1, T'_2): drop the braid powers and their substitute sources."""
    braids = {_braid_word(win, k).chars for k in win.indices}
    excluded = {_excluded_t2_word(win, k).chars for k in win.indices}
    t1p = tuple(c for c in cx.t1 if c.word.chars not in braids)
    t2p = tuple(c for c in cx.t2 if c.word.chars not in excluded)
    return t1p, t2p


@dataclass
class CoefficientCheck:
    name: str
    expected: str
    actual: str
    ok: bool

    def to_json(self) -> dict:
        return {"name": self.name, "expected": self.expected,
                "actual": self.actual, "status": "pass" if self.ok else "fail"}


@dataclass
class PrimeDegreeReport:
    """Rank bookkeeping for one weight of the surgered complex."""

    degree: Degree
    dim_p1_prime: int
    rank_d1_prime: int
    rank_d2_prime: int
    # the matrix of d'_2 in this degree, kept for the report
    d2_prime: GradedMatrix = dc_field(repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.dim_p1_prime - self.rank_d1_prime == self.rank_d2_prime

    def to_json(self) -> dict:
        return {"degree": [self.degree.alpha, self.degree.beta],
                "dim_P1_prime": self.dim_p1_prime,
                "rank_d1_prime": self.rank_d1_prime,
                "rank_d2_prime": self.rank_d2_prime,
                "exact": self.ok}


@dataclass
class MinimalComplexReport:
    window: Window
    deg_bound: int
    smallness: dict
    d1_after_d2_zero: bool
    exactness_at_p1_prime: list[PrimeDegreeReport]
    ext_dims: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (all(self.smallness.values()) and self.d1_after_d2_zero
                and all(r.ok for r in self.exactness_at_p1_prime))

    def to_json(self) -> dict:
        return {
            "window": {"p": self.window.p, "j": self.window.j,
                       "m": self.window.m},
            "deg_bound": self.deg_bound,
            "smallness": dict(self.smallness),
            "d1_prime_compose_d2_prime_zero": self.d1_after_d2_zero,
            "exactness_at_P1_prime": [r.to_json()
                                      for r in self.exactness_at_p1_prime],
            "ext_dims": self.ext_dims,
            "ok": self.ok,
        }


class MinimalResolution:
    """The surgered complex for one window, computed in an upward-extended
    window so that every braid substitution is available."""

    def __init__(self, win: Window, deg_bound: int):
        self.window = win
        self.deg_bound = deg_bound
        p = win.p
        # sources of total weight <= bound can hit the braid of index k only
        # when 2 p^{k+1} <= bound, and substituting needs index k+1 present
        max_source = max([deg_bound]
                         + [4 * (p - 1) * p**k + 2 * p**k for k in win.indices])
        need = win.m
        while 2 * p**(need) <= max_source:
            need += 1
        self.ext_window = Window(p, win.j, max(win.m + 1, need))
        self.cx = AnickComplex(small_groebner_basis(self.ext_window))
        restricted = self.cx.system.restrict_to_subalphabet(win.alphabet())
        basis = small_groebner_basis(win)
        if (restricted.rules != basis.rules
                or restricted.alphabet != basis.alphabet):
            raise RestrictionError(
                f"the basis of the extended window {self.ext_window} does not "
                f"restrict to the basis of {win}")
        self.t1_prime_ext, self.t2_prime_ext = reduced_chain_sets(
            self.cx, self.ext_window)
        max_idx = win.m - 1
        self.t0 = tuple(c for c in self.cx.t0
                        if self._max_index(c) <= max_idx)
        self.t1_prime = tuple(c for c in self.t1_prime_ext
                              if self._max_index(c) <= max_idx)
        self.t2_prime = tuple(c for c in self.t2_prime_ext
                              if self._max_index(c) <= max_idx)
        # the d'_2 sources the certificates check: T'_2 and every
        # extended-window source within the weight bound
        self.checked_t2 = tuple(c for c in self.t2_prime_ext
                                if c.degree.norm <= deg_bound
                                or self._max_index(c) <= max_idx)
        braids = {k: _braid_word(self.ext_window, k)
                  for k in self.ext_window.indices}
        self._braid_chain = {k: w.chars for k, w in braids.items()
                             if self.cx.chain(1, w) is not None}
        self._substitute_chain = {}
        for k in range(self.ext_window.j, self.ext_window.m - 1):
            self._substitute_chain[k] = _t2_chain(
                self.cx, _excluded_t2_word(self.ext_window, k),
                WindowTooSmallError,
                f"the braid of index {k} has no substitute source")

    @staticmethod
    def _max_index(chain: Chain) -> int:
        return max(g.index for g in chain.word)

    # -- the corrected differential -------------------------------------------

    def d2_prime(self, chain: Chain) -> ModuleElement:
        """d_2 with every braid coordinate substituted away: the empty
        word's entry of the complex's image memo under :meth:`_surgery`."""
        return self.cx.d_chain(2, chain, self._surgery)

    def _surgery(self, chain: Chain) -> ModuleElement:
        """d'_2(.t), computed from d_2(.t); read it through the memo.

        The substitute source hits its braid coordinate with a unit scalar
        (+1 or -1 depending on the parity of the characteristic), so adding
        the right multiple of its boundary cancels the coordinate exactly
        while staying inside the image of d_2.
        """
        cx = self.cx
        field = cx.field
        f = cx.d_chain(2, chain)
        while True:
            present = {t for _m, t in f.terms}
            worst = max((k for k, braid in self._braid_chain.items()
                         if braid in present), default=None)
            if worst is None:
                break
            sub = self._substitute_chain.get(worst)
            if sub is None:
                raise WindowTooSmallError(
                    f"substituting the braid of index {worst} needs "
                    f"generator index {worst + 1}")
            braid = self._braid_chain[worst]
            boundary = cx.d_chain(2, sub)
            unit = boundary.coefficient(("", braid))
            if not unit:
                raise WindowTooSmallError(
                    f"substitute source {sub.word} does not reach the braid "
                    f"coordinate of index {worst}")
            r_k = Polynomial({Word(m): c for (m, t), c in f.terms.items()
                              if t == braid}, field, _clean=True)
            factor = field.neg(field.invert(unit))
            f = f + cx.act_poly(r_k.scale(factor), boundary)
        return f

    # -- certificates ------------------------------------------------------------

    def smallness_checks(self) -> dict:
        cx = self.cx
        d0_small = all(radical_membership(cx.d_chain(0, t)) for t in self.t0)
        d1_small = all(radical_membership(cx.d_chain(1, t))
                       for t in self.t1_prime)
        d2_small = all(radical_membership(self.d2_prime(w))
                       for w in self.checked_t2)
        return {"d0": d0_small, "d1": d1_small, "d2": d2_small}

    def d1_after_d2_zero(self) -> bool:
        return all(self.cx.d(1, self.d2_prime(w)).is_zero
                   for w in self.checked_t2)

    def exactness_at_p1_prime(self) -> list[PrimeDegreeReport]:
        cx = self.cx
        reports = []
        for degree in cx.relevant_degrees(self.deg_bound):
            m1 = cx.matrix(1, degree, self.t1_prime_ext)
            m2 = cx.matrix(2, degree, source_chains=self.t2_prime_ext,
                           target_chains=self.t1_prime_ext,
                           dmap=self._surgery)
            reports.append(PrimeDegreeReport(
                degree, len(m2.row_labels), m1.rank(cx.field),
                m2.rank(cx.field), m2))
        return reports

    def d2_prime_matrices(self, reports: Sequence[PrimeDegreeReport]
                          ) -> list[GradedMatrix]:
        """The non-empty d'_2 matrices the exactness certificates ranked."""
        return [r.d2_prime for r in reports
                if r.d2_prime.row_labels and r.d2_prime.col_labels]

    def ext_dimensions(self) -> dict:
        """Graded generator counts of the minimal steps (requested window,
        weight-bounded): Ext^1 from T_0 and Ext^2 from T'_1.  The Ext^3 row
        counts T'_2 chains, an upper bound per bidegree that is not
        certified: only d'_2 is certified small, not d_3 on T'_2."""
        out: dict[int, dict] = {1: {}, 2: {}, 3: {}}
        for i, chains in ((1, self.t0), (2, self.t1_prime),
                          (3, self.t2_prime)):
            for c in chains:
                if c.degree.norm > self.deg_bound:
                    continue
                key = (c.degree.alpha, c.degree.beta)
                out[i][key] = out[i].get(key, 0) + 1
        return {
            i: {f"{a},{b}": n for (a, b), n in sorted(table.items())}
            for i, table in out.items()
        }

    def report(self) -> MinimalComplexReport:
        return MinimalComplexReport(
            window=self.window,
            deg_bound=self.deg_bound,
            smallness=self.smallness_checks(),
            d1_after_d2_zero=self.d1_after_d2_zero(),
            exactness_at_p1_prime=self.exactness_at_p1_prime(),
            ext_dims=self.ext_dimensions(),
        )


# --------------------------------------------------------------------------
# coefficient checks
# --------------------------------------------------------------------------


def coefficient_lemma_checks(win: Window) -> list[CoefficientCheck]:
    """The scalar coefficients that drive the surgery, checked numerically.

    * the coefficient of (b_k a_k)^{p-1} in NF(b_k^{p-1} a_k^{p-1}) is
      (-1)^p, that is 1 for p = 2 and -1 for odd p;
    * the coefficient of (b_k a_k)^{p-1} b_k in NF(b_{k+1} a_k^{p-1}) is 1;
    * in d_2(.a_{k+1} b_k^p) the coordinate .(b_k a_k)^p has coefficient
      -(-1)^p, and in d_2(.b_{k+1} a_k^p) it has coefficient -1; the
      coordinate .a_{k+1} b_{k+1} has coefficient 0 in both (it is not even
      a chain: the window word order forces it above both sources);
    * for every equal-weight pair (u, w) in T_1 x T_2 with u above w in the
      word order, the coefficient of .u in d_2(.w) is 0.

    The sign (-1)^p is forced: expanding b^{p-1} a^{p-1} by the alternating
    straightening rule, the only contribution to the top word (ba)^{p-1}
    comes from the j = p-1 term (-1)^{p-1} times the divided power
    eab(p-1) = -(ab - ba)^{p-1}, whose (ba)^{p-1} coefficient is
    (-1)^{p-1}, so the product is -1 for odd p and +1 mod 2.
    """
    p = win.p
    ext = win.extended(1)
    system = small_groebner_basis(ext)
    cx = AnickComplex(system)
    field = ext.field
    minus_one = field.coerce(-1)
    sign_p = field.coerce((-1) ** p)
    checks: list[CoefficientCheck] = []
    for k in win.indices:
        a, b = ext.a(k), ext.b(k)
        braid_pm1 = Word.of([b, a]).power(p - 1)
        nf = system.normal_form_word(
            Word.of([b] * (p - 1) + [a] * (p - 1)))
        got = nf.coefficient(braid_pm1)
        checks.append(CoefficientCheck(
            f"NF(b{k}^(p-1)*a{k}^(p-1)) at (b{k}*a{k})^(p-1)", str(sign_p),
            str(got), got == sign_p))

        target = Word.of([b, a] * (p - 1) + [b])
        nf = system.normal_form_word(Word.of([ext.b(k + 1)] + [a] * (p - 1)))
        got = nf.coefficient(target)
        checks.append(CoefficientCheck(
            f"NF(b{k + 1}*a{k}^(p-1)) at (b{k}*a{k})^(p-1)*b{k}", "1",
            str(got), got == field.coerce(1)))

        braid = _braid_word(ext, k)
        for name, src_word, expected in (
                (f"d2(.a{k + 1}*b{k}^p)",
                 _excluded_t2_word(ext, k), field.neg(sign_p)),
                (f"d2(.b{k + 1}*a{k}^p)",
                 Word.of([ext.b(k + 1)] + [a] * p), minus_one)):
            chain = _t2_chain(cx, src_word, ChainError,
                              f"the lemma {name} needs it")
            image = cx.d_chain(2, chain)
            got = image.coefficient(("", braid.chars))
            checks.append(CoefficientCheck(
                f"{name} at .(b{k}*a{k})^p", str(expected), str(got),
                field.coerce(got) == expected))
            ab_next = Word.of([ext.a(k + 1), ext.b(k + 1)])
            got = image.coefficient(("", ab_next.chars))
            checks.append(CoefficientCheck(
                f"{name} at .a{k + 1}*b{k + 1}", "0", str(got), got == 0))

    # equal weight, larger chain word: the coefficient always vanishes
    key = cx.order.key
    for t1, t2 in sorted(cx.matches_w(), key=lambda pair: key(pair[1].word)):
        if key(t1.word) > key(t2.word):
            got = cx.d_chain(2, t2).coefficient(("", t1.word.chars))
            checks.append(CoefficientCheck(
                f"d2(.{t2.word}) at larger .{t1.word}", "0", str(got),
                got == 0))
    return checks
