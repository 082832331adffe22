"""Span tracing of u3plus from outside the package.

The tracer replaces selected public functions and methods of the
``u3plus`` modules with wrappers that record one span per call:
(name, start, end, parent).  Spans are held in flat arrays while the
command runs and written out once at the end.  Per-layer metrics are then
derived from the spans:

* ``<module>.self_s`` sums, over the spans of one module, the span's
  duration minus the durations of its child spans;
* ``*_s`` metrics sum the inclusive time of the outermost span of their
  group, so recursion (``d_chain`` -> ``splitting`` -> ``d`` ->
  ``d_chain``) or nesting (``normal_form`` inside ``is_complete``) is not
  counted twice;
* ``*_calls`` metrics count every span with the given names;
* a few counters (distinct arguments, matrix sizes, pairs checked) are
  read from arguments and results as calls return.

Time spent inside a function that is not wrapped is part of the self time
of the nearest wrapped caller.  In particular ``AnickComplex.act`` reaches
the word normal form through a private method, so that normal-form time is
counted in ``anick.act_s`` and ``anick.self_s``, not in ``rewriting``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from collections import Counter

MODULES = ("free_algebra", "rewriting", "kostant", "anick", "minimal", "cli")

# (module, owner, attribute); owner "" is the module itself
TARGETS = (
    ("free_algebra", "OrderSpec", "key"),
    ("free_algebra", "OrderSpec", "compare"),
    ("free_algebra", "Polynomial", "__add__"),
    ("free_algebra", "Polynomial", "__mul__"),
    ("free_algebra", "", "parse_poly"),
    ("free_algebra", "", "format_poly"),
    ("rewriting", "RewriteSystem", "__init__"),
    ("rewriting", "RewriteSystem", "normal_form"),
    ("rewriting", "RewriteSystem", "normal_form_word"),
    ("rewriting", "RewriteSystem", "reduce_once"),
    ("rewriting", "RewriteSystem", "critical_pairs"),
    ("rewriting", "RewriteSystem", "is_complete"),
    ("rewriting", "RewriteSystem", "is_reduced"),
    ("rewriting", "RewriteSystem", "irreducible_words"),
    ("rewriting", "CompletenessCertificate", "to_json"),
    ("rewriting", "", "spolynomial"),
    ("rewriting", "", "find_overlaps"),
    ("kostant", "", "evaluate_word"),
    ("kostant", "", "evaluate_poly"),
    ("kostant", "", "relation_suite"),
    ("kostant", "", "dimension_check"),
    ("kostant", "", "small_groebner_basis"),
    ("kostant", "", "big_rewrite_system"),
    ("kostant", "RelationCheck", "to_json"),
    ("anick", "AnickComplex", "__init__"),
    ("anick", "AnickComplex", "act"),
    ("anick", "AnickComplex", "act_poly"),
    ("anick", "AnickComplex", "delta"),
    ("anick", "AnickComplex", "jmap"),
    ("anick", "AnickComplex", "d_chain"),
    ("anick", "AnickComplex", "d"),
    ("anick", "AnickComplex", "splitting"),
    ("anick", "AnickComplex", "basis"),
    ("anick", "AnickComplex", "matrix"),
    ("anick", "AnickComplex", "relevant_degrees"),
    ("anick", "AnickComplex", "complex_check"),
    ("anick", "AnickComplex", "exactness_check"),
    ("anick", "GradedMatrix", "rank"),
    ("anick", "GradedMatrix", "to_json"),
    ("anick", "DegreeReport", "to_json"),
    ("minimal", "MinimalResolution", "__init__"),
    ("minimal", "MinimalResolution", "d2_prime"),
    ("minimal", "MinimalResolution", "smallness_checks"),
    ("minimal", "MinimalResolution", "d1_after_d2_zero"),
    ("minimal", "MinimalResolution", "exactness_at_p1_prime"),
    ("minimal", "MinimalResolution", "d2_prime_matrices"),
    ("minimal", "MinimalResolution", "ext_dimensions"),
    ("minimal", "MinimalResolution", "report"),
    ("minimal", "MinimalComplexReport", "to_json"),
    ("minimal", "PrimeDegreeReport", "to_json"),
    ("minimal", "CoefficientCheck", "to_json"),
    ("minimal", "", "reduced_chain_sets"),
    ("minimal", "", "radical_membership"),
    ("minimal", "", "coefficient_lemma_checks"),
    ("cli", "", "main"),
    ("cli", "", "cmd_nf"),
    ("cli", "", "cmd_gb"),
    ("cli", "", "cmd_verify"),
    ("cli", "", "cmd_anick"),
    ("cli", "", "cmd_minimal"),
    ("cli", "", "_emit"),
)

RENDER = tuple(f"{mod}.{owner}.to_json" for mod, owner, attr in TARGETS
               if attr == "to_json") + ("cli._emit",)

# inclusive time of the outermost span among these names
TIMES = {
    "free_algebra.order_key_s": ("free_algebra.OrderSpec.key",),
    "rewriting.normal_form_s": ("rewriting.RewriteSystem.normal_form",
                                "rewriting.RewriteSystem.normal_form_word"),
    "rewriting.is_complete_s": ("rewriting.RewriteSystem.is_complete",),
    "rewriting.critical_pairs_s": ("rewriting.RewriteSystem.critical_pairs",),
    "rewriting.irreducible_words_s": (
        "rewriting.RewriteSystem.irreducible_words",),
    "kostant.evaluate_s": ("kostant.evaluate_word", "kostant.evaluate_poly"),
    "kostant.relation_suite_s": ("kostant.relation_suite",),
    "kostant.dimension_check_s": ("kostant.dimension_check",),
    "kostant.basis_build_s": ("kostant.small_groebner_basis",
                              "kostant.big_rewrite_system"),
    "anick.act_s": ("anick.AnickComplex.act",),
    "anick.splitting_s": ("anick.AnickComplex.splitting",),
    "anick.complex_check_s": ("anick.AnickComplex.complex_check",),
    "anick.matrix_s": ("anick.AnickComplex.matrix",),
    "anick.basis_s": ("anick.AnickComplex.basis",),
    "anick.rank_s": ("anick.GradedMatrix.rank",),
    "minimal.d2_prime_s": ("minimal.MinimalResolution.d2_prime",),
    "minimal.exactness_s": ("minimal.MinimalResolution.exactness_at_p1_prime",),
    "cli.render_s": RENDER,
}

# number of spans with these names
CALLS = {
    "free_algebra.order_key_calls": ("free_algebra.OrderSpec.key",),
    "rewriting.normal_form_calls": ("rewriting.RewriteSystem.normal_form",
                                    "rewriting.RewriteSystem.normal_form_word"),
    "kostant.evaluate_poly_calls": ("kostant.evaluate_poly",),
    "anick.act_calls": ("anick.AnickComplex.act",),
    "anick.d_chain_calls": ("anick.AnickComplex.d_chain",),
    "anick.splitting_calls": ("anick.AnickComplex.splitting",),
    "anick.matrix_calls": ("anick.AnickComplex.matrix",),
    "anick.rank_calls": ("anick.GradedMatrix.rank",),
    "minimal.d2_prime_calls": ("minimal.MinimalResolution.d2_prime",),
}


class Tracer:
    """Records spans of wrapped u3plus calls and derives per-layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self._d_chain_args: set = set()
        self._d2_prime_args: set = set()
        self._matrix_keys: set = set()
        self.counters = {
            "rewriting.pairs_checked": 0,
            "rewriting.irreducible_words": 0,
            "anick.matrix_cells": 0,
            "anick.matrix_nnz": 0,
        }

    # -- observers: read arguments and results of a finished call ----------

    def _observe_is_complete(self, args, kwargs, result):
        self.counters["rewriting.pairs_checked"] += result.pair_count

    def _observe_irreducible_words(self, args, kwargs, result):
        self.counters["rewriting.irreducible_words"] += len(result)

    def _observe_d_chain(self, args, kwargs, result):
        self._d_chain_args.add((id(args[0]), args[1], args[2]))

    def _observe_d2_prime(self, args, kwargs, result):
        self._d2_prime_args.add((id(args[0]), args[1]))

    def _observe_matrix(self, args, kwargs, result):
        cx, n, degree = args[:3]
        rest = dict(zip(("source_chains", "target_chains", "dmap"),
                        args[3:]), **kwargs)
        source = rest.get("source_chains")
        target = rest.get("target_chains")
        dmap = rest.get("dmap")
        self._matrix_keys.add((
            id(cx), n, degree,
            None if source is None else tuple(source),
            None if target is None else tuple(target),
            None if dmap is None else dmap.__qualname__))
        self.counters["anick.matrix_cells"] += (
            len(result.row_labels) * len(result.col_labels))
        self.counters["anick.matrix_nnz"] += sum(
            1 for row in result.entries for x in row if x)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        span_name = self.span_name
        span_start = self.span_start
        span_end = self.span_end
        span_parent = self.span_parent
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                span_start[idx] = start
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in place, in its owner and in every u3plus
        namespace that imported it by name."""
        observers = {
            "rewriting.RewriteSystem.is_complete": self._observe_is_complete,
            "rewriting.RewriteSystem.irreducible_words":
                self._observe_irreducible_words,
            "anick.AnickComplex.d_chain": self._observe_d_chain,
            "anick.AnickComplex.matrix": self._observe_matrix,
            "minimal.MinimalResolution.d2_prime": self._observe_d2_prime,
        }
        package = importlib.import_module("u3plus")
        namespaces = [package] + [importlib.import_module(f"u3plus.{m}")
                                  for m in MODULES]
        for mod_name, owner_name, attr in TARGETS:
            module = importlib.import_module(f"u3plus.{mod_name}")
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attr]
            name = ".".join(filter(None, (mod_name, owner_name, attr)))
            traced = self.wrap(name, original, observers.get(name))
            setattr(owner, attr, traced)
            if owner_name:
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, traced)

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as gzip'd TSV: name, start, end, parent index."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for n, s, e, p in zip(self.span_name, self.span_start,
                                  self.span_end, self.span_parent):
                fh.write(f"{names[n]}\t{s!r}\t{e!r}\t{p}\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the recorded spans."""
        names = self.names
        bits = []
        for name in names:
            b = 0
            for k, members in enumerate(TIMES.values()):
                if name in members:
                    b |= 1 << k
            bits.append(b)
        time_keys = list(TIMES)
        times = [0.0] * len(time_keys)
        ids = {name: i for i, name in enumerate(names)}
        per_name = Counter(self.span_name)
        calls = {key: sum(per_name[ids[m]] for m in members)
                 for key, members in CALLS.items()}
        self_by_module = {m: 0.0 for m in MODULES}
        module_of = [name.split(".", 1)[0] for name in names]

        n_spans = len(self.span_start)
        child_time = [0.0] * n_spans
        above = [0] * n_spans   # group bits of the span's ancestors
        for i in range(n_spans):
            n = self.span_name[i]
            dur = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += dur
                above[i] = above[parent] | bits[self.span_name[parent]]
            outer = bits[n] & ~above[i]
            k = 0
            while outer:
                if outer & 1:
                    times[k] += dur
                outer >>= 1
                k += 1
        for i in range(n_spans):
            dur = self.span_end[i] - self.span_start[i]
            self_by_module[module_of[self.span_name[i]]] += dur - child_time[i]

        out: dict[str, float] = {}
        for module, value in self_by_module.items():
            out[f"{module}.self_s"] = value
        out.update(zip(time_keys, times))
        out.update(calls)
        out.update(self.counters)
        out["anick.d_chain_distinct"] = len(self._d_chain_args)
        out["minimal.d2_prime_distinct"] = len(self._d2_prime_args)
        out["anick.matrix_unique_ratio"] = (
            len(self._matrix_keys) / calls["anick.matrix_calls"]
            if calls["anick.matrix_calls"] else 0.0)
        return out
