"""Exact noncommutative rewriting and resolution engine for the
divided-power enveloping algebra of strictly upper-triangular 3x3 matrices.

Layers, bottom up:

* :mod:`u3plus.free_algebra` - words, monomial orders, exact polynomials;
* :mod:`u3plus.rewriting` - rewriting systems, normal forms, critical
  pairs, completeness certificates, bounded completion;
* :mod:`u3plus.kostant` - the divided-power (PBW) arithmetic that serves
  as ground truth, the window bases, the straightening rule system;
* :mod:`u3plus.anick` - resolution chains and differentials with graded
  exactness certificates;
* :mod:`u3plus.minimal` - the surgery making the first three steps of the
  resolution minimal, and extension-group dimensions;
* :mod:`u3plus.cli` - the ``u3plus`` batch command.
"""

from .free_algebra import (
    Comparison,
    Degree,
    EMPTY_WORD,
    FieldSpec,
    Generator,
    OrderSpec,
    ParseError,
    Polynomial,
    QQ,
    Word,
    compare_words,
    divided_alphabet,
    divided_generator,
    format_poly,
    gen_a,
    gen_b,
    parse_poly,
    phi_map,
    small_window_alphabet,
    word,
)
from .rewriting import (
    CompletenessCertificate,
    CriticalPair,
    RewriteRule,
    RewriteSystem,
    complete,
    find_overlaps,
    interreduce,
    rule_from_poly,
    spolynomial,
)
from .kostant import (
    DividedMonomial,
    KostantElement,
    Window,
    big_rewrite_system,
    dimension_check,
    divided_element,
    evaluate_poly,
    evaluate_word,
    lucas_binomial,
    relation_suite,
    small_generator,
    small_groebner_basis,
)
from .anick import (
    AnickComplex,
    Chain,
    GradedMatrix,
    ModuleElement,
)
from .minimal import (
    FreeGradedModule,
    MinimalResolution,
    coefficient_lemma_checks,
    d2_prime,
    minimality_report,
    radical_membership,
    reduced_chain_sets,
)

__version__ = "0.1.0"
