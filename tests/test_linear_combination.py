"""The sparse linear-combination core shared by Polynomial, ModuleElement and
KostantElement, checked against a naive dict reference."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from u3plus import (
    DividedMonomial,
    EMPTY_WORD,
    FieldSpec,
    KostantElement,
    ModuleElement,
    Polynomial,
    QQ,
    Word,
    divided_generator,
    evaluate_word,
    gen_a,
    gen_b,
    parse_poly,
)
from u3plus.free_algebra import LinearCombination

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(5), QQ]

_A, _B = gen_a(0, 3), gen_b(0, 3)
_WORDS = [EMPTY_WORD, Word.of([_A]), Word.of([_B]), Word.of([_B, _A]),
          Word.of([_A, _B, _A])]
_CHAINS = [Word.of([_B, _A]).chars, Word.of([_A, _A, _A]).chars]

# class -> (keys, build(terms, field))
KINDS = {
    "Polynomial": (_WORDS, Polynomial),
    "ModuleElement": (
        [(w, t) for w in _WORDS[:3] for t in _CHAINS],
        lambda terms, field: ModuleElement(1, terms, field)),
    "KostantElement": (
        [DividedMonomial(*k) for k in ((0, 0, 0), (1, 0, 0), (0, 1, 0),
                                       (0, 0, 2), (2, 1, 1))],
        KostantElement),
}

_RAW = st.one_of(st.integers(-12, 12),
                 st.fractions(min_value=-5, max_value=5, max_denominator=4))


def reduce(c, field):
    """A raw coefficient as the field stores it: a residue or a Fraction."""
    p = field.characteristic
    if not p:
        return Fraction(c)
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def clean(raw, field):
    return {k: v for k, c in raw.items() if (v := reduce(c, field))}


def ref_combine(x, y, sign, field):
    """x + sign * y on plain dicts, zeros dropped."""
    out = dict(x)
    for k, c in y.items():
        out[k] = reduce(out.get(k, 0) + sign * c, field)
    return {k: c for k, c in out.items() if c}


def usable(raw, field):
    """Raw coefficients whose denominators are units of the field."""
    p = field.characteristic
    return {k: c for k, c in raw.items()
            if not p or Fraction(c).denominator % p}


def assert_canonical(elt, field):
    p = field.characteristic
    for c in elt.terms.values():
        if p:
            assert type(c) is int and 0 < c < p
        else:
            assert isinstance(c, Fraction) and c != 0


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_dict_reference(kind, field, data):
    keys, build = KINDS[kind]
    raw = st.dictionaries(st.sampled_from(keys), _RAW, max_size=len(keys))
    rx = usable(data.draw(raw), field)
    ry = usable(data.draw(raw), field)
    k = data.draw(st.one_of(st.just(0), _RAW.filter(
        lambda c: not field.characteristic
        or Fraction(c).denominator % field.characteristic)))
    x, y = build(rx, field), build(ry, field)
    cx, cy = clean(rx, field), clean(ry, field)

    # an unclean input (zeros, unreduced residues, ints over Q) normalizes
    assert x.terms == cx
    assert_canonical(x, field)
    results = {
        "+": (x + y, ref_combine(cx, cy, 1, field)),
        "-": (x - y, ref_combine(cx, cy, -1, field)),
        "neg": (-x, ref_combine({}, cx, -1, field)),
        "scale": (x.scale(k), {key: v for key, c in cx.items()
                               if (v := reduce(c * Fraction(k), field))}),
    }
    for name, (got, expected) in results.items():
        assert type(got) is type(x), name
        assert got.terms == expected, name
        assert_canonical(got, field)
    assert x.scale(0).is_zero
    assert (x - x).is_zero
    assert x + y == y + x
    assert len(x) == len(cx)


def test_module_levels_must_match():
    field = FieldSpec(3)
    key = (EMPTY_WORD, _CHAINS[0])
    x = ModuleElement(1, {key: 1}, field)
    y = ModuleElement(2, {key: 1}, field)
    with pytest.raises(ValueError, match="module element mismatch"):
        x + y
    with pytest.raises(ValueError, match="module element mismatch"):
        x - y
    assert x != y


def test_kinds_do_not_mix():
    """Two kinds of combination over one field never combine: the result
    would hold keys of both kinds."""
    field = FieldSpec(3)
    poly = parse_poly("ea(1)", field)
    pbw = evaluate_word(Word.of([divided_generator("ea", 1)]), field)
    module = ModuleElement(1, {(EMPTY_WORD, _CHAINS[0]): 1}, field)
    with pytest.raises(TypeError):
        poly + pbw
    with pytest.raises(TypeError):
        pbw + poly
    with pytest.raises(TypeError):
        module - poly
    with pytest.raises(TypeError):
        poly - module


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_field_mismatch(kind):
    keys, build = KINDS[kind]
    x = build({keys[1]: 1}, FieldSpec(3))
    y = build({keys[1]: 1}, FieldSpec(5))
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x - y


def test_classes_with_equal_terms_differ():
    field = FieldSpec(3)
    terms = {EMPTY_WORD: 1}
    poly = Polynomial(terms, field)
    assert poly != KostantElement(terms, field)
    assert poly != LinearCombination(terms, field)
    assert LinearCombination(terms, field) != poly
    mono = DividedMonomial(1, 0, 0)
    assert KostantElement({mono: 2}, field) != Polynomial({mono: 2}, field)
    pair = {(EMPTY_WORD, _CHAINS[0]): 1}
    assert ModuleElement(1, pair, field) != Polynomial(pair, field)
    assert Polynomial(pair, field) != ModuleElement(1, pair, field)


def test_tracer_targets_are_own_attributes():
    """The span tracer of perfbench/spans.py wraps vars(owner)[attr], so each
    traced method must live in its owner's own namespace, not only in a base
    class."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS"
                          for t in node.targets)]
    assert ("free_algebra", "Polynomial", "__add__") in targets
    for module, owner, attr in targets:
        mod = importlib.import_module(f"u3plus.{module}")
        namespace = vars(getattr(mod, owner)) if owner else vars(mod)
        assert attr in namespace, (module, owner, attr)
