import pytest

from u3plus import AnickComplex, MinimalResolution, Polynomial, \
    RewriteSystem, Window, rule_from_poly, small_groebner_basis

_SYSTEMS = {}
_COMPLEXES = {}
_RESOLUTIONS = {}


def window(p, m, j=0):
    return Window(p, j, m)


def system_for(p, m, j=0):
    key = (p, j, m)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = small_groebner_basis(Window(p, j, m))
    return _SYSTEMS[key]


def complex_for(p, m, j=0):
    key = (p, j, m)
    if key not in _COMPLEXES:
        _COMPLEXES[key] = AnickComplex(system_for(p, m, j))
    return _COMPLEXES[key]


def resolution_for(p, m, deg_bound):
    key = (p, m, deg_bound)
    if key not in _RESOLUTIONS:
        _RESOLUTIONS[key] = MinimalResolution(Window(p, 0, m), deg_bound)
    return _RESOLUTIONS[key]


def rule_polynomial(rule):
    """The defining polynomial lhs - rhs of a rewriting rule."""
    return Polynomial.monomial(rule.lhs, rule.rhs.field) - rule.rhs


def system_from_polynomials(polys, order, field, alphabet):
    """The system of the polynomials, each oriented into its monic rule."""
    return RewriteSystem([rule_from_poly(f, order) for f in polys], order,
                         field, alphabet)


def drop_window_rule(monkeypatch, win):
    """Make ``minimal.small_groebner_basis(win)`` lose its first rule, so
    that the extended basis no longer restricts to the window basis."""
    from u3plus import minimal

    build = minimal.small_groebner_basis

    def dropping(w):
        basis = build(w)
        if w != win:
            return basis
        return RewriteSystem(basis.rules[1:], basis.order, basis.field,
                             basis.alphabet)

    monkeypatch.setattr(minimal, "small_groebner_basis", dropping)


@pytest.fixture(scope="session")
def g21():
    return system_for(2, 1)


@pytest.fixture(scope="session")
def g22():
    return system_for(2, 2)


@pytest.fixture(scope="session")
def g31():
    return system_for(3, 1)


@pytest.fixture(scope="session")
def g32():
    return system_for(3, 2)


@pytest.fixture(scope="session")
def g51():
    return system_for(5, 1)


@pytest.fixture(scope="session")
def cx21():
    return complex_for(2, 1)


@pytest.fixture(scope="session")
def cx22():
    return complex_for(2, 2)


@pytest.fixture(scope="session")
def cx31():
    return complex_for(3, 1)
