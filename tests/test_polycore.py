"""Exact polynomial arithmetic, ordering, and rendering."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeideals.cli import parse_polynomial
from treeideals.errors import DuplicateSymbol, UnboundSymbol
from treeideals.ideals import bracket_difference, quadric_polynomials, quadric_terms
from treeideals.polycore import (
    ATOM,
    LABEL,
    Monomial,
    Polynomial,
    SymbolTable,
    compare_monomials,
    compare_polynomials,
    monomial_key,
    polynomial_key,
)
from conftest import level_tree


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _key_order(a, b) -> int:
    return (a > b) - (a < b)


@pytest.fixture
def table():
    return SymbolTable()


@pytest.fixture
def xyz(table):
    return [table.new(n, ATOM) for n in ("x", "y", "z")]


def test_symbol_table_rejects_duplicates(table):
    table.new("x", ATOM)
    with pytest.raises(DuplicateSymbol):
        table.new("x", ATOM)
    with pytest.raises(DuplicateSymbol):
        table.get_or_create("x", LABEL)
    assert table.get_or_create("x", ATOM).name == "x"
    with pytest.raises(UnboundSymbol):
        table.lookup("missing")


def test_symbol_hash_is_its_index(table):
    x = table.new("x", ATOM)
    y = SymbolTable().new("y", LABEL)
    assert hash(x) == hash(y) == x.index == 0
    assert x != y and len({x, y}) == 2


def test_monomial_basics(xyz):
    x, y, z = xyz
    m = Monomial.of(x) * Monomial.of(y, 2)
    assert m.degree() == 3
    assert m.exponent(y) == 2
    assert m.exponent(z) == 0
    assert str(m) == "x*y^2"
    assert str(Monomial.one()) == "1"
    assert Monomial.of(x) * Monomial.of(x) == Monomial.of(x, 2)


def test_degrevlex_earlier_symbol_is_larger(xyz):
    x, y, z = xyz
    # Total degree decides first.
    assert compare_monomials(Monomial.of(x, 2), Monomial.of(y)) > 0
    # Equal degree: smaller exponent at the highest differing symbol wins.
    assert compare_monomials(Monomial.of(x), Monomial.of(y)) > 0
    assert compare_monomials(Monomial.of(x) * Monomial.of(y), Monomial.of(z, 2)) > 0
    xy = Monomial.of(x) * Monomial.of(y)
    xz = Monomial.of(x) * Monomial.of(z)
    yz = Monomial.of(y) * Monomial.of(z)
    assert sorted([yz, xy, xz], key=monomial_key, reverse=True) == [xy, xz, yz]


def test_monomial_key_orders_as_compare_monomials():
    table = SymbolTable()
    syms = [table.new(f"x{k}", ATOM) for k in range(5)]
    monos = [
        Monomial((s, 1) for s in combo)
        for d in range(4)
        for combo in combinations_with_replacement(syms, d)
    ]
    assert len(set(monos)) == 56
    for a in monos:
        for b in monos:
            assert _key_order(monomial_key(a), monomial_key(b)) == _sign(compare_monomials(a, b))


def test_monomial_key_is_as_short_as_the_powers(xyz):
    x, y, _ = xyz
    assert monomial_key(Monomial.of(x, 10**6) * Monomial.of(y)) == (10**6 + 1, ((-1, -1), (0, -10**6)))


def test_polynomial_arithmetic(xyz):
    x, y, _ = xyz
    px, py = Polynomial.variable(x), Polynomial.variable(y)
    f = (px + py) * (px - py)
    assert f == px * px - py * py
    assert (px + 1) ** 2 == px * px + 2 * px + 1
    assert f - f == Polynomial.zero()
    assert 2 * px == px + px
    assert (1 - px) + (px - 1) == Polynomial.zero()
    assert Polynomial.constant(Fraction(1, 2)) * 2 == Polynomial.one()


def test_polynomial_inspection(xyz):
    x, y, _ = xyz
    px, py = Polynomial.variable(x), Polynomial.variable(y)
    f = px * py - 3 * py
    assert len(f) == 2
    assert f.is_binomial()
    assert not f.is_homogeneous()
    assert (px * px - py * py).is_homogeneous(2)
    assert Polynomial.zero().is_homogeneous()
    assert f.total_degree() == 2
    assert f.coefficient(Monomial.of(y)) == -3
    assert f.symbols() == {x, y}
    assert Polynomial.zero().total_degree() == 0
    assert Polynomial.zero().is_binomial()


def test_leading_term_and_sign(xyz):
    x, y, _ = xyz
    px, py = Polynomial.variable(x), Polynomial.variable(y)
    f = py * py - px
    lead = f.leading()
    assert lead == (Monomial.of(y, 2), Fraction(1))
    g = px * py - 2 * px * px
    assert g.normalized_sign() == 2 * px * px - px * py
    assert Polynomial.zero().normalized_sign() == Polynomial.zero()


def test_substitute_full_expansion(xyz):
    x, y, z = xyz
    px, py, pz = (Polynomial.variable(s) for s in (x, y, z))
    f = px * px - py
    image = f.substitute({x: py + pz, y: Polynomial.one()})
    assert image == py * py + 2 * py * pz + pz * pz - 1
    # Unmapped symbols stay put.
    assert (px * pz).substitute({x: py}) == py * pz


def test_evaluate_exact(xyz):
    x, y, _ = xyz
    f = Polynomial.variable(x) * 2 - Polynomial.variable(y)
    assert f.evaluate({x: Fraction(1, 3), y: Fraction(2, 3)}) == 0
    with pytest.raises(UnboundSymbol):
        f.evaluate({x: 1})


def test_rendering(xyz):
    x, y, _ = xyz
    px, py = Polynomial.variable(x), Polynomial.variable(y)
    assert str(Polynomial.zero()) == "0"
    assert str(px * py - py) == "x*y - y"
    assert str(-px) == "-x"
    assert str(px * px * py * 3 - Fraction(1, 2)) == "3*x^2*y - 1/2"
    assert str(Polynomial.constant(Fraction(-3, 4))) == "-3/4"


def test_parse_power_builds_one_term(table, monkeypatch):
    x = table.new("p1", ATOM)

    def forbidden(*args):
        raise AssertionError("a power was parsed by multiplying")

    monkeypatch.setattr(Polynomial, "__mul__", forbidden)
    f = parse_polynomial("p1^1000000", table)
    assert list(f.terms()) == [(Monomial.of(x, 1000000), 1)]
    assert parse_polynomial("p1^0", table) == Polynomial.one()


def test_parse_round_trip_simple(table):
    x = table.new("x", ATOM)
    y = table.new("y", ATOM)
    f = (
        Polynomial.variable(x) ** 3 * Fraction(5, 2)
        - Polynomial.variable(y) * Polynomial.variable(x)
        + 7
    )
    assert parse_polynomial(str(f), table) == f
    # The unicode minus is accepted too.
    assert parse_polynomial("x − y", table) == (
        Polynomial.variable(x) - Polynomial.variable(y)
    )


# -- property tests ----------------------------------------------------

_TABLE = SymbolTable()
_SYMS = [_TABLE.new(f"s{k}", ATOM) for k in range(4)]

_coeffs = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=9),
)
_monomials = st.builds(
    Monomial,
    st.lists(
        st.tuples(st.sampled_from(_SYMS), st.integers(min_value=0, max_value=3)),
        max_size=3,
    ),
)
_polys = st.builds(
    Polynomial,
    st.lists(st.tuples(_monomials, _coeffs), max_size=5),
)


@settings(max_examples=120, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Polynomial.zero() == f
    assert f * Polynomial.one() == f
    assert f + (-f) == Polynomial.zero()


@settings(max_examples=80, deadline=None)
@given(_polys, _polys)
def test_substitution_is_a_homomorphism(f, g):
    images = {
        _SYMS[0]: Polynomial.variable(_SYMS[2]) + 1,
        _SYMS[1]: Polynomial.variable(_SYMS[3]) * Polynomial.variable(_SYMS[2]),
    }
    assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)


@settings(max_examples=80, deadline=None)
@given(_polys)
def test_render_parse_round_trip(f):
    assert parse_polynomial(str(f), _TABLE) == f


@settings(max_examples=80, deadline=None)
@given(_polys, _polys)
def test_evaluation_commutes_with_arithmetic(f, g):
    point = {s: Fraction(k + 1, 7) for k, s in enumerate(_SYMS)}
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)


@settings(max_examples=60, deadline=None)
@given(_polys)
def test_sign_normalization_idempotent_and_consistent(f):
    n = f.normalized_sign()
    assert n.normalized_sign() == n
    assert n in (f, -f)
    assert (-f).normalized_sign() == n
    lead = n.leading()
    if lead is not None:
        assert lead[1] > 0


@settings(max_examples=150, deadline=None)
@given(_polys, _polys)
def test_polynomial_key_orders_as_compare_polynomials(f, g):
    assert _key_order(polynomial_key(f), polynomial_key(g)) == _sign(compare_polynomials(f, g))
    assert _key_order(polynomial_key(f), polynomial_key(f + g)) == _sign(compare_polynomials(f, f + g))


class TestHashAndCoefficients:
    """A ``Polynomial`` hashes its support and holds ``Fraction``
    coefficients however it was built."""

    def test_equal_polynomials_built_three_ways_hash_equal(self):
        t = level_tree(2, 3)
        a, b, c, d = "v1", "v2", "v3", "v6"
        (from_table,) = quadric_polynomials(t, [quadric_terms(t, a, b, c, d)])
        by_arithmetic = bracket_difference(t, a, b, c, d)
        by_constructor = Polynomial(
            (m, Fraction(k)) for m, k in by_arithmetic.ordered_terms()
        )
        assert from_table == by_arithmetic == by_constructor
        assert len({hash(from_table), hash(by_arithmetic), hash(by_constructor)}) == 1
        assert len({from_table, by_arithmetic, by_constructor}) == 1

    def test_same_support_different_coefficients(self, xyz):
        x, y, _ = xyz
        f = Polynomial(((Monomial.of(x), 1), (Monomial.of(y), -2)))
        g = Polynomial(((Monomial.of(x), 1), (Monomial.of(y), 3)))
        assert hash(f) == hash(-f) == hash(g)
        assert len({f, -f, g}) == 3
        assert {f: "f", -f: "-f", g: "g"}[-f] == "-f"

    def test_from_ordered_coefficients_are_fractions(self, xyz):
        x, y, z = xyz
        terms = [(Monomial.of(x, 2), 2), (Monomial.of(y), -1), (Monomial.of(z), 7)]
        p = Polynomial.from_ordered(terms)
        for m, k in terms:
            assert type(p.coefficient(m)) is Fraction
            assert p.coefficient(m) == k
        assert all(type(c) is Fraction for _, c in p.ordered_terms())
