"""Sparse multivariate polynomials over the rationals.

Everything downstream (bracket sums, subtree polynomials, ideal
generators, ring-map images) is built from the three types here:
``Symbol``, ``Monomial`` and ``Polynomial``.  Coefficients are exact
``fractions.Fraction`` values; there is no floating point anywhere.

Symbols are created through a ``SymbolTable`` and carry their creation
index.  That index fixes the variable order used by the degree-reverse-
lexicographic term order: a symbol created earlier is a larger variable.
Display, hashing and the sign normalization of ideal generators all use
this one order, so equal polynomials always print identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .errors import DuplicateSymbol, UnboundSymbol

#: Symbol kinds.  Atom symbols span the probability ring, label symbols
#: the parameter ring; the polynomial arithmetic does not care, but the
#: ring maps do.
ATOM = "atom"
LABEL = "label"

Scalar = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class Symbol:
    """A named variable with a fixed position in the term order."""

    index: int
    name: str
    kind: str

    def __hash__(self) -> int:
        # Symbols of one table differ in index; equality stays field-wise.
        return self.index

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Symbol({self.index}, {self.name!r}, {self.kind!r})"


class SymbolTable:
    """Creation-ordered registry of symbols with unique names."""

    __slots__ = ("_symbols", "_by_name")

    def __init__(self) -> None:
        self._symbols: list[Symbol] = []
        self._by_name: dict[str, Symbol] = {}

    def new(self, name: str, kind: str) -> Symbol:
        if name in self._by_name:
            raise DuplicateSymbol(f"symbol {name!r} already exists")
        sym = Symbol(len(self._symbols), name, kind)
        self._symbols.append(sym)
        self._by_name[name] = sym
        return sym

    def get_or_create(self, name: str, kind: str) -> Symbol:
        sym = self._by_name.get(name)
        if sym is None:
            return self.new(name, kind)
        if sym.kind != kind:
            raise DuplicateSymbol(
                f"symbol {name!r} already exists with kind {sym.kind!r}"
            )
        return sym

    def lookup(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnboundSymbol(f"unknown symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols)

    def __len__(self) -> int:
        return len(self._symbols)


class Monomial:
    """A product of symbol powers, stored sorted by symbol index."""

    __slots__ = ("powers", "_hash")

    def __init__(self, powers: Iterable[tuple[Symbol, int]] = ()):
        merged: dict[Symbol, int] = {}
        for s, e in powers:
            if e < 0:
                raise ValueError("negative exponent in monomial")
            merged[s] = merged.get(s, 0) + e
        items = sorted(
            ((s, e) for s, e in merged.items() if e != 0),
            key=lambda p: p[0].index,
        )
        object.__setattr__(self, "powers", tuple(items))
        object.__setattr__(self, "_hash", hash(self.powers))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Monomial is immutable")

    @staticmethod
    def _presorted(powers: tuple[tuple[Symbol, int], ...]) -> Monomial:
        """The monomial of ``powers`` given merged, with positive exponents
        and ascending in symbol index; none of that is checked."""
        m = Monomial.__new__(Monomial)
        object.__setattr__(m, "powers", powers)
        object.__setattr__(m, "_hash", hash(powers))
        return m

    @staticmethod
    def one() -> Monomial:
        return _MONOMIAL_ONE

    @staticmethod
    def of(symbol: Symbol, exponent: int = 1) -> Monomial:
        return Monomial(((symbol, exponent),))

    def degree(self) -> int:
        return sum(e for _, e in self.powers)

    def exponent(self, symbol: Symbol) -> int:
        for s, e in self.powers:
            if s == symbol:
                return e
        return 0

    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(s for s, _ in self.powers)

    def __mul__(self, other: Monomial) -> Monomial:
        if not isinstance(other, Monomial):
            return NotImplemented
        merged: dict[Symbol, int] = dict(self.powers)
        for s, e in other.powers:
            merged[s] = merged.get(s, 0) + e
        return Monomial(merged.items())

    def is_one(self) -> bool:
        return not self.powers

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.powers == other.powers

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.powers:
            return "1"
        parts = []
        for s, e in self.powers:
            parts.append(s.name if e == 1 else f"{s.name}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self})"


_MONOMIAL_ONE = Monomial()


def compare_monomials(a: Monomial, b: Monomial) -> int:
    """Degree-reverse-lexicographic comparison; positive when a > b.

    Ties in total degree are broken at the highest-index symbol where
    the exponents differ: the monomial with the *smaller* exponent
    there is the larger one.
    """
    da, db = a.degree(), b.degree()
    if da != db:
        return 1 if da > db else -1
    ea = {s.index: e for s, e in a.powers}
    eb = {s.index: e for s, e in b.powers}
    for idx in sorted(set(ea) | set(eb), reverse=True):
        xa, xb = ea.get(idx, 0), eb.get(idx, 0)
        if xa != xb:
            return 1 if xa < xb else -1
    return 0


def monomial_key(m: Monomial) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Sort key for monomials, ascending in the term order.

    Written as its symbol indices with multiplicity in descending order,
    a monomial compares as that sequence with each index negated, after
    the degree.  The key holds the sequence run-length encoded, each run
    as (-index, -exponent), so it stays as short as ``powers`` however
    large the exponents; it orders exactly as ``compare_monomials``.
    """
    return m.degree(), tuple((-s.index, -e) for s, e in reversed(m.powers))


class Polynomial:
    """Immutable sparse polynomial: a finite map Monomial -> Fraction."""

    __slots__ = ("_terms", "_hash", "_ordered")

    def __init__(self, terms: Iterable[tuple[Monomial, Scalar]] = ()):
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in terms:
            c = Fraction(coeff)
            if c == 0:
                continue
            prev = acc.get(mono)
            if prev is None:
                acc[mono] = c
            else:
                c = prev + c
                if c == 0:
                    del acc[mono]
                else:
                    acc[mono] = c
        object.__setattr__(self, "_terms", acc)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_ordered", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> Polynomial:
        return _ZERO

    @staticmethod
    def one() -> Polynomial:
        return _ONE

    @staticmethod
    def constant(value: Scalar) -> Polynomial:
        return Polynomial(((Monomial.one(), Fraction(value)),))

    @staticmethod
    def variable(symbol: Symbol) -> Polynomial:
        return Polynomial(((Monomial.of(symbol), Fraction(1)),))

    @staticmethod
    def term(coefficient: Scalar, monomial: Monomial) -> Polynomial:
        return Polynomial(((monomial, Fraction(coefficient)),))

    @staticmethod
    def from_ordered(terms: Iterable[tuple[Monomial, Scalar]]) -> Polynomial:
        """Polynomial of distinct monomials with nonzero coefficients,
        given descending in the term order; neither is checked.  A
        coefficient of +-1 or +-2 is taken from a table of ``Fraction``s."""
        ordered = tuple((m, _SMALL_FRACTIONS.get(c) or Fraction(c)) for m, c in terms)
        poly = _wrap(dict(ordered))
        object.__setattr__(poly, "_ordered", ordered)
        return poly

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def coefficient(self, monomial: Monomial) -> Fraction:
        return self._terms.get(monomial, Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_binomial(self) -> bool:
        """At most two terms; zero and single monomials count."""
        return len(self._terms) <= 2

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(m.degree() for m in self._terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {m.degree() for m in self._terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def symbols(self) -> set[Symbol]:
        out: set[Symbol] = set()
        for mono in self._terms:
            out.update(mono.symbols())
        return out

    def ordered_terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """Terms sorted descending in the term order, cached."""
        cached = self._ordered
        if cached is None:
            cached = tuple(
                sorted(
                    self._terms.items(),
                    key=lambda t: monomial_key(t[0]),
                    reverse=True,
                )
            )
            object.__setattr__(self, "_ordered", cached)
        return cached

    def leading(self) -> tuple[Monomial, Fraction] | None:
        ordered = self.ordered_terms()
        return ordered[0] if ordered else None

    # -- arithmetic ---------------------------------------------------

    def _coerced(self, other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def __add__(self, other) -> Polynomial:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        merged = dict(self._terms)
        for mono, coeff in rhs._terms.items():
            c = merged.get(mono, Fraction(0)) + coeff
            if c == 0:
                merged.pop(mono, None)
            else:
                merged[mono] = c
        return _wrap(merged)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return _wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> Polynomial:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> Polynomial:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> Polynomial:
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in rhs._terms.items():
                mono = m1 * m2
                c = acc.get(mono, Fraction(0)) + c1 * c2
                if c == 0:
                    acc.pop(mono, None)
                else:
                    acc[mono] = c
        return _wrap(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = _ONE
        for _ in range(exponent):
            result = result * self
        return result

    # -- substitution and evaluation ----------------------------------

    def substitute(self, images: Mapping[Symbol, Polynomial | Scalar]) -> Polynomial:
        """Simultaneously replace symbols by polynomials, fully expanded.

        Symbols absent from ``images`` are left alone.
        """
        table: dict[Symbol, Polynomial] = {}
        for sym, value in images.items():
            table[sym] = value if isinstance(value, Polynomial) else Polynomial.constant(value)
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in self._terms.items():
            part = Polynomial.constant(coeff)
            for sym, exp in mono.powers:
                image = table.get(sym)
                if image is None:
                    image = Polynomial.variable(sym)
                for _ in range(exp):
                    part = part * image
            for m, c in part._terms.items():
                c2 = acc.get(m, Fraction(0)) + c
                if c2 == 0:
                    acc.pop(m, None)
                else:
                    acc[m] = c2
        return _wrap(acc)

    def evaluate(self, assignment: Mapping[Symbol, Scalar]) -> Fraction:
        """Exact value at a rational point; every symbol must be bound."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            value = coeff
            for sym, exp in mono.powers:
                try:
                    x = assignment[sym]
                except KeyError:
                    raise UnboundSymbol(
                        f"no value for symbol {sym.name!r}"
                    ) from None
                value *= Fraction(x) ** exp
            total += value
        return total

    # -- canonical presentation ---------------------------------------

    def normalized_sign(self) -> Polynomial:
        """Flip the sign if the leading coefficient is negative."""
        lead = self.leading()
        if lead is not None and lead[1] < 0:
            return -self
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        # The support only: equal polynomials have equal supports, and
        # monomial hashes are cached while Fraction hashes are not.
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        ordered = self.ordered_terms()
        if not ordered:
            return "0"
        pieces: list[str] = []
        for k, (mono, coeff) in enumerate(ordered):
            mag = abs(coeff)
            if mono.is_one():
                body = str(mag)
            elif mag == 1:
                body = str(mono)
            else:
                body = f"{mag}*{mono}"
            if k == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _wrap(terms: dict[Monomial, Fraction]) -> Polynomial:
    poly = Polynomial.__new__(Polynomial)
    object.__setattr__(poly, "_terms", terms)
    object.__setattr__(poly, "_hash", None)
    object.__setattr__(poly, "_ordered", None)
    return poly


_ZERO = Polynomial()
_SMALL_FRACTIONS = {k: Fraction(k) for k in (-2, -1, 1, 2)}
_ONE = Polynomial.constant(1)


def compare_polynomials(a: Polynomial, b: Polynomial) -> int:
    """Total order on polynomials via their ordered term lists.

    The reference order of generator sets; positive when a > b.
    """
    ta, tb = a.ordered_terms(), b.ordered_terms()
    for (ma, ca), (mb, cb) in zip(ta, tb):
        c = compare_monomials(ma, mb)
        if c != 0:
            return c
        if ca != cb:
            return 1 if ca > cb else -1
    if len(ta) != len(tb):
        return 1 if len(ta) > len(tb) else -1
    return 0


def polynomial_key(p: Polynomial) -> tuple:
    """Sort key for polynomials, ascending as ``compare_polynomials``:
    the (monomial key, coefficient) pairs of the ordered terms."""
    return tuple((monomial_key(m), c) for m, c in p.ordered_terms())
