"""Statistical-facing queries on a staged tree model.

Membership of a probability vector is decided against the model
invariants: a point of the open simplex belongs to the model exactly
when every odds-ratio quadric vanishes at it.  Each bracket p_[v] sums
an interval of atoms, so all brackets at a point come from one prefix
sum and every quadric is two products of bracket values.  For points
that pass, the edge labels can be recovered as bracket quotients; for
points that fail, the recovered values disagree somewhere across a
stage, and the report says where.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .errors import InvalidSimplexPoint, LengthMismatch, ZeroDenominator
from .ideals import (
    QuadricTerms,
    canonical_quadric,
    model_quadrics,
    quadric_key,
    quadric_polynomials,
)
from .polycore import Polynomial, Scalar, Symbol
from .stagedtree import StagedTree


def _as_fractions(t: StagedTree, point: Sequence[Scalar]) -> list[Fraction]:
    values = [Fraction(x) for x in point]
    if len(values) != t.n_atoms:
        raise LengthMismatch(
            f"point has {len(values)} entries, tree has {t.n_atoms} atoms"
        )
    return values


def _bracket_values(t: StagedTree, values: Sequence[Fraction]) -> dict[str, Fraction]:
    """p_[v] at the point for every vertex v, from prefix sums."""
    prefix = list(accumulate(values, initial=Fraction(0)))
    return {v: prefix[hi] - prefix[lo - 1] for v, (lo, hi) in t.atom_spans.items()}


@dataclass(frozen=True)
class MembershipVerdict:
    in_simplex: bool
    invariants_vanish: bool
    failures: tuple[tuple[Polynomial, Fraction], ...]

    @property
    def member(self) -> bool:
        return self.in_simplex and self.invariants_vanish


def membership(t: StagedTree, point: Sequence[Scalar]) -> MembershipVerdict:
    """Exact membership test of a probability vector.

    The point is in the open simplex when its entries are positive and
    sum to 1.  Each model invariant p_[v]p_[w'] - p_[v']p_[w] is
    evaluated from the bracket values at the point; failures list the
    canonical model generators that do not vanish, with their values,
    in generator order.
    """
    values = _as_fractions(t, point)
    in_simplex = sum(values) == 1 and all(x > 0 for x in values)
    b = _bracket_values(t, values)
    failing: dict[QuadricTerms, Fraction] = {}
    for v, w, v1, w1, _ in model_quadrics(t):
        value = b[v] * b[w1] - b[v1] * b[w]
        if value:
            terms, flipped = canonical_quadric(t, v, w1, v1, w)
            failing[terms] = -value if flipped else value
    tables = sorted(failing, key=quadric_key, reverse=True)
    failures = tuple(
        (gen, failing[terms])
        for gen, terms in zip(quadric_polynomials(t, tables), tables)
    )
    return MembershipVerdict(
        in_simplex=in_simplex,
        invariants_vanish=not failures,
        failures=failures,
    )


@dataclass(frozen=True)
class ConditionalReport:
    """Recovered edge probabilities p_[child]/p_[parent].

    ``by_label`` groups the recovered values over each label symbol;
    the point is a model member exactly when every group agrees, and
    ``disagreements`` lists the labels where it does not.
    """

    edge_values: dict[tuple[str, str], Fraction]
    by_label: dict[Symbol, tuple[tuple[tuple[str, str], Fraction], ...]]
    disagreements: tuple[Symbol, ...]

    @property
    def consistent(self) -> bool:
        return not self.disagreements

    def recovered(self) -> dict[Symbol, Fraction]:
        """One value per label; meaningful when consistent."""
        return {s: rows[0][1] for s, rows in self.by_label.items()}


def conditional_probability_report(
    t: StagedTree, point: Sequence[Scalar]
) -> ConditionalReport:
    """Recover every edge label value from a strictly positive point."""
    values = _as_fractions(t, point)
    if sum(values) != 1:
        raise InvalidSimplexPoint(f"entries sum to {sum(values)}, not 1")
    for k, x in enumerate(values, start=1):
        if x <= 0:
            raise InvalidSimplexPoint(
                f"entry {k} is {x}; boundary points are rejected here"
            )
    b = _bracket_values(t, values)
    edge_values: dict[tuple[str, str], Fraction] = {}
    by_label: dict[Symbol, list[tuple[tuple[str, str], Fraction]]] = {}
    for v in t.internal_vertices:
        denom = b[v]
        if denom == 0:
            raise ZeroDenominator(f"p_[{v}] evaluates to 0")
        for e in t.children_of(v):
            value = b[e.child] / denom
            key = (e.parent, e.child)
            edge_values[key] = value
            by_label.setdefault(e.label, []).append((key, value))
    disagreements = tuple(
        s
        for s, rows in by_label.items()
        if any(val != rows[0][1] for _, val in rows)
    )
    return ConditionalReport(
        edge_values=edge_values,
        by_label={s: tuple(rows) for s, rows in by_label.items()},
        disagreements=disagreements,
    )


def sample_theta(t: StagedTree, seed: int) -> dict[Symbol, Fraction]:
    """Deterministic random parameter point in the open simplex.

    Per stage class, one integer in [1, 1000] is drawn per label and the
    draws are normalized by the class sum, so every class is strictly
    positive and sums to 1 exactly.
    """
    rng = random.Random(seed)
    out: dict[Symbol, Fraction] = {}
    for cls in t.stage_classes():
        draws = [rng.randint(1, 1000) for _ in cls.labels]
        total = sum(draws)
        for s, d in zip(cls.labels, draws):
            out[s] = Fraction(d, total)
    return out
