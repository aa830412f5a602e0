"""The ring maps of the tree parametrisation and the toricity decision.

Two maps are implemented, both sending an atom symbol p_i to the label
product of its root-to-leaf path.  The monomial map keeps the image in
the full label ring; the quotient map follows it with the sum-to-one
reduction, which substitutes one designated label per stage class by
1 minus the sum of the others.  Because those relations are linear, use
one eliminated symbol per class, and never mention an eliminated symbol
on a right-hand side, a single simultaneous substitution is a complete
normal form: a polynomial lies in the kernel exactly when its reduced
image is zero.  No ideal-membership machinery is needed anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .errors import ForeignSymbol, InvalidSimplexPoint, UnboundSymbol
from .ideals import (
    QuadricTerms,
    _aligned_children,
    canonical_tables,
    model_items,
    mpaths_items,
    paths_items,
    quadric_polynomials,
    same_stage_pairs,
)
from .polycore import Monomial, Polynomial, Scalar, Symbol
from .stagedtree import StagedTree


def _require_p_ring(t: StagedTree, f: Polynomial) -> None:
    allowed = set(t.atom_symbols)
    foreign = sorted(
        (s for s in f.symbols() if s not in allowed), key=lambda s: s.index
    )
    if foreign:
        names = ", ".join(s.name for s in foreign)
        raise ForeignSymbol(f"not in the atom ring of this tree: {names}")


def atom_images(t: StagedTree) -> dict[Symbol, Polynomial]:
    """p_i -> product of the edge labels along the i-th path."""
    return {a.symbol: Polynomial.term(1, a.monomial) for a in t.atoms}


def phi_toric_image(t: StagedTree, f: Polynomial) -> Polynomial:
    """Image under the monomial map; zero iff f is in its kernel."""
    _require_p_ring(t, f)
    return f.substitute(atom_images(t))


@dataclass(frozen=True)
class SumToOneReduction:
    """Per stage class: one eliminated label and its replacement.

    The eliminated symbol is the last label in the class's declaration
    order; its replacement is 1 - (sum of the other labels of the class).
    """

    eliminated: tuple[Symbol, ...]
    substitution: dict[Symbol, Polynomial]

    @classmethod
    def for_tree(cls, t: StagedTree) -> "SumToOneReduction":
        eliminated: list[Symbol] = []
        substitution: dict[Symbol, Polynomial] = {}
        for stage in t.stage_classes():
            last = stage.labels[-1]
            others = stage.labels[:-1]
            replacement = Polynomial.one()
            for s in others:
                replacement = replacement - Polynomial.variable(s)
            eliminated.append(last)
            substitution[last] = replacement
        return cls(tuple(eliminated), substitution)

    def apply(self, f: Polynomial) -> Polynomial:
        return f.substitute(self.substitution)


def phi_image(t: StagedTree, f: Polynomial) -> Polynomial:
    """Monomial image reduced by sum-to-one; zero iff f is in ker phi."""
    return SumToOneReduction.for_tree(t).apply(phi_toric_image(t, f))


def _key_polynomial(t: StagedTree, counts: Mapping[int, int]) -> Polynomial:
    """The sum of k times the label product of m, over the label keys
    m -> k of ``counts`` (see ``StagedTree.label_keys``).  Keys with
    k = 0 are not decoded."""
    return Polynomial(
        (Monomial._presorted(t.label_powers(m)), k) for m, k in counts.items() if k
    )


# -- condition on subtree polynomials ----------------------------------


@dataclass(frozen=True)
class StarWitness:
    i: int
    j: int
    label_i: str
    label_j: str
    difference: Polynomial

    def __str__(self) -> str:
        return (
            f"aligned labels ({self.label_i}, {self.label_j}) "
            f"[indices {self.i},{self.j}]: difference {self.difference}"
        )


@dataclass(frozen=True)
class StarResult:
    v: str
    w: str
    holds: bool
    witnesses: tuple[StarWitness, ...]

    def __bool__(self) -> bool:
        return self.holds


def star_condition(
    t: StagedTree, v: str, w: str, *, t_words: dict | None = None
) -> StarResult:
    """Check t(v_i)t(w_j) = t(w_i)t(v_j) in the plain label ring.

    The products are compared without any sum-to-one reduction; every
    failing aligned index pair is returned as a witness.  t(x) is held
    as the counts of the label keys below x of the atoms through x, and
    a ``Polynomial`` is built only for a nonzero difference.  The counts
    are kept in ``t_words`` by vertex; a caller that passes one dict for
    a run of pairs of one tree counts each of them once.
    """
    aligned = _aligned_children(t, v, w)
    memo = {} if t_words is None else t_words
    keys = t.label_keys
    span = t.atom_spans
    atoms = t.atoms

    def words(x: str) -> Counter[int]:
        counts = memo.get(x)
        if counts is None:
            base = keys[x]
            lo, hi = span[x]
            counts = memo[x] = Counter(
                keys[atoms[k - 1].leaf] - base for k in range(lo, hi + 1)
            )
        return counts

    witnesses: list[StarWitness] = []
    for i in range(len(aligned)):
        for j in range(i + 1, len(aligned)):
            s_i, v_i, w_i = aligned[i]
            s_j, v_j, w_j = aligned[j]
            difference: Counter[int] = Counter()
            for x, y, sign in ((v_i, w_j, 1), (w_i, v_j, -1)):
                for m, p in words(x).items():
                    for n, q in words(y).items():
                        difference[m + n] += sign * p * q
            if any(difference.values()):
                witnesses.append(StarWitness(
                    i + 1, j + 1, s_i.name, s_j.name, _key_polynomial(t, difference)
                ))
    return StarResult(v, w, not witnesses, tuple(witnesses))


@dataclass(frozen=True)
class ToricityVerdict:
    toric: bool
    failures: tuple[StarResult, ...]
    all_same_position: bool
    checked_pairs: int

    def __bool__(self) -> bool:
        return self.toric


def is_toric(t: StagedTree) -> ToricityVerdict:
    """Decide toricity: the condition must hold for every staged pair.

    Also reports the sufficient fast path (all same-stage pairs being
    same-position forces toricity; the converse fails in general): it
    holds when no stage class splits into several positions.  The pairs
    share one ``t_words`` dict, which lives for this call only.
    """
    failures: list[StarResult] = []
    checked = 0
    t_words: dict = {}
    for v, w in same_stage_pairs(t):
        checked += 1
        result = star_condition(t, v, w, t_words=t_words)
        if not result.holds:
            failures.append(result)
    return ToricityVerdict(
        toric=not failures,
        failures=tuple(failures),
        all_same_position=len(t.position_classes()) == len(t.stage_classes()),
        checked_pairs=checked,
    )


# -- containment evidence ----------------------------------------------


@dataclass(frozen=True)
class ContainmentReport:
    """Kernel containment evidence for all three generator sets."""

    checked: dict[str, int]
    phi_failures: tuple[tuple[str, Polynomial, Polynomial], ...]
    mpaths_toric_images: tuple[tuple[Polynomial, Polynomial], ...]

    @property
    def ok(self) -> bool:
        return not self.phi_failures

    @property
    def mpaths_in_toric_kernel(self) -> bool:
        return all(image.is_zero() for _, image in self.mpaths_toric_images)

    @property
    def mpaths_all_binomial(self) -> bool:
        return all(gen.is_binomial() for gen, _ in self.mpaths_toric_images)


class BracketImages:
    """Images of bracket quadrics p_[a]p_[b] - p_[c]p_[d] under phi.

    phi(p_[v]) = L(v)*t(v), where L(v) is the label monomial from the
    root to v.  The sum-to-one reduction red sends every t(v) to 1:
    t(v) is the sum over v's edges of label*t(child), and the labels
    leaving v are those of one stage, which red sends to a sum of 1.
    red is a ring map, so with M1 = L(a)L(b) and M2 = L(c)L(d):

        red(phi(quadric)) = red(M1) - red(M2)

    The reduced image is zero when M1 = M2, as it is for every
    generator of the three sets, and is expanded only otherwise.  The
    monomial image is read off the quadric's atom-pair table instead:
    phi(sum of k*p_i*p_j) = sum of k*m_i*m_j, with m_i the monomial of
    atom i.  Label monomials multiply and compare as label keys
    (``StagedTree.label_keys``), and a ``Monomial`` is built only for a
    nonzero image.  The sum-to-one reduction is built on first use, so
    when every label monomial pair agrees it is never built.
    """

    def __init__(self, t: StagedTree):
        self._tree = t
        self._keys = t.label_keys

    @cached_property
    def _reduction(self) -> SumToOneReduction:
        return SumToOneReduction.for_tree(self._tree)

    @cached_property
    def _atom_keys(self) -> tuple[int, ...]:
        return tuple(self._keys[a.leaf] for a in self._tree.atoms)

    def label_difference(self, a: str, b: str, c: str, d: str) -> Polynomial:
        """M1 - M2 = L(a)L(b) - L(c)L(d); for four leaves that is
        phi(p_a p_b - p_c p_d)."""
        keys = self._keys
        m1, m2 = keys[a] + keys[b], keys[c] + keys[d]
        if m1 == m2:
            return Polynomial.zero()
        return _key_polynomial(self._tree, {m1: 1, m2: -1})

    def reduced(self, a: str, b: str, c: str, d: str) -> Polynomial:
        """red(phi(p_[a]p_[b] - p_[c]p_[d])); zero iff the quadric is in ker phi."""
        image = self.label_difference(a, b, c, d)
        return image if image.is_zero() else self._reduction.apply(image)

    def toric_image(self, terms: QuadricTerms) -> Polynomial:
        """phi of a ``quadric_terms`` table, in the full label ring."""
        keys = self._atom_keys
        image: Counter[int] = Counter()
        for (hi, lo), k in terms:
            image[keys[hi - 1] + keys[lo - 1]] += k
        return _key_polynomial(self._tree, image)


def containment_report(t: StagedTree) -> ContainmentReport:
    """Check every generator of every ideal against ker phi.

    A nonzero reduced image is a hard failure.  For the maximal-path
    generators the unreduced monomial image is recorded too: on a toric
    tree those must vanish and every generator must be a binomial.
    Reduced images come from the generators' bracket endpoints and
    monomial images from their atom-pair tables (``BracketImages``).
    The sets are assembled as ``canonical_tables``: a ``Polynomial`` is
    built for a failing generator and for each maximal-path generator,
    and no provenance.
    """
    images = BracketImages(t)
    checked: dict[str, int] = {}
    failures: list[tuple[str, Polynomial, Polynomial]] = []
    for kind, items in (("model", model_items), ("paths", paths_items), ("mpaths", mpaths_items)):
        entries = canonical_tables(t, items(t))
        checked[kind] = len(entries)
        for table, ends, _ in entries:
            image = images.reduced(*ends)
            if not image.is_zero():
                failures.append((kind, quadric_polynomials(t, [table])[0], image))
    # ``entries`` is the maximal-path set now.
    tables = [table for table, _, _ in entries]
    return ContainmentReport(
        checked=checked,
        phi_failures=tuple(failures),
        mpaths_toric_images=tuple(
            (gen, images.toric_image(table))
            for gen, table in zip(quadric_polynomials(t, tables), tables)
        ),
    )


# -- the parametrisation itself ----------------------------------------


def psi_evaluate(
    t: StagedTree, theta: Mapping[Symbol, Scalar]
) -> list[Fraction]:
    """Atom probabilities at a parameter point, exactly.

    The assignment must cover every label symbol, be strictly positive,
    and sum to 1 within each stage class; the open simplex for the
    output is then automatic and the result sums to 1 exactly.
    """
    values: dict[Symbol, Fraction] = {}
    for cls in t.stage_classes():
        total = Fraction(0)
        for s in cls.labels:
            try:
                x = Fraction(theta[s])
            except KeyError:
                raise UnboundSymbol(f"no value for label {s.name!r}") from None
            if x <= 0:
                raise InvalidSimplexPoint(
                    f"label {s.name!r} must be strictly positive, got {x}"
                )
            values[s] = x
            total += x
        if total != 1:
            raise InvalidSimplexPoint(
                f"labels of stage class {cls.index} sum to {total}, not 1"
            )
    # t.edges() lists each parent's edges before its children's, so every
    # vertex's path product is one multiplication from its parent's.
    prob = {t.root: Fraction(1)}
    for e in t.edges():
        prob[e.child] = prob[e.parent] * values[e.label]
    out = [prob[atom.leaf] for atom in t.atoms]
    assert sum(out) == 1
    return out
