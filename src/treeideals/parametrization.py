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
    GeneratorSet,
    QuadricTerms,
    _aligned_children,
    model_invariant_generators,
    mpaths_generators,
    paths_ideal_generators,
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


def _word_polynomial(t: StagedTree, counts: Mapping[tuple[int, ...], int]) -> Polynomial:
    """The sum of k times the label product of w, over the label words
    w -> k of ``counts`` (see ``StagedTree.label_word``).  Words with
    k = 0 build no monomial."""
    labels = t.label_symbols
    return Polynomial(
        (Monomial((labels[i], e) for i, e in Counter(word).items()), k)
        for word, k in counts.items() if k
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


def star_condition(t: StagedTree, v: str, w: str) -> StarResult:
    """Check t(v_i)t(w_j) = t(w_i)t(v_j) in the plain label ring.

    The products are compared without any sum-to-one reduction; every
    failing aligned index pair is returned as a witness.  t(x) is held
    as the counts of the sorted label words below x of the atoms through
    x, and a ``Polynomial`` is built only for a nonzero difference.
    """
    aligned = _aligned_children(t, v, w)
    below: dict[str, Counter[tuple[int, ...]]] = {}

    def t_words(x: str) -> Counter[tuple[int, ...]]:
        if x not in below:
            depth = t.depth_of(x)
            below[x] = Counter(
                tuple(sorted(t.label_word(t.atoms[k - 1].leaf)[depth:]))
                for k in t.atom_indices(x)
            )
        return below[x]

    witnesses: list[StarWitness] = []
    for i in range(len(aligned)):
        for j in range(i + 1, len(aligned)):
            s_i, v_i, w_i = aligned[i]
            s_j, v_j, w_j = aligned[j]
            difference: Counter[tuple[int, ...]] = Counter()
            for x, y, sign in ((v_i, w_j, 1), (w_i, v_j, -1)):
                for m, p in t_words(x).items():
                    for n, q in t_words(y).items():
                        difference[tuple(sorted(m + n))] += sign * p * q
            if any(difference.values()):
                witnesses.append(StarWitness(
                    i + 1, j + 1, s_i.name, s_j.name, _word_polynomial(t, difference)
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
    holds when no stage class splits into several positions.
    """
    failures: list[StarResult] = []
    checked = 0
    for v, w in same_stage_pairs(t):
        checked += 1
        result = star_condition(t, v, w)
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
    atom i.  L(v) is the label word of v, label monomials are compared
    as sorted words, and a ``Monomial`` is built only for a nonzero
    image.  The sum-to-one reduction is built on first use, so when
    every label monomial pair agrees it is never built.
    """

    def __init__(self, t: StagedTree):
        self._tree = t

    @cached_property
    def _reduction(self) -> SumToOneReduction:
        return SumToOneReduction.for_tree(self._tree)

    def reduced(self, a: str, b: str, c: str, d: str) -> Polynomial:
        """red(phi(p_[a]p_[b] - p_[c]p_[d])); zero iff the quadric is in ker phi."""
        word = self._tree.label_word
        m1, m2 = tuple(sorted(word(a) + word(b))), tuple(sorted(word(c) + word(d)))
        if m1 == m2:
            return Polynomial.zero()
        return self._reduction.apply(_word_polynomial(self._tree, {m1: 1, m2: -1}))

    def toric_image(self, terms: QuadricTerms) -> Polynomial:
        """phi of a ``quadric_terms`` table, in the full label ring."""
        t = self._tree
        image: Counter[tuple[int, ...]] = Counter()
        for (hi, lo), k in terms:
            image[tuple(sorted(
                t.label_word(t.atoms[hi - 1].leaf) + t.label_word(t.atoms[lo - 1].leaf)
            ))] += k
        return _word_polynomial(t, image)


def containment_report(t: StagedTree) -> ContainmentReport:
    """Check every generator of every ideal against ker phi.

    A nonzero reduced image is a hard failure.  For the maximal-path
    generators the unreduced monomial image is recorded too: on a toric
    tree those must vanish and every generator must be a binomial.
    Reduced images come from the generators' bracket endpoints and
    monomial images from their atom-pair tables (``BracketImages``).
    """
    images = BracketImages(t)
    sets: list[GeneratorSet] = [
        model_invariant_generators(t),
        paths_ideal_generators(t),
        mpaths_generators(t),
    ]
    checked: dict[str, int] = {}
    failures: list[tuple[str, Polynomial, Polynomial]] = []
    for genset in sets:
        checked[genset.kind] = len(genset.generators)
        for gen, ends in zip(genset.generators, genset.endpoints):
            image = images.reduced(*ends)
            if not image.is_zero():
                failures.append((genset.kind, gen, image))
    mpaths = sets[-1]
    return ContainmentReport(
        checked=checked,
        phi_failures=tuple(failures),
        mpaths_toric_images=tuple(
            (gen, images.toric_image(terms))
            for gen, terms in zip(mpaths.generators, mpaths.tables)
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
