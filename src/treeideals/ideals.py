"""Generator sets attached to a staged tree.

Three ideals are constructed, all inside the ring spanned by the atom
symbols:

* the model invariants: one odds-ratio quadric per same-stage vertex
  pair and shared edge label;
* the path ideal: bracket differences p_[v_i]p_[w_j] - p_[w_i]p_[v_j]
  over the label-aligned children of every same-stage pair;
* the maximal-path ideal: the same differences after extending each
  seed pair of paths as far as equal label products allow.

Every generator p_[a]p_[b] - p_[c]p_[d] is a degree-2 form in the
atoms with integer coefficients, because each bracket sums an interval
of atoms; it is built as a table of atom-pair cells (``quadric_terms``)
and turned into a ``Polynomial`` once.  Every generator set is
canonicalized: sign-normalized so the leading coefficient is positive,
deduplicated, zeros dropped, sorted descending in the term order.
Provenance records which stage pair and which paths produced each
generator.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import NotSameStage
from .polycore import Monomial, Polynomial, Symbol
from .stagedtree import StagedTree


@dataclass(frozen=True, slots=True)
class SeedOrigin:
    """The stage pair and aligned label indices a path pair came from."""

    v: str
    w: str
    i: int
    j: int
    label_i: str
    label_j: str

    def __str__(self) -> str:
        return (
            f"stage pair ({self.v}, {self.w}), "
            f"labels ({self.label_i}, {self.label_j})"
        )


@dataclass(frozen=True, slots=True)
class PathPair:
    """Two vertex-to-vertex paths, each fixed by its two endpoints.

    A path in a tree is determined by its ends; ``tree_path`` gives its
    vertices.  The convention throughout: the difference polynomial of
    the pair is head1*tail1 - head2*tail2, each factor a bracket sum.
    """

    head1: str
    tail1: str
    head2: str
    tail2: str
    origin: SeedOrigin | None = None

    def endpoints(self) -> tuple[str, str, str, str]:
        return (self.head1, self.tail1, self.head2, self.tail2)

    def __str__(self) -> str:
        return (
            f"({self.head1}->{self.tail1}, {self.head2}->{self.tail2})"
        )


@dataclass(frozen=True)
class GeneratorSet:
    """Canonical list of ideal generators; provenance maps each generator
    to the origins that produced it.

    ``endpoints`` holds one vertex quadruple (a, b, c, d) per generator,
    in generator order, with gen == p_[a]p_[b] - p_[c]p_[d] exactly;
    ``tables`` holds each generator's ``quadric_terms`` table, in the
    same order.
    """

    kind: str
    generators: tuple[Polynomial, ...]
    provenance: dict[Polynomial, tuple[str, ...]]
    endpoints: tuple[tuple[str, str, str, str], ...]
    tables: tuple[QuadricTerms, ...]

    def __iter__(self) -> Iterator[Polynomial]:
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def as_set(self) -> frozenset[Polynomial]:
        return frozenset(self.generators)


def canonical_tables(
    t: StagedTree, items: Iterable[tuple[str, str, str, str, object]]
) -> list[tuple[QuadricTerms, tuple[str, str, str, str], list[object]]]:
    """The distinct nonzero quadrics p_[a]p_[b] - p_[c]p_[d] of the items
    (a, b, c, d, origin), as (table, endpoints, origins) in generator order.

    Tables are sign-normalized (``canonical_quadric``), each keeps the
    endpoints of the first item that produced it, oriented to its sign,
    and collects the origins of all of them.
    """
    acc: dict[QuadricTerms, tuple[tuple[str, str, str, str], list[object]]] = {}
    for a, b, c, d, origin in items:
        terms, flipped = canonical_quadric(t, a, b, c, d)
        if terms:
            ends = (c, d, a, b) if flipped else (a, b, c, d)
            acc.setdefault(terms, (ends, []))[1].append(origin)
    return [(k, *acc[k]) for k in sorted(acc, key=quadric_key, reverse=True)]


def _generator_set(
    t: StagedTree,
    kind: str,
    items: Iterable[tuple[str, str, str, str, object]],
    describe: Callable[[object], str],
) -> GeneratorSet:
    """The canonical generator set of the items, each origin read as a
    provenance entry by ``describe``."""
    entries = canonical_tables(t, items)
    tables = tuple(table for table, _, _ in entries)
    generators = quadric_polynomials(t, tables)
    return GeneratorSet(
        kind=kind,
        generators=generators,
        provenance={
            g: tuple(map(describe, origins)) for g, (_, _, origins) in zip(generators, entries)
        },
        endpoints=tuple(ends for _, ends, _ in entries),
        tables=tables,
    )


# -- quadrics as atom-pair tables ---------------------------------------

#: A degree-2 form in the atoms: ((hi, lo), coefficient) cells over 1-based
#: atom indices hi >= lo, nonzero, ascending in (hi, lo).
QuadricTerms = tuple[tuple[tuple[int, int], int], ...]


def _nonzero_cells(
    t: StagedTree, a: str, b: str, c: str, d: str
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    """The nonzero cells of p_[a]p_[b] - p_[c]p_[d], ascending, and their
    coefficients.

    The quadric is the rectangle [a]x[b] of atom pairs minus [c]x[d],
    folded onto hi >= lo; only the cells of one rectangle and not the
    other are visited.  Each bracket is an inclusive atom span (lo, hi).
    """
    span = t.atom_spans
    (la, ha), (lb, hb), (lc, hc), (ld, hd) = span[a], span[b], span[c], span[d]
    if la == ha and lb == hb and lc == hc and ld == hd:
        # Four leaves: one cell each side, cancelling when they agree.
        first = (la, lb) if la >= lb else (lb, la)
        second = (lc, ld) if lc >= ld else (ld, lc)
        if first == second:
            return [], {}
        return sorted((first, second)), {first: 1, second: -1}
    lo, hi = max(la, lc), min(ha, hc)  # rows in both [a] and [c]
    blocks = (  # (first row, last row, first column, last column, sign)
        (la, min(ha, lc - 1), lb, hb, 1), (max(la, hc + 1), ha, lb, hb, 1),
        (lc, min(hc, la - 1), ld, hd, -1), (max(lc, ha + 1), hc, ld, hd, -1),
        (lo, hi, lb, min(hb, ld - 1), 1), (lo, hi, max(lb, hd + 1), hb, 1),
        (lo, hi, ld, min(hd, lb - 1), -1), (lo, hi, max(ld, hb + 1), hd, -1),
    )
    cells: dict[tuple[int, int], int] = {}
    for r0, r1, c0, c1, sign in blocks:
        for i in range(r0, r1 + 1):
            for j in range(c0, c1 + 1):
                key = (i, j) if i >= j else (j, i)
                cells[key] = cells.get(key, 0) + sign
    return sorted(key for key, k in cells.items() if k), cells


def quadric_terms(t: StagedTree, a: str, b: str, c: str, d: str) -> QuadricTerms:
    """p_[a]p_[b] - p_[c]p_[d] as a table of atom-pair cells.

    Atom symbols come after every label symbol and in atom order, so
    ascending (hi, lo) is descending degrevlex order and the first cell
    is the leading term.
    """
    keys, cells = _nonzero_cells(t, a, b, c, d)
    return tuple([(key, cells[key]) for key in keys])


def canonical_quadric(
    t: StagedTree, a: str, b: str, c: str, d: str
) -> tuple[QuadricTerms, bool]:
    """``quadric_terms`` with a positive leading coefficient, and whether
    the difference was negated to get there.

    The table is built once with its sign applied, not negated as a
    copy: membership builds one per failing quadric on every call.
    """
    keys, cells = _nonzero_cells(t, a, b, c, d)
    sign = -1 if keys and cells[keys[0]] < 0 else 1
    return tuple([(key, sign * cells[key]) for key in keys]), sign < 0


def quadric_key(terms: QuadricTerms) -> tuple[int, ...]:
    """Sort key of a table, ascending as ``compare_polynomials`` on its
    polynomial: the cells as (-hi, -lo, k) triples, one after another.

    Every cell has degree 2, so a larger (-hi, -lo) is a larger monomial,
    and a run of triples compares as the pairs ((-hi, -lo), k) would.
    """
    return tuple([x for (hi, lo), k in terms for x in (-hi, -lo, k)])


def quadric_polynomials(t: StagedTree, tables: Iterable[QuadricTerms]) -> tuple[Polynomial, ...]:
    """The polynomial of each table, with one ``Monomial`` per atom pair.

    Atom symbols are numbered in atom order, so the powers of the pair
    (hi, lo) are already sorted and are not merged or sorted again.
    """
    symbols = t.atom_symbols
    monomials: dict[tuple[int, int], Monomial] = {}

    def monomial(hi: int, lo: int) -> Monomial:
        m = monomials.get((hi, lo))
        if m is None:
            s = symbols[hi - 1]
            powers = ((s, 2),) if hi == lo else ((symbols[lo - 1], 1), (s, 1))
            m = monomials[hi, lo] = Monomial._presorted(powers)
        return m

    return tuple(
        Polynomial.from_ordered((monomial(*pair), k) for pair, k in terms)
        for terms in tables
    )


# -- paths inside the tree ---------------------------------------------


def tree_path(t: StagedTree, a: str, b: str) -> tuple[str, ...]:
    """The unique path between two vertices, as a vertex sequence."""
    up_a = _chain_to_root(t, a)
    index_a = {v: k for k, v in enumerate(up_a)}
    walk: list[str] = []
    v = b
    while v not in index_a:
        walk.append(v)
        v = t.parent_of(v).parent
    meet = index_a[v]
    return tuple(up_a[: meet + 1]) + tuple(reversed(walk))


def _chain_to_root(t: StagedTree, v: str) -> list[str]:
    out = [v]
    while (edge := t.parent_of(out[-1])) is not None:
        out.append(edge.parent)
    return out


def bracket_difference(t: StagedTree, a: str, b: str, c: str, d: str) -> Polynomial:
    """The quadric p_[a]p_[b] - p_[c]p_[d], by polynomial arithmetic."""
    return t.p_bracket(a) * t.p_bracket(b) - t.p_bracket(c) * t.p_bracket(d)


def path_difference(t: StagedTree, pair: PathPair) -> Polynomial:
    return bracket_difference(t, *pair.endpoints())


# -- seeds -------------------------------------------------------------


def same_stage_pairs(t: StagedTree) -> Iterator[tuple[str, str]]:
    """Every pair (v, w) of distinct same-stage vertices, once.

    Classes in stage order, and within a class v before w in member
    order; every generator set and the toricity test walk this order.
    """
    for cls in t.stage_classes():
        for k, v in enumerate(cls.vertices):
            for w in cls.vertices[k + 1:]:
                yield v, w


def _aligned_children(t: StagedTree, v: str, w: str) -> tuple[tuple[Symbol, str, str], ...]:
    """Label-aligned child triples (s, child of v via s, child of w via s).

    Alignment is by label symbol, in declaration order of the class's
    first member; declaration order at v or w itself plays no role.
    """
    cls = t.stage_class_of(v)
    if cls is None or t.stage_class_of(w) is not cls:
        raise NotSameStage(f"vertices {v!r} and {w!r} are not in the same stage")
    if v == w:
        raise NotSameStage(f"need two distinct same-stage vertices, got {v!r} twice")
    return tuple(
        (s, t.child_via(v, s), t.child_via(w, s)) for s in cls.labels
    )


def stage_pair_seeds(t: StagedTree, v: str, w: str) -> tuple[PathPair, ...]:
    """One seed path pair per label index pair i < j of a staged pair."""
    aligned = _aligned_children(t, v, w)
    seeds = []
    for i in range(len(aligned)):
        for j in range(i + 1, len(aligned)):
            s_i, v_i, w_i = aligned[i]
            s_j, v_j, w_j = aligned[j]
            origin = SeedOrigin(v, w, i + 1, j + 1, s_i.name, s_j.name)
            seeds.append(PathPair(v_i, w_j, w_i, v_j, origin))
    return tuple(seeds)


# -- generator sets ----------------------------------------------------


def model_quadrics(t: StagedTree) -> Iterator[tuple[str, str, str, str, Symbol]]:
    """Index of the model invariants: (v, w, v', w', s) per pair and label.

    v' and w' are the children of v and w via s; the invariant is
    p_[v]p_[w'] - p_[v']p_[w].
    """
    for v, w in same_stage_pairs(t):
        for s in t.stage_class_of(v).labels:
            yield v, w, t.child_via(v, s), t.child_via(w, s), s


def model_items(t: StagedTree) -> Iterator[tuple[str, str, str, str, tuple[str, str, Symbol]]]:
    """The model invariants as ``canonical_tables`` items, with origin (v, w, s)."""
    return ((v, w1, v1, w, (v, w, s)) for v, w, v1, w1, s in model_quadrics(t))


def model_invariant_generators(t: StagedTree) -> GeneratorSet:
    """Odds-ratio quadrics p_[v]p_[w'] - p_[v']p_[w], one per pair and label."""
    return _generator_set(
        t, "model", model_items(t), lambda o: f"stage pair ({o[0]}, {o[1]}), label {o[2].name}"
    )


def stage_path_generators(t: StagedTree, v: str, w: str) -> list[Polynomial]:
    """Bracket differences of the seed paths of one staged pair.

    Returned in index-pair order (1,2), (1,3), ..., sign-normalized.
    """
    return [
        path_difference(t, seed).normalized_sign()
        for seed in stage_pair_seeds(t, v, w)
    ]


def _all_seeds(t: StagedTree) -> Iterator[PathPair]:
    """The seeds of every same-stage pair."""
    return (seed for v, w in same_stage_pairs(t) for seed in stage_pair_seeds(t, v, w))


def paths_items(t: StagedTree) -> Iterator[tuple[str, str, str, str, PathPair]]:
    """The seed path differences as ``canonical_tables`` items, with the
    seed as origin."""
    return ((*seed.endpoints(), seed) for seed in _all_seeds(t))


def paths_ideal_generators(t: StagedTree) -> GeneratorSet:
    """Union of the stage path generators over all same-stage pairs."""
    return _generator_set(
        t, "paths", paths_items(t), lambda seed: f"{seed.origin}, paths {seed}"
    )


# -- extensions --------------------------------------------------------


def extend_pair(t: StagedTree, pair: PathPair) -> list[PathPair]:
    """All single-step extensions with equal appended labels.

    One child edge is appended at an endpoint of each path, descending
    only; the two appended labels must be equal as symbols, and the new
    endpoint may not revisit its path.
    """
    out: list[PathPair] = []
    first_options = _step_options(t, pair.head1, pair.tail1)
    second_options = _step_options(t, pair.head2, pair.tail2)
    for (a, b), label1 in first_options:
        for (c, d), label2 in second_options:
            if label1 == label2:
                out.append(PathPair(a, b, c, d, pair.origin))
    return out


def _step_options(
    t: StagedTree, head: str, tail: str
) -> list[tuple[tuple[str, str], Symbol]]:
    occupied = set(tree_path(t, head, tail))
    options = []
    for e in t.children_of(head):
        if e.child not in occupied:
            options.append(((e.child, tail), e.label))
    for e in t.children_of(tail):
        if e.child not in occupied:
            options.append(((head, e.child), e.label))
    return options


def _completions(t: StagedTree, endpoint: str, skipped: str | None) -> list[tuple[str, int]]:
    """Descendants of an endpoint outside the subtree of its child
    ``skipped`` (None skips nothing), each with the label key of the
    chain down to it (see ``StagedTree.label_keys``).  Includes the
    endpoint itself, with key 0.
    """
    keys = t.label_keys
    base = keys[endpoint]
    out = [(endpoint, 0)]
    stack = [e.child for e in t.children_of(endpoint) if e.child != skipped]
    while stack:
        v = stack.pop()
        out.append((v, keys[v] - base))
        stack.extend(e.child for e in t.children_of(v))
    return out


def _by_dfs_index(t: StagedTree) -> Callable[[PathPair], tuple[int, int, int, int]]:
    """Sort key of path pairs: the depth-first indices of their endpoints."""
    order = t.dfs_indices
    return lambda p: (order[p.head1], order[p.tail1], order[p.head2], order[p.tail2])


def extension_candidates(
    t: StagedTree, seed: PathPair, *, completions: dict | None = None
) -> list[tuple[str, str, str, str]]:
    """Endpoint quadruples (a, b, c, d) that extend a seed, exhaustively.

    Each of the four endpoints descends to any vertex reachable without
    revisiting its path; a quadruple is kept when the two paths gained
    edge sets with equal label products (equality of monomials, so
    multi-edge completions with reordered labels are found).  The seed's
    own endpoints are always among them.

    The only path vertices below an endpoint lie on the way down to the
    other end, so the walk below it skips the child whose atom span
    holds the other end's.  Walks are kept in ``completions`` by
    (endpoint, skipped child); a caller that passes one dict for a run
    of seeds of one tree walks each of them once.
    """
    memo = {} if completions is None else completions
    span = t.atom_spans

    def below(endpoint: str, other: str) -> list[tuple[str, int]]:
        lo, hi = span[other]
        skipped = None
        for e in t.children_of(endpoint):
            first, last = span[e.child]
            if first <= lo and hi <= last:
                skipped = e.child
                break
        walk = memo.get((endpoint, skipped))
        if walk is None:
            walk = memo[endpoint, skipped] = _completions(t, endpoint, skipped)
        return walk

    heads1 = below(seed.head1, seed.tail1)
    tails1 = below(seed.tail1, seed.head1)
    heads2 = below(seed.head2, seed.tail2)
    tails2 = below(seed.tail2, seed.head2)

    # Label products multiply and compare as their label keys.
    first: dict[int, list[tuple[str, str]]] = {}
    for a, ma in heads1:
        for b, mb in tails1:
            first.setdefault(ma + mb, []).append((a, b))
    candidates: list[tuple[str, str, str, str]] = []
    for c, mc in heads2:
        for d, md in tails2:
            for a, b in first.get(mc + md, ()):
                candidates.append((a, b, c, d))
    return candidates


def maximal_extensions(
    t: StagedTree, seed: PathPair, *, completions: dict | None = None
) -> list[PathPair]:
    """Maximal extensions of a seed under equal label products.

    These are the maximal elements of ``extension_candidates`` (which
    gets ``completions``), where q extends p when each endpoint of q
    descends from (or is) the same endpoint of p, that is when each of
    q's atom spans lies inside p's.  Spans nest or are disjoint, so with
    the candidates sorted by their first span only those whose first
    span starts inside p's first span are compared with p.  A span of
    one atom is a leaf (``validate_tree`` rejects unary vertices), so a
    candidate with four one-atom spans is maximal without a comparison.
    """
    candidates = extension_candidates(t, seed, completions=completions)
    span = t.atom_spans
    boxes = sorted(
        (span[a] + span[b] + span[c] + span[d], (a, b, c, d))
        for a, b, c, d in candidates
    )
    starts = [box[0] for box, _ in boxes]
    maximal = []
    for (la, ha, lb, hb, lc, hc, ld, hd), p in boxes:
        if la == ha and lb == hb and lc == hc and ld == hd:
            maximal.append(PathPair(*p, seed.origin))
            continue
        inside = boxes[bisect_left(starts, la):bisect_right(starts, ha)]
        if not any(
            ha2 <= ha and lb <= lb2 and hb2 <= hb and lc <= lc2 and hc2 <= hc
            and ld <= ld2 and hd2 <= hd and q != p
            for (_, ha2, lb2, hb2, lc2, hc2, ld2, hd2), q in inside
        ):
            maximal.append(PathPair(*p, seed.origin))
    maximal.sort(key=_by_dfs_index(t))
    return maximal


def maximal_extensions_stepwise(t: StagedTree, seed: PathPair) -> list[PathPair]:
    """Closure under single equal-label steps.

    This pass can miss completions whose label products only agree as
    whole products, so `maximal_extensions` is the authoritative one and
    the only one `mpaths_generators` uses; the test suite keeps this
    search as a reference to compare against.
    """
    seen = {seed}
    frontier = [seed]
    maximal = []
    while frontier:
        pair = frontier.pop()
        steps = extend_pair(t, pair)
        if not steps:
            maximal.append(pair)
            continue
        for nxt in steps:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    maximal.sort(key=_by_dfs_index(t))
    return maximal


def fully_extends(t: StagedTree, seed: PathPair) -> bool:
    """True when every maximal extension ends at four leaves."""
    return all(
        all(t.is_leaf(x) for x in pair.endpoints())
        for pair in maximal_extensions(t, seed)
    )


def mpaths_items(
    t: StagedTree,
) -> Iterator[tuple[str, str, str, str, tuple[PathPair, PathPair]]]:
    """The maximal extensions of all seeds as ``canonical_tables`` items,
    with origin (seed, maximal extension).

    The seeds share one ``completions`` dict, which lives as long as the
    iterator, so each subtree walk is made once.
    """
    completions: dict = {}
    return (
        (*pair.endpoints(), (seed, pair))
        for seed in _all_seeds(t)
        for pair in maximal_extensions(t, seed, completions=completions)
    )


def mpaths_generators(t: StagedTree) -> GeneratorSet:
    """Bracket differences of all maximal extensions of all seeds."""
    return _generator_set(
        t, "mpaths", mpaths_items(t), lambda o: f"{o[0].origin}, seed {o[0]}, maximal {o[1]}"
    )


# -- scalars of the model ----------------------------------------------


def denominator_product(t: StagedTree) -> Polynomial:
    """Product of p_[v] over vertices in stage classes of size >= 2.

    These brackets are exactly the denominators appearing in the
    recovered conditional probabilities of the staged vertices.
    """
    result = Polynomial.one()
    for cls in t.stage_classes():
        if cls.size < 2:
            continue
        for v in cls.vertices:
            result = result * t.p_bracket(v)
    return result


def dimension_forms(t: StagedTree) -> tuple[int, int]:
    """Both readings of the dimension count: by classes and by edges.

    The first sums (arity - 1) over stage classes; the second counts
    edges minus internal vertices minus the identification overlap.
    They agree on every valid tree.
    """
    by_classes = sum(cls.arity - 1 for cls in t.stage_classes())
    overlap = sum((cls.size - 1) * (cls.arity - 1) for cls in t.stage_classes())
    by_edges = t.n_edges - len(t.internal_vertices) - overlap
    return by_classes, by_edges


def model_dimension(t: StagedTree) -> int:
    """Number of free parameters: sum of (arity - 1) over stage classes."""
    by_classes, by_edges = dimension_forms(t)
    assert by_classes == by_edges, "dimension formulas disagree"
    return by_classes
