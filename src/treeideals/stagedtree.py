"""Rooted trees with labelled edges and shared-label stage structure.

A tree is described by a ``TreeDefinition`` (pure data, as parsed from a
document) and compiled by ``build_tree`` into an immutable ``StagedTree``
carrying the tree's structure: the atom enumeration in depth-first
order, the atom interval of every vertex and the stage partition.  The
bracket sums ``p_[v]`` and subtree polynomials ``t(v)`` are read off
those intervals, each built on first use.  Stages are never declared
explicitly: two vertices are in the same stage exactly when their
outgoing edges use the same set of label names.  Label names are the
single source of stage information, here and in the file format.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import UnknownVertex, ValidationError
from .polycore import ATOM, LABEL, Monomial, Polynomial, Symbol, SymbolTable

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# -- raw definitions ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class EdgeDef:
    to: str
    label: str


@dataclass(frozen=True, slots=True)
class VertexDef:
    id: str
    edges: tuple[EdgeDef, ...] = ()


@dataclass(frozen=True, slots=True)
class TreeDefinition:
    """Parse-level description of a tree, prior to any validation.

    Edge targets that are never declared as vertices are implicit
    leaves.  ``atom_names`` optionally overrides the default ``p1..pn``
    display names of the atom symbols, listed in depth-first atom order.
    """

    root: str
    vertices: tuple[VertexDef, ...]
    atom_names: tuple[str, ...] | None = None


@dataclass(frozen=True, slots=True)
class Violation:
    code: str
    message: str
    vertex: str | None = None


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_tree(definition: TreeDefinition) -> ValidationReport:
    """Collect every structural violation; an empty report means valid."""
    out: list[Violation] = []
    declared: dict[str, VertexDef] = {}
    for v in definition.vertices:
        if v.id in declared:
            out.append(Violation("duplicate-vertex", f"vertex {v.id!r} declared twice", v.id))
        else:
            declared[v.id] = v

    if definition.root not in declared:
        out.append(Violation("unknown-root", f"root {definition.root!r} is not declared"))

    # Per-vertex edge checks.
    parents: dict[str, list[str]] = {}
    for v in declared.values():
        seen_labels: set[str] = set()
        for e in v.edges:
            if not _NAME_RE.match(e.label):
                out.append(Violation(
                    "bad-label-name",
                    f"label {e.label!r} at vertex {v.id!r} is not a valid name",
                    v.id,
                ))
            if e.label in seen_labels:
                out.append(Violation(
                    "duplicate-edge-label",
                    f"label {e.label!r} repeated at vertex {v.id!r}",
                    v.id,
                ))
            seen_labels.add(e.label)
            parents.setdefault(e.to, []).append(v.id)
        if len(v.edges) == 1:
            out.append(Violation(
                "unary-vertex",
                f"unary vertex {v.id!r}: every non-leaf needs at least two children",
                v.id,
            ))

    for child, ps in sorted(parents.items()):
        if len(ps) > 1:
            out.append(Violation(
                "multiple-parents",
                f"vertex {child!r} has several parents: {', '.join(ps)}",
                child,
            ))
    if definition.root in parents:
        out.append(Violation(
            "root-has-parent",
            f"root {definition.root!r} appears as an edge target",
            definition.root,
        ))

    # Reachability from the root; guards against cycles as well.
    if definition.root in declared:
        reached: set[str] = set()
        stack = [definition.root]
        while stack:
            v = stack.pop()
            if v in reached:
                continue
            reached.add(v)
            vd = declared.get(v)
            if vd is not None:
                stack.extend(e.to for e in vd.edges)
        for v in declared:
            if v not in reached:
                out.append(Violation(
                    "unreachable-vertex",
                    f"vertex {v!r} is not reachable from the root",
                    v,
                ))

    # Stage consistency: one label name must always travel with the same
    # full label set, otherwise the stage relation is ill-defined.
    label_sets: dict[str, frozenset[str]] = {}
    for v in declared.values():
        if not v.edges:
            continue
        labels = frozenset(e.label for e in v.edges)
        for name in sorted(labels):
            prior = label_sets.get(name)
            if prior is None:
                label_sets[name] = labels
            elif prior != labels:
                out.append(Violation(
                    "inconsistent-stage",
                    f"label {name!r} at vertex {v.id!r} appears with label set "
                    f"{{{', '.join(sorted(labels))}}} but elsewhere with "
                    f"{{{', '.join(sorted(prior))}}}",
                    v.id,
                ))

    # Atom names share the symbol table with the labels, so the default
    # names p1..pn must not collide with a label either.
    if not out:
        names = definition.atom_names
        n_leaves = _count_leaves(definition, declared)
        if names is None:
            names = tuple(f"p{i}" for i in range(1, n_leaves + 1))
        elif len(names) != n_leaves:
            out.append(Violation(
                "atom-names-count",
                f"{len(names)} atom names given for {n_leaves} atoms",
            ))
        seen: set[str] = set()
        all_labels = {e.label for v in declared.values() for e in v.edges}
        for name in names:
            if not _NAME_RE.match(name):
                out.append(Violation("atom-names-invalid", f"atom name {name!r} is not a valid name"))
            if name in seen:
                out.append(Violation("atom-names-duplicate", f"atom name {name!r} repeated"))
            seen.add(name)
            if name in all_labels:
                out.append(Violation(
                    "atom-names-collision",
                    f"atom name {name!r} collides with an edge label",
                ))

    return ValidationReport(tuple(out))


def _count_leaves(definition: TreeDefinition, declared: dict[str, VertexDef]) -> int:
    count = 0
    stack = [definition.root]
    while stack:
        v = stack.pop()
        vd = declared.get(v)
        if vd is None or not vd.edges:
            count += 1
        else:
            stack.extend(e.to for e in vd.edges)
    return count


# -- compiled tree -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class Edge:
    parent: str
    child: str
    label: Symbol


@dataclass(frozen=True, slots=True)
class Atom:
    """One root-to-leaf path: index (1-based), its symbol, its labels."""

    index: int
    leaf: str
    vertices: tuple[str, ...]
    labels: tuple[Symbol, ...]
    symbol: Symbol

    @property
    def monomial(self) -> Monomial:
        """The product of ``labels``, built on each read."""
        return Monomial(Counter(self.labels).items())


@dataclass(frozen=True, slots=True)
class StageClass:
    """Maximal set of vertices sharing one outgoing label set.

    ``labels`` is in declaration order of the first member; that order
    fixes the index alignment used by seeds and condition checks.
    """

    index: int
    vertices: tuple[str, ...]
    labels: tuple[Symbol, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def arity(self) -> int:
        return len(self.labels)


class StagedTree:
    """Compiled, immutable staged tree; p_[v] and t(v) built on first use."""

    __slots__ = (
        "definition", "table", "root", "vertices", "internal_vertices",
        "leaves", "atoms", "atom_symbols", "label_symbols",
        "_children", "_child_by_label", "_parent_edge", "_depth", "_order", "_span",
        "_p_bracket", "_t_poly", "_keys", "_key_width", "_classes", "_class_of",
        "_atom_by_name",
    )

    def __init__(self, definition: TreeDefinition):
        report = validate_tree(definition)
        if not report.ok:
            raise ValidationError(report)
        self.definition = definition
        self.table = SymbolTable()
        self.root = definition.root

        declared = {v.id: v for v in definition.vertices}

        # Depth-first pre-order; children in declaration order.  Each
        # vertex's root path and label word extend its parent's.
        order: list[str] = []
        children: dict[str, tuple[Edge, ...]] = {}
        parent_edge: dict[str, Edge] = {}
        path: dict[str, tuple[str, ...]] = {self.root: (self.root,)}
        word: dict[str, tuple[Symbol, ...]] = {self.root: ()}
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            vd = declared.get(v)
            edge_defs = vd.edges if vd is not None else ()
            edges = []
            for e in edge_defs:
                label = self.table.get_or_create(e.label, LABEL)
                edge = Edge(v, e.to, label)
                edges.append(edge)
                parent_edge[e.to] = edge
                path[e.to] = path[v] + (e.to,)
                word[e.to] = word[v] + (label,)
            children[v] = tuple(edges)
            stack.extend(e.to for e in reversed(edge_defs))

        self.vertices = tuple(order)
        self._children = children
        self._child_by_label: dict[str, dict[Symbol, str]] = {}
        self._parent_edge = parent_edge
        self._depth = {v: len(w) for v, w in word.items()}
        self._order = {v: i for i, v in enumerate(order)}
        self.internal_vertices = tuple(v for v in order if children[v])
        self.leaves = tuple(v for v in order if not children[v])

        # Atoms, named p1..pn unless overridden.
        names = definition.atom_names
        atoms: list[Atom] = []
        for i, leaf in enumerate(self.leaves, start=1):
            name = names[i - 1] if names is not None else f"p{i}"
            symbol = self.table.new(name, ATOM)
            atoms.append(Atom(i, leaf, path[leaf], word[leaf], symbol))
        self.atoms = tuple(atoms)
        self.atom_symbols = tuple(a.symbol for a in atoms)
        self.label_symbols = tuple(s for s in self.table if s.kind == LABEL)
        self._atom_by_name = {a.symbol.name: a for a in atoms}

        # Contiguous atom index spans per vertex (depth-first order makes
        # every [v] an interval).
        leaf_index = {a.leaf: a.index for a in atoms}
        span: dict[str, tuple[int, int]] = {}
        for v in reversed(order):
            if not children[v]:
                i = leaf_index[v]
                span[v] = (i, i)
            else:
                first, last = children[v][0].child, children[v][-1].child
                span[v] = (span[first][0], span[last][1])
        self._span = span
        self._p_bracket: dict[str, Polynomial] = {}
        self._t_poly: dict[str, Polynomial] = {}
        # Bits per label in a label key: a sum of two keys counts a label
        # at most twice the depth of the tree.
        self._keys: Mapping[str, int] | None = None
        self._key_width = (2 * max(self._depth.values()) + 1).bit_length()

        # Stage partition of the internal vertices, keyed by label set;
        # classes ordered by first member, members in depth-first order.
        by_labelset: dict[frozenset[Symbol], list[str]] = {}
        for v in self.internal_vertices:
            key = frozenset(e.label for e in children[v])
            by_labelset.setdefault(key, []).append(v)
        classes: list[StageClass] = []
        for members in sorted(by_labelset.values(), key=lambda ms: self._order[ms[0]]):
            first = members[0]
            labels = tuple(e.label for e in children[first])
            classes.append(StageClass(len(classes), tuple(members), labels))
        self._classes = tuple(classes)
        self._class_of = {v: c for c in classes for v in c.vertices}

    # -- structure ----------------------------------------------------

    def _require(self, v: str) -> None:
        if v not in self._order:
            raise UnknownVertex(f"no vertex {v!r} in this tree")

    def has_vertex(self, v: str) -> bool:
        return v in self._order

    def children_of(self, v: str) -> tuple[Edge, ...]:
        self._require(v)
        return self._children[v]

    def parent_of(self, v: str) -> Edge | None:
        self._require(v)
        return self._parent_edge.get(v)

    def child_via(self, v: str, label: Symbol) -> str:
        """The child of v along ``label``, from a per-vertex dict built on
        first use."""
        by_label = self._child_by_label.get(v)
        if by_label is None:
            by_label = self._child_by_label[v] = {
                e.label: e.child for e in self.children_of(v)
            }
        child = by_label.get(label)
        if child is None:
            raise UnknownVertex(f"vertex {v!r} has no edge labelled {label.name!r}")
        return child

    def is_leaf(self, v: str) -> bool:
        self._require(v)
        return not self._children[v]

    def depth_of(self, v: str) -> int:
        self._require(v)
        return self._depth[v]

    def dfs_index(self, v: str) -> int:
        self._require(v)
        return self._order[v]

    @property
    def dfs_indices(self) -> Mapping[str, int]:
        """``dfs_index`` of every vertex, as one read-only mapping."""
        return MappingProxyType(self._order)

    def is_descendant_or_self(self, v: str, ancestor: str) -> bool:
        self._require(v)
        self._require(ancestor)
        lo_a, hi_a = self._span[ancestor]
        lo_v, hi_v = self._span[v]
        return lo_a <= lo_v and hi_v <= hi_a

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_edges(self) -> int:
        return sum(len(es) for es in self._children.values())

    def edges(self) -> Iterable[Edge]:
        for v in self.vertices:
            yield from self._children[v]

    # -- atoms and brackets -------------------------------------------

    def atom_by_name(self, name: str) -> Atom:
        try:
            return self._atom_by_name[name]
        except KeyError:
            raise UnknownVertex(f"no atom named {name!r}") from None

    def atom_indices(self, v: str) -> range:
        """1-based indices of the atoms whose path passes through v."""
        self._require(v)
        lo, hi = self._span[v]
        return range(lo, hi + 1)

    @property
    def atom_spans(self) -> Mapping[str, tuple[int, int]]:
        """Every vertex's atom span (lo, hi), as one read-only mapping:
        ``atom_indices(v)`` is lo..hi inclusive."""
        return MappingProxyType(self._span)

    def paths_through(self, v: str) -> frozenset[int]:
        return frozenset(self.atom_indices(v))

    def p_bracket(self, v: str) -> Polynomial:
        """Sum of the atom symbols routed through v, built on first use."""
        if v not in self._p_bracket:
            self._p_bracket[v] = Polynomial(
                (Monomial.of(self.atoms[i - 1].symbol), 1) for i in self.atom_indices(v)
            )
        return self._p_bracket[v]

    @property
    def label_keys(self) -> Mapping[str, int]:
        """Every vertex's root-path label product as one packed integer.

        Label ``label_symbols[i]`` counts in bits ``width*i`` up to
        ``width*(i+1)``, where ``width`` holds any count up to twice the
        depth of the tree.  So a sum of two keys never carries from one
        label into the next, and key(a) + key(b) == key(c) + key(d)
        exactly when L(a)L(b) == L(c)L(d).  The label product of the
        chain from x down to v is key(v) - key(x).  Built on first use,
        in one pass that gives each child its parent's key plus one in
        the slot of its edge label.
        """
        if self._keys is None:
            width = self._key_width
            keys = {self.root: 0}
            for e in self.edges():
                keys[e.child] = keys[e.parent] + (1 << width * e.label.index)
            self._keys = MappingProxyType(keys)
        return self._keys

    def label_powers(self, key: int) -> tuple[tuple[Symbol, int], ...]:
        """The (label, exponent) pairs of a label key, or of a sum of two,
        ascending in symbol index and without zero exponents."""
        width = self._key_width
        mask = (1 << width) - 1
        powers = []
        for s in self.label_symbols:
            if not key:
                break
            if key & mask:
                powers.append((s, key & mask))
            key >>= width
        return tuple(powers)

    def t_polynomial(self, v: str) -> Polynomial:
        """Sum over v-to-leaf paths of their edge label products.

        Each such path is the part below v of one atom through v.  Built
        on first use.
        """
        if v not in self._t_poly:
            depth = self._depth[v]
            self._t_poly[v] = Polynomial(
                (Monomial((s, 1) for s in self.atoms[i - 1].labels[depth:]), 1)
                for i in self.atom_indices(v)
            )
        return self._t_poly[v]

    # -- stages and positions -----------------------------------------

    def stage_classes(self) -> tuple[StageClass, ...]:
        return self._classes

    def stage_class_of(self, v: str) -> StageClass | None:
        """The stage class of an internal vertex; None for leaves."""
        self._require(v)
        return self._class_of.get(v)

    def same_stage(self, v: str, w: str) -> bool:
        self._require(v)
        self._require(w)
        if v == w:
            return True
        cv, cw = self._class_of.get(v), self._class_of.get(w)
        return cv is not None and cv is cw

    def same_position(self, v: str, w: str) -> bool:
        """Same stage and identical subtree polynomial t(v) = t(w)."""
        return self.same_stage(v, w) and self.t_polynomial(v) == self.t_polynomial(w)

    def position_classes(self) -> tuple[tuple[str, ...], ...]:
        """Stage classes refined by equality of t(v), internal vertices only.

        t(v) at all labels 1 is the number of atoms through v, so members
        are first told apart by that count; t(v) is built only for
        members that share their count with another member.
        """
        out: list[tuple[str, ...]] = []
        for cls in self._classes:
            counts = {v: len(self.atom_indices(v)) for v in cls.vertices}
            shared = Counter(counts.values())
            groups: dict[tuple[int, Polynomial | None], list[str]] = {}
            for v, n in counts.items():
                key = (n, self.t_polynomial(v) if shared[n] > 1 else None)
                groups.setdefault(key, []).append(v)
            out.extend(tuple(members) for members in groups.values())
        return tuple(out)

    # -- identity -----------------------------------------------------

    @property
    def signature(self) -> tuple:
        """Structural identity: shape, labels and atom names."""
        return (
            self.root,
            tuple(
                (v, tuple((e.child, e.label.name) for e in self._children[v]))
                for v in self.vertices
            ),
            tuple(a.symbol.name for a in self.atoms),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, StagedTree) and self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)

    def __repr__(self) -> str:
        return (
            f"StagedTree(root={self.root!r}, vertices={len(self.vertices)}, "
            f"atoms={self.n_atoms})"
        )

    def symbol(self, name: str) -> Symbol:
        return self.table.lookup(name)


def build_tree(
    definition: TreeDefinition | None = None,
    *,
    root: str | None = None,
    vertices: Iterable[tuple[str, Iterable[tuple[str, str]]]] | None = None,
    atom_names: Iterable[str] | None = None,
) -> StagedTree:
    """Compile a definition, or assemble one from plain tuples.

    ``vertices`` entries are ``(id, [(child, label), ...])``; leaf-only
    vertices may be omitted entirely.
    """
    if definition is None:
        if root is None or vertices is None:
            raise ValueError("need either a TreeDefinition or root plus vertices")
        definition = TreeDefinition(
            root=root,
            vertices=tuple(
                VertexDef(vid, tuple(EdgeDef(to, label) for to, label in edges))
                for vid, edges in vertices
            ),
            atom_names=tuple(atom_names) if atom_names is not None else None,
        )
    return StagedTree(definition)
