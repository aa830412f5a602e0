"""Deterministic staged-tree families with known answers.

Every tree the benchmark feeds to ``treeideals`` comes from here, as a
``Case``: a tree written as plain data plus a ``Known`` record of the
answers that follow from how the tree was built, computed by this
module's own arithmetic and never by the package under test.

Families:

* ``level(k, d)``: the k-ary tree of depth d with one stage per level
  (an independence model; every same-stage pair is a position pair, so
  it is toric);
* ``level(k, d, relabel=True)``: the same tree with the first vertex of
  the last interior level moved to a stage of its own.  Its parent level
  then fails the balance condition, which makes it non-toric the way
  ``fig4_tbn`` is;
* ``caterpillar(n)``: a spine of n interior vertices in one binary stage,
  each with one leaf child; non-toric for n >= 2 because the spine
  children have different subtree polynomials;
* ``random_tree(rng, n)``: a seeded random shape with arities 2 and 3
  and a seeded grouping of equal-arity vertices into stages (toricity
  is not fixed by the family);
* ``fixture(name, doc)``: one of the repository's eleven example trees.

``document(case, rng)`` renders a case as a CLI tree document.  With an
``rng`` it renames every label and permutes the child order of every
vertex except the first member of each stage, which changes the text but
not the model; ``atom_names`` keep each leaf's atom name, so generator
sets stay comparable across renderings.  The first member keeps its
order because it fixes the stage's label order, and with it the label
that the sum-to-one reduction eliminates: ``containment_report`` on
``caterpillar(16)`` takes about 1.3 s when the leaf label is eliminated
and about 15 s when the spine label is, so a free permutation there
would let the seed, not the code, set the cost.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb

Children = dict[str, tuple[tuple[str, str], ...]]  # vertex -> ((child, label), ...)


@dataclass(frozen=True)
class Known:
    """Answers fixed by the construction of a tree."""

    atoms: int
    vertices: int
    stage_classes: int
    dimension: int  # sum over stage classes of (arity - 1)
    all_shared_binary: bool  # every stage with >= 2 vertices has arity 2
    stage_pairs: int  # same-stage vertex pairs
    model_raw: int  # stage pairs x arity, summed over classes
    paths_raw: int  # stage pairs x C(arity, 2), summed over classes
    toric: bool | None  # None where the family does not fix it
    # (shared-stage vertex, leaf atom index, leaf atom index), atom
    # indices 0-based in the base depth-first order.
    sibling_leaves: tuple[tuple[str, int, int], ...]


@dataclass(frozen=True)
class Case:
    name: str
    root: str
    children: Children
    atom_names: tuple[str, ...]  # in base depth-first leaf order
    known: Known

    @property
    def leaves(self) -> tuple[str, ...]:
        return dfs_leaves(self.root, self.children)


def dfs_leaves(root: str, children: Children) -> tuple[str, ...]:
    out: list[str] = []
    stack = [root]
    while stack:
        v = stack.pop()
        kids = children.get(v, ())
        if not kids:
            out.append(v)
        stack.extend(c for c, _ in reversed(kids))
    return tuple(out)


def stages(children: Children) -> dict[frozenset[str], list[str]]:
    """Interior vertices grouped by outgoing label set (the stage rule)."""
    out: dict[frozenset[str], list[str]] = {}
    for v, kids in children.items():
        if kids:
            out.setdefault(frozenset(lbl for _, lbl in kids), []).append(v)
    return out


def _case(name: str, root: str, children: Children, toric: bool | None,
          atom_names: tuple[str, ...] | None = None) -> Case:
    leaves = dfs_leaves(root, children)
    index = {leaf: k for k, leaf in enumerate(leaves)}
    classes = stages(children)
    shared = [(labels, vs) for labels, vs in classes.items() if len(vs) >= 2]
    sibling_leaves = []
    for _, vs in shared:
        for v in vs:
            leaf_kids = [c for c, _ in children[v] if not children.get(c)]
            if len(leaf_kids) >= 2:
                sibling_leaves.append((v, index[leaf_kids[0]], index[leaf_kids[1]]))
    known = Known(
        atoms=len(leaves),
        vertices=len(leaves) + sum(len(vs) for vs in classes.values()),
        stage_classes=len(classes),
        dimension=sum(len(labels) - 1 for labels in classes),
        all_shared_binary=all(len(labels) == 2 for labels, _ in shared),
        stage_pairs=sum(comb(len(vs), 2) for _, vs in shared),
        model_raw=sum(comb(len(vs), 2) * len(labels) for labels, vs in shared),
        paths_raw=sum(comb(len(vs), 2) * comb(len(labels), 2) for labels, vs in shared),
        toric=toric,
        sibling_leaves=tuple(sibling_leaves),
    )
    names = atom_names or tuple(f"p{k}" for k in range(1, len(leaves) + 1))
    return Case(name, root, children, names, known)


# -- families ------------------------------------------------------------


def level(k: int, d: int, relabel: bool = False) -> Case:
    """k-ary depth-d tree, one stage per level; optionally one vertex restaged."""
    if relabel and d < 3:
        raise ValueError("a relabelled level tree needs depth >= 3")
    children: dict[str, tuple[tuple[str, str], ...]] = {}
    frontier = ["v0"]
    counter = 1
    for depth in range(d):
        nxt = []
        for pos, v in enumerate(frontier):
            restaged = relabel and depth == d - 1 and pos == 0
            prefix = "y" if restaged else f"x{depth}_"
            kids = []
            for i in range(k):
                child = f"v{counter}" if depth < d - 1 else f"l{counter}"
                counter += 1
                kids.append((child, f"{prefix}{i}"))
                nxt.append(child)
            children[v] = tuple(kids)
        frontier = nxt
    name = f"level{k}x{d}" + ("-relabel" if relabel else "")
    return _case(name, "v0", children, toric=not relabel)


def caterpillar(n: int) -> Case:
    """Spine v0..v(n-1) in one stage {c0, c1}: c1 down the spine, c0 to a leaf.

    The leaf label is declared last, so it is the one the sum-to-one
    reduction eliminates (see ``document``).
    """
    children: dict[str, tuple[tuple[str, str], ...]] = {}
    for i in range(n):
        down = f"v{i + 1}" if i < n - 1 else f"e{i}"
        children[f"v{i}"] = ((down, "c1"), (f"l{i}", "c0"))
    return _case(f"caterpillar{n}", "v0", children, toric=n < 2)


def random_tree(rng: random.Random, n_interior: int, name: str) -> Case:
    """Seeded shape and stage grouping; arities 2 or 3, a few stages per arity."""
    arity = {"v0": rng.choice((2, 3))}
    kids_of: dict[str, list[str]] = {"v0": []}
    leaves = []
    counter = 1
    for _ in range(arity["v0"]):
        leaves.append(f"n{counter}")
        kids_of["v0"].append(f"n{counter}")
        counter += 1
    for _ in range(n_interior - 1):
        v = leaves.pop(rng.randrange(len(leaves)))
        arity[v] = rng.choice((2, 3))
        kids_of[v] = []
        for _ in range(arity[v]):
            leaves.append(f"n{counter}")
            kids_of[v].append(f"n{counter}")
            counter += 1
    stage_of = {v: f"s{a}{rng.randrange(2)}" for v, a in arity.items()}
    children = {
        v: tuple((c, f"{stage_of[v]}_{i}") for i, c in enumerate(kids))
        for v, kids in kids_of.items()
    }
    return _case(name, "v0", children, toric=None)


def fixture(name: str, doc: dict, toric: bool) -> Case:
    children = {
        v["id"]: tuple((e["to"], e["label"]) for e in v.get("edges", []))
        for v in doc["vertices"]
    }
    names = doc.get("atom_names")
    return _case(name, doc["root"], children, toric, tuple(names) if names else None)


# -- rendering -----------------------------------------------------------


@dataclass(frozen=True)
class Doc:
    """One rendered document of a case."""

    text: str
    data: dict
    leaf_order: tuple[int, ...]  # base atom index of each atom, in this doc's order
    label_map: dict[str, str]  # base label -> label in this doc


def document(case: Case, rng: random.Random | None = None, tag: str = "") -> Doc:
    """Render a case; with rng, rename labels and permute child orders."""
    children = case.children
    label_map = {lbl: lbl for kids in children.values() for _, lbl in kids}
    if rng is not None:
        label_map = {lbl: f"{lbl}_{tag}" for lbl in label_map}
        # Depth-first, so the first vertex met of each stage is its first
        # member in the rendered document too; that member keeps its order.
        permuted = {}
        first_seen: set[frozenset[str]] = set()
        stack = [case.root]
        while stack:
            v = stack.pop()
            kids = list(children.get(v, ()))
            if not kids:
                continue
            stage = frozenset(lbl for _, lbl in kids)
            if stage in first_seen:
                rng.shuffle(kids)
            first_seen.add(stage)
            permuted[v] = tuple(kids)
            stack.extend(c for c, _ in reversed(kids))
        children = permuted
    base_index = {leaf: k for k, leaf in enumerate(case.leaves)}
    leaf_order = tuple(base_index[leaf] for leaf in dfs_leaves(case.root, children))
    vertex_ids = list(children)
    if rng is not None:
        rng.shuffle(vertex_ids)
    data = {
        "root": case.root,
        "vertices": [
            {"id": v, "edges": [{"to": c, "label": label_map[lbl]} for c, lbl in children[v]]}
            for v in vertex_ids
            if children[v]
        ],
        "atom_names": [case.atom_names[k] for k in leaf_order],
    }
    return Doc(json.dumps(data), data, leaf_order, label_map)
