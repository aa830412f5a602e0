"""Shared fixture loading and polynomial helpers for the test suite."""

import random
from pathlib import Path

import pytest

from treeideals import StagedTree, build_tree
from treeideals.cli import parse_polynomial, parse_tree_document

FIXTURE_DIR = Path(__file__).parent / "fixtures"

FIXTURE_NAMES = sorted(p.stem for p in FIXTURE_DIR.glob("*.json"))

def staged_classes_binary(t: "StagedTree") -> bool:
    """True when every stage class of size >= 2 has exactly two labels."""
    return all(cls.arity == 2 for cls in t.stage_classes() if cls.size >= 2)


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8")


def load_fixture(name: str) -> StagedTree:
    return parse_tree_document(fixture_text(name))


def poly(t: StagedTree, text: str):
    """Parse a polynomial over symbols that already exist in the tree."""
    return parse_polynomial(text, t.table)


def canonical(t: StagedTree, texts) -> frozenset:
    """Parse and sign-normalize a collection of polynomial strings."""
    return frozenset(poly(t, s).normalized_sign() for s in texts)


def level_tree(k: int, d: int, relabel: bool = False) -> StagedTree:
    """The k-ary tree of depth d with one stage per level.

    With ``relabel`` the first vertex of the last interior level gets a
    stage of its own, which breaks the balance of its parent's level.
    """
    vertices = []
    frontier, counter = ["v0"], 1
    for depth in range(d):
        nxt = []
        for pos, v in enumerate(frontier):
            prefix = "y" if relabel and depth == d - 1 and pos == 0 else f"x{depth}_"
            kids = [f"{'v' if depth < d - 1 else 'l'}{counter + i}" for i in range(k)]
            counter += k
            vertices.append((v, [(c, f"{prefix}{i}") for i, c in enumerate(kids)]))
            nxt += kids
        frontier = nxt
    return build_tree(root="v0", vertices=vertices)


def caterpillar_tree(n: int) -> StagedTree:
    """A spine v0..v(n-1) in one stage {c1, c0}, each with one leaf child."""
    return build_tree(root="v0", vertices=[
        (f"v{i}", [(f"v{i + 1}" if i < n - 1 else f"e{i}", "c1"), (f"l{i}", "c0")])
        for i in range(n)
    ])


def random_tree(seed: int, n_interior: int) -> StagedTree:
    """A seeded random shape, arities 2 and 3, equal arities in two stages.

    Leaves are split into interior vertices at random, so brackets nest
    at uneven depths; each vertex takes one of two stages of its arity.
    """
    rng = random.Random(seed)
    kids: dict[str, list[str]] = {}
    leaves, counter = ["v0"], 1
    for _ in range(n_interior):
        v = leaves.pop(rng.randrange(len(leaves)))
        kids[v] = [f"v{counter + i}" for i in range(rng.choice((2, 3)))]
        counter += len(kids[v])
        leaves += kids[v]
    return build_tree(root="v0", vertices=[
        (v, [(c, f"s{len(cs)}{stage}_{i}") for i, c in enumerate(cs)])
        for v, cs in kids.items()
        for stage in [rng.randrange(2)]
    ])


#: Generated shapes for property tests: balanced levels, a broken level,
#: a deep spine and random trees with uneven brackets.
GENERATED_TREES = {
    "level2x3": lambda: level_tree(2, 3),
    "level3x2": lambda: level_tree(3, 2),
    "level2x4_relabel": lambda: level_tree(2, 4, relabel=True),
    "caterpillar6": lambda: caterpillar_tree(6),
    **{f"random{seed}": (lambda seed=seed: random_tree(seed, 9)) for seed in range(8)},
}


@pytest.fixture(params=FIXTURE_NAMES)
def any_tree(request) -> StagedTree:
    return load_fixture(request.param)


@pytest.fixture(params=FIXTURE_NAMES + sorted(GENERATED_TREES))
def property_tree(request) -> StagedTree:
    """Every fixture and every generated tree."""
    if request.param in GENERATED_TREES:
        return GENERATED_TREES[request.param]()
    return load_fixture(request.param)


@pytest.fixture(scope="session")
def trees() -> dict[str, StagedTree]:
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible line per acceptance criterion, after capture ends."""
    import test_acceptance

    if not test_acceptance.VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for k in range(1, test_acceptance.N_CRITERIA + 1):
        verdict = test_acceptance.VERDICTS.get(k, "not run")
        terminalreporter.write_line(f"criterion {k}: {verdict}")
