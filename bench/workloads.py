"""The benchmark's three workloads.

Each workload is a closed loop driven from outside the package: one
client, one thread, and the next op starts only when the previous one
has finished.  ``setup(seed, workdir)`` makes the inputs and does the
workload's untimed set-up; ``make_pass(state, index)`` returns one pass
of ops.  A pass has the same composition (trees x queries) for every
seed and every index; the seed picks the order of the ops, the child
order and label names of every document and the sampled points.  So
whole passes cost the same from seed to seed, and the runner measures
whole passes only.

An op's ``run`` is the timed call into the package; its ``check`` is
the untimed oracle (see ``oracles``) and returns a list of problems.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import treeideals as ti
from treeideals import cli

import families as F
import oracles as O

FIXTURES_FILE = Path(__file__).with_name("fixtures.json")
GENSETS = ("model", "paths", "mpaths")


@dataclass
class Op:
    group: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Subject:
    """A case with the facts its oracles need."""

    case: F.Case
    labels: dict[str, Counter]  # atom name -> base labels on its path
    point: dict[str, Fraction] | None = None  # a member point, by atom name
    pinned: dict[str, frozenset] | None = None  # fixtures: recorded generator sets


def subject(case: F.Case, rng: random.Random | None, pinned=None) -> Subject:
    point = None
    if rng is not None:
        point = dict(zip(case.atom_names, O.member_point(case, rng)))
    return Subject(case, O.atom_labels(case), point, pinned)


def fixture_subjects(rng: random.Random) -> list[Subject]:
    data = json.loads(FIXTURES_FILE.read_text(encoding="utf-8"))
    out = []
    for name, rec in data.items():
        pinned = {k: frozenset(O.canonical_of_text(g) for g in rec[k]) for k in GENSETS}
        out.append(subject(F.fixture(name, rec["document"], rec["toric"]), rng, pinned))
    return out


def genset_check(s: Subject, kind: str, forms: frozenset, raw: int | None,
                 reference: frozenset | None = None) -> list[str]:
    return O.genset_problems(
        kind, forms, raw, s.case.known, s.point, s.labels,
        pinned=s.pinned[kind] if s.pinned else None, reference=reference,
    )


def toric_check(s: Subject, toric: bool, checked_pairs: int, witness_forms) -> list[str]:
    nonzero = [[bool(form) for form in ws] for ws in witness_forms]
    return O.toric_problems(toric, checked_pairs, nonzero, s.case.known)


# -- ideals-mix ----------------------------------------------------------------

QUERIES: dict[str, Callable] = {
    "model": lambda t: ti.model_invariant_generators(t),
    "paths": lambda t: ti.paths_ideal_generators(t),
    "mpaths": lambda t: ti.mpaths_generators(t),
    "is_toric": lambda t: ti.is_toric(t),
    "model_dimension": lambda t: ti.model_dimension(t),
    "containment_report": lambda t: ti.containment_report(t),
}


@dataclass
class MixState:
    seed: int
    subjects: list[Subject]
    # (case, kind) -> (canonical forms, raw count) already checked in full
    verified: dict = field(default_factory=dict)


def _parse_and_query(text: str, query: str):
    t = cli.parse_tree_document(text)
    return t, QUERIES[query](t)


def _forms(genset) -> tuple[frozenset, int]:
    forms = frozenset(O.canonical_of_polynomial(g) for g in genset.generators)
    return forms, sum(len(v) for v in genset.provenance.values())


class IdealsMix:
    """Each op parses a fresh document, builds the tree, answers one query."""

    name = "ideals-mix"

    def setup(self, seed: int, workdir: str) -> MixState:
        rng = random.Random(f"{self.name}:{seed}")
        cases = [F.level(2, d, relabel) for relabel in (False, True) for d in (3, 4, 5)]
        cases += [F.level(3, 3), F.level(3, 3, relabel=True)]
        cases += [F.caterpillar(n) for n in (8, 12, 16)]
        # The random shapes come from a fixed seed, so that every run times
        # the same trees; the run's seed only renders them.
        shapes = random.Random("ideals-mix random trees")
        cases += [F.random_tree(shapes, 4, f"random{i}") for i in range(3)]
        return MixState(seed, [subject(c, rng) for c in cases] + fixture_subjects(rng))

    def make_pass(self, state: MixState, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{state.seed}:{index}")
        ops = []
        for s in state.subjects:
            for q in QUERIES:
                doc = F.document(s.case, rng, tag=f"r{index}q{len(ops)}")
                ops.append(Op(q, partial(_parse_and_query, doc.text, q),
                              partial(self.check, state, s, q)))
        rng.shuffle(ops)
        return ops

    def check(self, state: MixState, s: Subject, q: str, answer) -> list[str]:
        t, result = answer
        known = s.case.known
        if q in GENSETS:
            forms, raw = _forms(result)
            key = (s.case.name, q)
            if state.verified.get(key) == (forms, raw):
                return []
            reference = None
            if q != "mpaths" and known.all_shared_binary:
                other = "paths" if q == "model" else "model"
                reference = state.verified.get((s.case.name, other), (None,))[0]
                if reference is None:
                    reference, _ = _forms(QUERIES[other](t))
            problems = genset_check(s, q, forms, raw, reference)
            if not problems:
                state.verified[key] = (forms, raw)
            return problems
        if q == "is_toric":
            witnesses = [[O.canonical_of_polynomial(w.difference) for w in f.witnesses]
                         for f in result.failures]
            return toric_check(s, result.toric, result.checked_pairs, witnesses)
        if q == "model_dimension":
            return O.dimension_problems([result, *ti.dimension_forms(t)], known)
        return O.containment_problems(result.ok, result.mpaths_in_toric_kernel,
                                      result.mpaths_all_binomial, known)


# -- membership-stream -----------------------------------------------------------


@dataclass(frozen=True)
class StreamPoint:
    tree: object  # StagedTree, built once in set-up
    group: str
    values: tuple[Fraction, ...]
    expected: bool  # member or not, from how the point was made
    theta: dict[str, Fraction] | None  # sampled parameters of exact members


@dataclass
class StreamState:
    seed: int
    points: list[StreamPoint]


def _membership_op(t, point):
    return ti.membership(t, point), ti.conditional_probability_report(t, point)


class MembershipStream:
    """A seeded stream of points tested against a few trees built once."""

    name = "membership-stream"
    # Per tree: exact members, members moved by +-eps on two coordinates,
    # and generic simplex points.
    KINDS = ("exact",) * 15 + ("perturbed",) * 12 + ("generic",) * 3

    def setup(self, seed: int, workdir: str) -> StreamState:
        rng = random.Random(f"{self.name}:{seed}")
        cases = [F.level(2, 4), F.level(2, 5), F.level(3, 3),
                 F.level(2, 4, relabel=True), F.caterpillar(12)]
        points = []
        for case in cases:
            doc = F.document(case, rng, tag="m")
            t = cli.parse_tree_document(doc.text)
            at = {base: k for k, base in enumerate(doc.leaf_order)}
            for kind in self.KINDS:
                theta = None
                if kind == "generic":
                    draws = [rng.randint(1, 1000) for _ in range(case.known.atoms)]
                    values = [Fraction(d, sum(draws)) for d in draws]
                    base_order = [values[at[b]] for b in range(case.known.atoms)]
                    expected = O.conditionals_agree(case, base_order)
                else:
                    sampled = ti.sample_theta(t, rng.randrange(2**31))
                    values = ti.psi_evaluate(t, sampled)
                    expected = kind == "exact"
                    if expected:
                        theta = {sym.name: v for sym, v in sampled.items()}
                    else:
                        # Two leaf children of one shared-stage vertex: only that
                        # vertex's conditionals move, so its stage disagrees.
                        _, i, j = rng.choice(case.known.sibling_leaves)
                        eps = values[at[j]] * Fraction(rng.randint(1, 99), 100)
                        values[at[i]] += eps
                        values[at[j]] -= eps
                points.append(StreamPoint(t, case.name, tuple(values), expected, theta))
        return StreamState(seed, points)

    def make_pass(self, state: StreamState, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{state.seed}:{index}")
        order = list(state.points)
        rng.shuffle(order)
        return [Op(p.group, partial(_membership_op, p.tree, p.values),
                   partial(self.check, p)) for p in order]

    def check(self, p: StreamPoint, answer) -> list[str]:
        verdict, report = answer
        problems = O.membership_problems(verdict.member, verdict.in_simplex,
                                         report.consistent, len(verdict.failures), p.expected)
        if p.theta is not None:
            recovered = {sym.name: v for sym, v in report.recovered().items()}
            problems += O.recovery_problems(recovered, p.theta)
        return problems


# -- cli-docs ------------------------------------------------------------------------

FIXTURE_COMMANDS = (
    ("validate",), ("atoms",),
    ("generators", "--ideal", "model"), ("generators", "--ideal", "paths"),
    ("generators", "--ideal", "mpaths"),
    ("toric",), ("dim",), ("positions",), ("membership",), ("sample", "--count", "5"),
    ("export", "--format", "tree"),
    ("export", "--format", "m2", "--ideal", "model"),
    ("export", "--format", "text", "--ideal", "paths"),
    ("export", "--format", "m2", "--ideal", "mpaths"),
)
DEEP_COMMANDS = (
    ("validate",), ("atoms",), ("dim",), ("positions",),
    ("export", "--format", "tree"), ("sample", "--count", "5"),
)


@dataclass
class CliState:
    seed: int
    workdir: Path
    fixtures: list[Subject]
    deep: list[Subject]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run_command(argv)
        except SystemExit as e:  # argparse rejected the arguments
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


class CliDocs:
    """In-process CLI runs on the fixtures and on deep generated documents."""

    name = "cli-docs"

    def setup(self, seed: int, workdir: str) -> CliState:
        rng = random.Random(f"{self.name}:{seed}")
        deep = [F.caterpillar(n) for n in (100, 150, 200)] + [F.level(2, 8)]
        return CliState(seed, Path(workdir), fixture_subjects(rng),
                        [subject(c, None) for c in deep])

    def make_pass(self, state: CliState, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{state.seed}:{index}")
        jobs = [("fixture", s, cmd) for s in state.fixtures for cmd in FIXTURE_COMMANDS]
        jobs += [("deep", s, cmd) for s in state.deep for cmd in DEEP_COMMANDS]
        ops = []
        for k, (group, s, cmd) in enumerate(jobs):
            doc = F.document(s.case, rng, tag=f"r{index}c{k}")
            path = state.workdir / f"{k}.json"
            path.write_text(doc.text, encoding="utf-8")
            argv = [*cmd, str(path)]
            if cmd[0] == "membership":
                point = state.workdir / f"{k}.point"
                point.write_text(" ".join(str(s.point[n]) for n in doc.data["atom_names"]),
                                 encoding="utf-8")
                argv += ["--point", str(point)]
            if cmd[-1] != "tree":
                argv.append("--json")
            ops.append(Op(group, partial(run_cli, argv), partial(self.check, s, doc, cmd)))
        rng.shuffle(ops)
        return ops

    def check(self, s: Subject, doc: F.Doc, cmd: tuple, answer) -> list[str]:
        rc, out, err = answer
        if rc != 0:
            return [f"{' '.join(cmd)} exited {rc}: {err.strip()[:200]}"]
        if cmd[-1] == "tree":
            return O.roundtrip_problems(doc.data, json.loads(out))
        payload = json.loads(out)
        known, sub = s.case.known, cmd[0]
        if sub == "validate":
            expect = {"valid": True, "vertices": known.vertices, "atoms": known.atoms,
                      "stage_classes": known.stage_classes}
            return [] if payload == expect else [f"validate reported {payload}"]
        if sub == "atoms":
            names = [a["name"] for a in payload]
            relabel = doc.label_map
            bad = [a["name"] for a in payload if O.parse_monomial(a["labels"]) != Counter(
                {relabel[lbl]: k for lbl, k in s.labels[a["name"]].items()})]
            if names != doc.data["atom_names"] or bad:
                return [f"atoms: names or path labels wrong ({bad[:3]})"]
            return []
        if sub in ("generators", "export"):
            forms = frozenset(O.canonical_of_text(g) for g in payload["generators"])
            raw = sum(len(p) for p in payload["provenance"]) if sub == "generators" else None
            problems = genset_check(s, payload["ideal"], forms, raw)
            if sub == "export" and payload["ring"] != doc.data["atom_names"]:
                problems.append("export: ring differs from the atom names")
            return problems
        if sub == "toric":
            witnesses = [[O.canonical_of_text(w["difference"]) for w in f["witnesses"]]
                         for f in payload["failures"]]
            return toric_check(s, payload["toric"], payload["checked_pairs"], witnesses)
        if sub == "dim":
            return O.dimension_problems(
                [payload["dimension"], payload["class_form"], payload["edge_form"]], known)
        if sub == "positions":
            return O.positions_problems(payload["positions"], doc.data)
        if sub == "membership":
            return O.membership_problems(payload["member"], payload["in_simplex"],
                                         payload["member"], len(payload["failures"]), True)
        points = [[Fraction(x) for x in p] for p in payload["points"]]
        return O.sample_problems(points, known.atoms, 5)


WORKLOADS = {w.name: w for w in (IdealsMix(), MembershipStream(), CliDocs())}
