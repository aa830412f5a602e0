"""Self-tests of the benchmark: families, oracles and the metric lists.

    python3 -m pytest -q bench/test_oracles.py

Every oracle must accept the package's correct answer and flag a
deliberately corrupted one.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import treeideals as ti  # noqa: E402
from treeideals import cli  # noqa: E402

import families as F  # noqa: E402
import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def built(case, rng=None):
    doc = F.document(case, rng, tag="t")
    return doc, cli.parse_tree_document(doc.text)


def forms_of(genset):
    return frozenset(O.canonical_of_polynomial(g) for g in genset.generators)


def fixture(name):
    return next(s for s in W.fixture_subjects(random.Random(0)) if s.case.name == name)


# -- families ----------------------------------------------------------------


def test_closed_forms_of_known_answers():
    k = F.level(2, 4).known
    assert (k.atoms, k.dimension, k.stage_pairs, k.toric) == (16, 4, 1 + 6 + 28, True)
    assert k.all_shared_binary and k.model_raw == 2 * 35 and k.paths_raw == 35
    k = F.level(3, 3, relabel=True).known
    assert (k.atoms, k.dimension, k.toric, k.all_shared_binary) == (27, 3 * 2 + 2, False, False)
    assert k.stage_pairs == 3 + 28  # level 1: C(3,2); level 2 keeps 8 of 9 vertices
    k = F.caterpillar(12).known
    assert (k.atoms, k.dimension, k.stage_pairs, k.toric) == (13, 1, 66, False)
    assert [v for v, _, _ in k.sibling_leaves] == ["v11"]


def test_known_answers_match_the_package():
    cases = [F.level(2, 3), F.level(2, 4, True), F.level(3, 3), F.caterpillar(6)]
    cases += [F.random_tree(random.Random(s), 6, f"r{s}") for s in range(4)]
    for case in cases:
        _, t = built(case, random.Random(1))
        assert t.n_atoms == case.known.atoms
        assert ti.model_dimension(t) == case.known.dimension
        verdict = ti.is_toric(t)
        assert verdict.checked_pairs == case.known.stage_pairs
        if case.known.toric is not None:
            assert verdict.toric == case.known.toric, case.name


def test_renderings_differ_but_keep_the_model():
    case = F.level(2, 3, relabel=True)
    rng = random.Random(5)
    first, t1 = built(case, rng)
    second = F.document(case, rng, tag="u")
    assert first.text != second.text
    assert F.document(case, random.Random(5), tag="t").text == first.text
    t2 = cli.parse_tree_document(second.text)
    for fn in (ti.model_invariant_generators, ti.paths_ideal_generators, ti.mpaths_generators):
        assert forms_of(fn(t1)) == forms_of(fn(t2))


def test_printed_and_term_forms_agree():
    t = cli.parse_tree_document(F.document(fixture("fig4_t").case).text)
    for g in ti.mpaths_generators(t).generators:
        assert O.canonical_of_text(str(g)) == O.canonical_of_polynomial(g)


def test_perturbed_points_leave_the_model():
    case = F.level(2, 4, relabel=True)
    rng = random.Random(2)
    for _ in range(20):
        point = O.member_point(case, rng)
        assert O.conditionals_agree(case, point)
        _, i, j = rng.choice(case.known.sibling_leaves)
        eps = point[j] / 3
        point[i] += eps
        point[j] -= eps
        assert not O.conditionals_agree(case, point)


# -- each oracle flags a corrupted answer ---------------------------------------


def test_dropped_generator_is_flagged():
    s = fixture("fig4_t")
    _, t = built(s.case, random.Random(3))
    genset = ti.model_invariant_generators(t)
    forms = forms_of(genset)
    raw = sum(len(v) for v in genset.provenance.values())
    assert W.genset_check(s, "model", forms, raw) == []
    dropped = frozenset(sorted(forms)[1:])
    assert W.genset_check(s, "model", dropped, raw)
    # On a generated tree the model = paths identity catches it.
    case = F.level(2, 4)
    g = W.subject(case, random.Random(4))
    _, t = built(case, random.Random(4))
    model, paths = forms_of(ti.model_invariant_generators(t)), forms_of(ti.paths_ideal_generators(t))
    assert W.genset_check(g, "model", model, case.known.model_raw, reference=paths) == []
    assert W.genset_check(g, "model", frozenset(sorted(model)[1:]), case.known.model_raw,
                          reference=paths)


def test_generator_off_the_model_is_flagged():
    s = fixture("fig2_t1")
    wrong = O.canonical_of_text("p1*p2 - p3*p4")
    forms = s.pinned["mpaths"]
    assert W.genset_check(s, "mpaths", forms, None) == []
    problems = W.genset_check(s, "mpaths", (forms - {min(forms)}) | {wrong}, None)
    assert any("vanish" in p for p in problems)


def test_flipped_toric_verdict_is_flagged():
    for name in ("fig2_t1", "fig4_tbn"):
        s = fixture(name)
        _, t = built(s.case, random.Random(6))
        v = ti.is_toric(t)
        witnesses = [[O.canonical_of_polynomial(w.difference) for w in f.witnesses]
                     for f in v.failures]
        assert W.toric_check(s, v.toric, v.checked_pairs, witnesses) == []
        assert W.toric_check(s, not v.toric, v.checked_pairs, witnesses)
    s = fixture("fig4_tbn")
    assert W.toric_check(s, False, v.checked_pairs, [[()]])  # zero witness


def test_recovered_value_off_by_a_thousandth_is_flagged():
    case = F.level(3, 3)
    _, t = built(case, random.Random(7))
    theta = ti.sample_theta(t, 11)
    report = ti.conditional_probability_report(t, ti.psi_evaluate(t, theta))
    recovered = {s.name: v for s, v in report.recovered().items()}
    sampled = {s.name: v for s, v in theta.items()}
    assert O.recovery_problems(recovered, sampled) == []
    label = sorted(recovered)[0]
    recovered[label] += Fraction(1, 1000)
    assert O.recovery_problems(recovered, sampled)


def test_point_not_summing_to_one_is_flagged():
    case = F.caterpillar(5)
    _, t = built(case)
    points = [ti.psi_evaluate(t, ti.sample_theta(t, s)) for s in range(5)]
    assert O.sample_problems(points, case.known.atoms, 5) == []
    points[2] = [points[2][0] * 2] + points[2][1:]
    assert O.sample_problems(points, case.known.atoms, 5)


def test_membership_disagreement_is_flagged():
    assert O.membership_problems(True, True, True, 0, expected=True) == []
    assert O.membership_problems(True, True, True, 0, expected=False)
    assert O.membership_problems(False, True, True, 3, expected=False)


def test_roundtrip_and_positions_flag_changes():
    case = F.level(2, 3)
    doc, t = built(case, random.Random(8))
    exported = json.loads(cli.render_tree_document(t))
    assert O.roundtrip_problems(doc.data, exported) == []
    exported["vertices"][0]["edges"].reverse()
    assert O.roundtrip_problems(doc.data, exported)
    groups = [list(g) for g in t.position_classes()]
    assert O.positions_problems(groups, doc.data) == []
    assert O.positions_problems(groups[1:], doc.data)


# -- the metric lists match BENCHMARK.json ---------------------------------------


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


# -- timing ----------------------------------------------------------------------


def test_clock_scales_by_the_calibration_around_a_call(monkeypatch):
    # Samples of 6 ms have midpoints 3 ms from a short call, outside its
    # 2 ms margin; the call's own two samples still count.
    def slow_calibration():
        time.sleep(0.006)
        return 6 * run.CALIBRATION_REF_S

    monkeypatch.setattr(run, "calibrate", slow_calibration)
    clock = run.Clock()
    assert clock.run(lambda: 7) == (7, None)
    result, error = clock.run(lambda: 1 / 0)
    assert result is None and isinstance(error, ZeroDivisionError)
    for wall, ref in zip(clock.wall(), clock.reference()):
        assert abs(ref - wall / 6) < 1e-12
