"""Acceptance suite: the frozen end-to-end facts this package promises.

Each test covers one numbered criterion and records a PASS or FAIL
verdict; the conftest terminal-summary hook prints the one-line
verdicts after the run, outside output capture, so they are visible
in any test invocation.
"""

from treeideals import (
    Polynomial,
    containment_report,
    dimension_forms,
    is_toric,
    membership,
    model_dimension,
    model_invariant_generators,
    mpaths_generators,
    paths_ideal_generators,
    phi_image,
    phi_toric_image,
    psi_evaluate,
    sample_theta,
    star_condition,
    conditional_probability_report,
)
from treeideals.cli import run_command
from conftest import FIXTURE_DIR, FIXTURE_NAMES, canonical, load_fixture, poly

TORIC = {
    "fig1_t1", "fig1_t2", "fig1_t3", "fig2_t1",
    "fig4_tdec", "fig4_tpos", "star_example",
}

GOLDEN_FIG1 = {
    "fig1_t1": [
        "p1*p5 - p2*p4",
        "p1*p6 - p3*p4",
        "p2*p6 - p3*p5",
    ],
    "fig1_t2": [
        "p1*p5 + p1*p6 - p4*p2 - p4*p3",
        "p2*p4 + p2*p6 - p5*p1 - p5*p3",
        "p3*p4 + p3*p5 - p6*p2 - p6*p1",
    ],
    "fig1_t3": [
        "p1*p5 - p4*p2",
        "p3*p4 + p3*p5 - p6*p1 - p6*p2",
    ],
}

FIG2_T1_MPATHS = [
    "p1*p7 - p5*p3", "p1*p8 - p5*p4", "p2*p7 - p6*p3",
    "p2*p8 - p6*p4", "p1*p6 - p5*p2", "p3*p8 - p7*p4",
]

RED_QUADRICS = [
    "p1001*p1100 - p1000*p1101",
    "p0101*p1100 - p0100*p1101",
    "p0001*p1100 - p0000*p1101",
    "p0101*p1000 - p0100*p1001",
    "p0001*p1000 - p0000*p1001",
    "p0001*p0100 - p0000*p0101",
]
YELLOW_QUADRICS = [
    "p1011*p1110 - p1010*p1111",
    "p0111*p1110 - p0110*p1111",
    "p0011*p1110 - p0010*p1111",
    "p0111*p1010 - p0110*p1011",
    "p0011*p1010 - p0010*p1011",
    "p0011*p0110 - p0010*p0111",
]

TPOS_MPATHS = [
    "p3*p5 - p2*p6", "p2*p4 - p1*p5", "p3*p4 - p1*p6",
    "p4*p7 - p1*p8", "p5*p7 - p2*p8", "p6*p7 - p3*p8",
]


N_CRITERIA = 9

# Filled by _report; read back by the terminal-summary hook in conftest.
VERDICTS: dict[int, str] = {}


def _report(k: int, check) -> None:
    try:
        check()
    except BaseException:
        VERDICTS[k] = "FAIL"
        raise
    VERDICTS[k] = "PASS"


def _fixture(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.json")


def _sum_of(t, names: str) -> Polynomial:
    return poly(t, " + ".join(names.split()))


def test_criterion_1_golden_model_ideals(capsys, trees):
    def check():
        for name, golden in GOLDEN_FIG1.items():
            code = run_command(["generators", _fixture(name), "--ideal", "model"])
            out = capsys.readouterr().out
            assert code == 0
            t = trees[name]
            got = frozenset(
                poly(t, line).normalized_sign() for line in out.splitlines()
            )
            assert got == canonical(t, golden)

    _report(1, check)


def test_criterion_2_toricity_contrasts(trees):
    def check():
        t1 = trees["fig2_t1"]
        assert is_toric(t1).toric
        assert mpaths_generators(t1).as_set() == canonical(t1, FIG2_T1_MPATHS)

        t2 = trees["fig2_t2"]
        expected = (
            _sum_of(t2, "p1 p2") * _sum_of(t2, "p7 p8")
            - _sum_of(t2, "p3 p4") * _sum_of(t2, "p5 p6")
        )
        gens = list(model_invariant_generators(t2))
        assert model_invariant_generators(t2).as_set() == frozenset(
            [expected.normalized_sign()]
        )
        assert not phi_toric_image(t2, gens[0]).is_zero()

        t3 = trees["fig2_t3"]
        expected3 = poly(t3, "p1*p3") - poly(t3, "p2") * _sum_of(t3, "p1 p2")
        assert model_invariant_generators(t3).as_set() == frozenset(
            [expected3.normalized_sign()]
        )
        verdict = is_toric(t3)
        assert not verdict.toric
        assert verdict.checked_pairs == 1
        assert len(verdict.failures) == 1
        assert (verdict.failures[0].v, verdict.failures[0].w) == ("v0", "v1")

    _report(2, check)


def test_criterion_3_model_dimension(trees):
    def check():
        assert model_dimension(trees["fig2_t2"]) == 6
        assert model_dimension(trees["fig2_t1"]) == 4
        for name in FIXTURE_NAMES:
            by_classes, by_edges = dimension_forms(trees[name])
            assert by_classes == by_edges

    _report(3, check)


def test_criterion_4_fig4_family(trees):
    def check():
        tdec = trees["fig4_tdec"]
        twelve = canonical(tdec, RED_QUADRICS + YELLOW_QUADRICS)
        assert len(twelve) == 12
        assert model_invariant_generators(tdec).as_set() == twelve
        assert is_toric(tdec).toric

        tbn = trees["fig4_tbn"]
        blue = (
            _sum_of(tbn, "p0000 p0001 p0010 p0011")
            * _sum_of(tbn, "p1100 p1101 p1110 p1111")
            - _sum_of(tbn, "p0100 p0101 p0110 p0111")
            * _sum_of(tbn, "p1000 p1001 p1010 p1011")
        )
        assert model_invariant_generators(tbn).as_set() == (
            canonical(tbn, RED_QUADRICS + YELLOW_QUADRICS)
            | {blue.normalized_sign()}
        )

        red = poly(tbn, "full_d + part_d")
        yellow = poly(tbn, "full_s + part_s")
        t_of = {
            "v3": poly(tbn, "die0") * red + poly(tbn, "surv0") * yellow,
            "v4": poly(tbn, "die1") * red + poly(tbn, "surv1") * yellow,
            "v5": poly(tbn, "die2") * red + poly(tbn, "surv2") * yellow,
            "v6": poly(tbn, "die3") * red + poly(tbn, "surv3") * yellow,
        }
        witness = t_of["v3"] * t_of["v6"] - t_of["v4"] * t_of["v5"]
        assert not witness.is_zero()
        verdict = is_toric(tbn)
        assert not verdict.toric
        assert verdict.failures[0].witnesses[0].difference == witness

        t = trees["fig4_t"]
        green = (
            _sum_of(t, "p0000 p0001") * _sum_of(t, "p0110 p0111")
            - _sum_of(t, "p0100 p0101") * _sum_of(t, "p0010 p0011")
        )
        blue_t = canonical(t, [str(blue)])
        assert model_invariant_generators(t).as_set() == (
            canonical(t, RED_QUADRICS + YELLOW_QUADRICS)
            | blue_t
            | {green.normalized_sign()}
        )
        assert t.same_position("v3", "v4")
        assert t.t_polynomial("v3") == t.t_polynomial("v4")
        assert t.t_polynomial("v5") != t.t_polynomial("v6")
        verdict_t = is_toric(t)
        assert not verdict_t.toric
        assert len(verdict_t.failures) == 1
        w = verdict_t.failures[0].witnesses[0].difference
        assert w == t.t_polynomial("v3") * t.t_polynomial("v6") \
            - t.t_polynomial("v4") * t.t_polynomial("v5")
        assert not w.is_zero()

        tpos = trees["fig4_tpos"]
        assert is_toric(tpos).toric
        expected_model = canonical(tpos, [
            "p2*p6 - p5*p3",
            "p1*p5 + p1*p6 - p4*p2 - p4*p3",
            "p1*p8 + p2*p8 + p3*p8 - p7*p4 - p7*p5 - p7*p6",
        ])
        assert model_invariant_generators(tpos).as_set() == expected_model
        assert mpaths_generators(tpos).as_set() == canonical(tpos, TPOS_MPATHS)

    _report(4, check)


def test_criterion_5_kernel_containment(trees):
    def check():
        for name in FIXTURE_NAMES:
            report = containment_report(trees[name])
            assert report.ok, name
            if name in TORIC:
                assert report.mpaths_in_toric_kernel, name
                assert report.mpaths_all_binomial, name

    _report(5, check)


def test_criterion_6_sum_to_one_kernel_element(trees):
    def check():
        for name in FIXTURE_NAMES:
            t = trees[name]
            total = Polynomial.zero()
            for s in t.atom_symbols:
                total = total + Polynomial.variable(s)
            assert phi_image(t, total - Polynomial.one()).is_zero(), name

    _report(6, check)


def test_criterion_7_binary_collapse(trees):
    def check():
        for name in ("fig2_t1", "fig2_t2", "fig4_tdec", "fig4_tbn", "fig4_t"):
            t = trees[name]
            assert (model_invariant_generators(t).as_set()
                    == paths_ideal_generators(t).as_set()), name

    _report(7, check)


def test_criterion_8_sampled_members(trees):
    def check():
        for name in FIXTURE_NAMES:
            t = trees[name]
            gensets = [
                model_invariant_generators(t),
                paths_ideal_generators(t),
                mpaths_generators(t),
            ]
            # Tie one seed to the public membership predicate ...
            first = psi_evaluate(t, sample_theta(t, 1))
            assert membership(t, first).member, name
            # ... then sweep the full seed range on the cached sets.
            for seed in range(1, 101):
                theta = sample_theta(t, seed)
                point = psi_evaluate(t, theta)
                assert sum(point) == 1
                assert all(0 < x < 1 for x in point)
                assignment = {
                    a.symbol: point[a.index - 1] for a in t.atoms
                }
                for genset in gensets:
                    for gen in genset:
                        assert gen.evaluate(assignment) == 0, (name, seed)
                recovered = conditional_probability_report(t, point).recovered()
                assert recovered == theta, (name, seed)

    _report(8, check)


def test_criterion_9_balance_without_positions(trees):
    def check():
        s = trees["star_example"]
        a = poly(s, "a0 + a1")
        b = poly(s, "b0 + b1 + b2")
        c = poly(s, "c0 + c1")
        assert s.t_polynomial("v1") == a * b
        assert s.t_polynomial("v2") == b
        assert s.t_polynomial("w1") == a * c
        assert s.t_polynomial("w2") == c
        assert star_condition(s, "v", "w").holds
        children = ("v1", "v2", "w1", "w2")
        for i, x in enumerate(children):
            for y in children[i + 1:]:
                assert not s.same_position(x, y), (x, y)
        verdict = is_toric(s)
        assert verdict.toric
        assert not verdict.all_same_position

    _report(9, check)
