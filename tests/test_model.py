"""Membership, recovery of edge probabilities, and sampling."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treeideals import (
    InvalidSimplexPoint,
    LengthMismatch,
    conditional_probability_report,
    membership,
    model_invariant_generators,
    psi_evaluate,
    sample_theta,
    stage_pair_seeds,
)
from treeideals.cli import parse_tree_document
from treeideals.ideals import same_stage_pairs
from treeideals.model import MembershipVerdict
from conftest import FIXTURE_NAMES, load_fixture

MEMBER_POINT = [
    Fraction(1, 12), Fraction(1, 6), Fraction(1, 4),
    Fraction(1, 12), Fraction(1, 6), Fraction(1, 4),
]
OUTSIDE_POINT = [
    Fraction(1, 2), Fraction(1, 10), Fraction(1, 10),
    Fraction(1, 10), Fraction(1, 10), Fraction(1, 10),
]


class TestMembership:
    def test_member_point(self):
        t = load_fixture("fig1_t2")
        verdict = membership(t, MEMBER_POINT)
        assert verdict.in_simplex
        assert verdict.invariants_vanish
        assert verdict.member
        assert verdict.failures == ()

    def test_uniform_point_is_a_member(self):
        t = load_fixture("fig1_t2")
        verdict = membership(t, [Fraction(1, 6)] * 6)
        assert verdict.member

    def test_nonmember_failures(self):
        t = load_fixture("fig1_t2")
        verdict = membership(t, OUTSIDE_POINT)
        assert verdict.in_simplex
        assert not verdict.invariants_vanish
        assert not verdict.member
        values = sorted(abs(value) for _, value in verdict.failures)
        assert values == [Fraction(1, 25), Fraction(1, 25), Fraction(2, 25)]

    def test_paths_cross_check(self):
        t = load_fixture("fig1_t2")
        assert seed_brackets_vanish(t, MEMBER_POINT)
        assert not seed_brackets_vanish(t, OUTSIDE_POINT)

    def test_one_atom_tree_contains_its_only_point(self):
        t = parse_tree_document('{"root": "r", "vertices": [{"id": "r"}]}')
        assert membership(t, [1]).member
        assert not membership(t, [Fraction(1, 2)]).in_simplex

    def test_boundary_and_bad_sums_leave_the_simplex(self):
        t = load_fixture("fig1_t2")
        boundary = [Fraction(0), Fraction(1, 2), Fraction(1, 2), 0, 0, 0]
        assert not membership(t, boundary).in_simplex
        short_sum = [Fraction(1, 10)] * 6
        assert not membership(t, short_sum).in_simplex
        assert not membership(t, short_sum).member

    def test_wrong_length_raises(self):
        t = load_fixture("fig1_t2")
        with pytest.raises(LengthMismatch):
            membership(t, [Fraction(1, 2), Fraction(1, 2)])

    def test_accepts_strings_and_integers(self):
        t = load_fixture("fig1_t2")
        verdict = membership(t, ["1/6", "1/6", "1/6", "1/6", "1/6", "1/6"])
        assert verdict.member


def membership_by_generators(t, point) -> MembershipVerdict:
    """Reference membership: build the canonical model generator set and
    evaluate every generator at the point, term by term."""
    values = [Fraction(x) for x in point]
    in_simplex = sum(values) == 1 and all(x > 0 for x in values)
    assignment = {a.symbol: values[a.index - 1] for a in t.atoms}
    failures = []
    for gen in model_invariant_generators(t).generators:
        value = gen.evaluate(assignment)
        if value != 0:
            failures.append((gen, value))
    return MembershipVerdict(
        in_simplex=in_simplex,
        invariants_vanish=not failures,
        failures=tuple(failures),
    )


def seed_brackets_vanish(t, point) -> bool:
    """Whether b[h1]b[t1] - b[h2]b[t2] vanishes at the point for the
    endpoints of every seed path pair, b[v] being the bracket p_[v]."""
    values = [Fraction(x) for x in point]
    b = {v: sum(values[k - 1] for k in t.atom_indices(v)) for v in t.vertices}
    return all(
        b[h1] * b[t1] == b[h2] * b[t2]
        for v, w in same_stage_pairs(t)
        for h1, t1, h2, t2 in (s.endpoints() for s in stage_pair_seeds(t, v, w))
    )


def sibling_leaf_pairs(t):
    """0-based atom positions of every two leaves sharing a parent."""
    pairs = []
    for v in t.internal_vertices:
        leaves = [
            t.atom_indices(e.child).start - 1
            for e in t.children_of(v)
            if t.is_leaf(e.child)
        ]
        pairs += [(a, b) for k, a in enumerate(leaves) for b in leaves[k + 1:]]
    return pairs


@st.composite
def points(draw, t):
    """Members, members moved on two sibling leaves, generic and boundary
    simplex points, and points whose entries do not sum to 1."""
    n = t.n_atoms
    kind = draw(st.sampled_from(
        ["member", "perturbed", "generic", "boundary", "unnormalized"]
    ))
    if kind in ("member", "perturbed"):
        point = psi_evaluate(t, sample_theta(t, draw(st.integers(0, 10**6))))
        if kind == "perturbed":
            a, b = draw(st.sampled_from(sibling_leaf_pairs(t)))
            eps = min(point[a], point[b]) / draw(st.integers(2, 1000))
            point[a] += eps
            point[b] -= eps
        return point
    if kind == "unnormalized":
        point = draw(st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=1000),
            min_size=n, max_size=n,
        ))
        assume(sum(point) != 1)
        return point
    weights = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    if kind == "boundary":
        zeros = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        weights = [0 if k in zeros else w for k, w in enumerate(weights)]
    return [Fraction(w, sum(weights)) for w in weights]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_bracket_membership_matches_generator_evaluation(trees, name, data):
    t = trees[name]
    point = data.draw(points(t))
    assert membership(t, point) == membership_by_generators(t, point)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_seed_paths_vanish_exactly_where_the_invariants_do(trees, name, data):
    # On the open simplex every bracket is positive, so the path ideal
    # and the model invariants cut out the same points.
    t = trees[name]
    point = data.draw(points(t))
    verdict = membership(t, point)
    assume(verdict.in_simplex)
    assert seed_brackets_vanish(t, point) == verdict.invariants_vanish


class TestConditionalRecovery:
    def test_exact_recovery_on_a_member(self):
        t = load_fixture("fig1_t2")
        report = conditional_probability_report(t, MEMBER_POINT)
        assert report.consistent
        recovered = {s.name: x for s, x in report.recovered().items()}
        assert recovered == {
            "theta0": Fraction(1, 2), "theta1": Fraction(1, 2),
            "tau0": Fraction(1, 6), "tau1": Fraction(1, 3),
            "tau2": Fraction(1, 2),
        }
        assert report.edge_values[("v0", "v1")] == Fraction(1, 2)
        assert report.edge_values[("v1", "l3")] == Fraction(1, 2)

    def test_disagreements_on_a_nonmember(self):
        t = load_fixture("fig1_t2")
        report = conditional_probability_report(t, OUTSIDE_POINT)
        assert not report.consistent
        names = {s.name for s in report.disagreements}
        assert names == {"tau0", "tau1", "tau2"}
        rows = {
            key: value
            for s, pairs in report.by_label.items()
            if s.name == "tau0"
            for key, value in pairs
        }
        assert rows[("v1", "l1")] == Fraction(5, 7)
        assert rows[("v2", "l4")] == Fraction(1, 3)

    def test_rows_per_label_cover_the_stage(self):
        t = load_fixture("fig2_t1")
        report = conditional_probability_report(t, [Fraction(1, 8)] * 8)
        for s, rows in report.by_label.items():
            cls = t.stage_class_of(rows[0][0][0])
            assert len(rows) == cls.size

    def test_rejects_boundary_points(self):
        t = load_fixture("fig1_t2")
        bad = [Fraction(0), Fraction(1, 2), Fraction(1, 2), 0, 0, 0]
        with pytest.raises(InvalidSimplexPoint):
            conditional_probability_report(t, bad)

    def test_rejects_wrong_sums(self):
        t = load_fixture("fig1_t2")
        with pytest.raises(InvalidSimplexPoint):
            conditional_probability_report(t, [Fraction(1, 10)] * 6)


class TestSampling:
    def test_deterministic_per_seed(self, any_tree):
        first = sample_theta(any_tree, 7)
        second = sample_theta(any_tree, 7)
        assert first == second
        assert sample_theta(any_tree, 8) != first

    def test_samples_lie_in_the_open_simplex(self, any_tree):
        t = any_tree
        theta = sample_theta(t, 3)
        assert all(x > 0 for x in theta.values())
        for cls in t.stage_classes():
            assert sum(theta[s] for s in cls.labels) == 1

    def test_round_trip_through_the_parametrization(self, any_tree):
        t = any_tree
        for seed in (1, 2, 3):
            theta = sample_theta(t, seed)
            point = psi_evaluate(t, theta)
            assert membership(t, point).member
            assert seed_brackets_vanish(t, point)
            report = conditional_probability_report(t, point)
            assert report.consistent
            assert report.recovered() == theta
