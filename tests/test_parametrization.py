"""Ring maps, the subtree-polynomial condition, and toricity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeideals import (
    ForeignSymbol,
    InvalidSimplexPoint,
    Monomial,
    NotSameStage,
    Polynomial,
    SumToOneReduction,
    UnboundSymbol,
    atom_images,
    containment_report,
    is_toric,
    model_invariant_generators,
    mpaths_generators,
    paths_ideal_generators,
    phi_image,
    phi_toric_image,
    psi_evaluate,
    sample_theta,
    star_condition,
)
from treeideals.ideals import (
    bracket_difference,
    canonical_quadric,
    quadric_key,
    quadric_polynomials,
    quadric_terms,
)
from treeideals.ideals import SeedOrigin, same_stage_pairs
from treeideals.parametrization import BracketImages
from treeideals.polycore import compare_polynomials
from conftest import (
    FIXTURE_NAMES,
    caterpillar_tree,
    level_tree,
    load_fixture,
    poly,
    random_tree,
)

TORIC = {
    "fig1_t1", "fig1_t2", "fig1_t3", "fig2_t1",
    "fig4_tdec", "fig4_tpos", "star_example",
}
ALL_SAME_POSITION = {"fig1_t1", "fig1_t2", "fig1_t3", "fig2_t1", "fig4_tdec"}

GENERATED = {
    "level2x3": lambda: level_tree(2, 3),
    "level2x3_relabel": lambda: level_tree(2, 3, relabel=True),
    "level3x3_relabel": lambda: level_tree(3, 3, relabel=True),
    "caterpillar5": lambda: caterpillar_tree(5),
}


@pytest.fixture(params=FIXTURE_NAMES + sorted(GENERATED))
def image_tree(request):
    if request.param in GENERATED:
        return GENERATED[request.param]()
    return load_fixture(request.param)


def label_monomial(t, v):
    """Product of the edge labels from the root down to v."""
    atom = t.atoms[t.atom_indices(v)[0] - 1]
    return Monomial((s, 1) for s in atom.labels[:t.depth_of(v)])


def toric_by_brackets(t, a, b, c, d):
    """Reference phi(p_[a]p_[b] - p_[c]p_[d]) from phi(p_[v]) = L(v)*t(v)."""
    m1 = label_monomial(t, a) * label_monomial(t, b)
    m2 = label_monomial(t, c) * label_monomial(t, d)
    return (
        Polynomial.term(1, m1) * t.t_polynomial(a) * t.t_polynomial(b)
        - Polynomial.term(1, m2) * t.t_polynomial(c) * t.t_polynomial(d)
    )


class TestMonomialMap:
    def test_atom_images_are_path_monomials(self):
        t = load_fixture("fig1_t1")
        images = atom_images(t)
        by_name = {s.name: f for s, f in images.items()}
        assert by_name["p1"] == poly(t, "tau0*theta0")
        assert by_name["p4"] == poly(t, "tau0*theta1")
        assert by_name["p6"] == poly(t, "tau2*theta1")

    def test_repeated_labels_give_powers(self):
        t = load_fixture("fig2_t3")
        by_name = {s.name: f for s, f in atom_images(t).items()}
        assert by_name["p1"] == poly(t, "theta0^2")
        assert by_name["p2"] == poly(t, "theta0*theta1")
        assert by_name["p3"] == poly(t, "theta1")

    def test_kernel_binomial_maps_to_zero(self):
        t = load_fixture("fig1_t2")
        assert phi_toric_image(t, poly(t, "p2*p4 - p1*p5")).is_zero()

    def test_nonkernel_value_fig2_t2(self):
        t = load_fixture("fig2_t2")
        gens = list(model_invariant_generators(t))
        assert len(gens) == 1
        expected = poly(t, "theta0*theta1*tau0*tau1") * (
            poly(t, "eta0 + eta1") * poly(t, "nu0 + nu1")
            - poly(t, "sigma0 + sigma1") * poly(t, "mu0 + mu1")
        )
        assert phi_toric_image(t, gens[0]) == expected
        assert not expected.is_zero()

    def test_nonkernel_value_fig2_t3(self):
        t = load_fixture("fig2_t3")
        gens = list(model_invariant_generators(t))
        assert len(gens) == 1
        expected = poly(
            t, "theta0^3*theta1 + theta0^2*theta1^2 - theta0^2*theta1"
        )
        assert phi_toric_image(t, gens[0]) == expected

    def test_rejects_symbols_outside_the_atom_ring(self):
        t = load_fixture("fig1_t2")
        with pytest.raises(ForeignSymbol):
            phi_toric_image(t, poly(t, "theta0"))
        other = load_fixture("fig2_t1")
        with pytest.raises(ForeignSymbol):
            phi_toric_image(t, poly(other, "p1"))


class TestSumToOneReduction:
    def test_eliminates_last_label_of_each_class(self):
        t = load_fixture("fig1_t2")
        reduction = SumToOneReduction.for_tree(t)
        assert {s.name for s in reduction.eliminated} == {"theta1", "tau2"}

    def test_class_sums_reduce_to_one(self):
        t = load_fixture("fig1_t2")
        reduction = SumToOneReduction.for_tree(t)
        assert reduction.apply(poly(t, "theta0 + theta1")) == Polynomial.one()
        assert reduction.apply(poly(t, "tau0 + tau1 + tau2")) == Polynomial.one()

    def test_untouched_labels_pass_through(self):
        t = load_fixture("fig1_t2")
        reduction = SumToOneReduction.for_tree(t)
        assert reduction.apply(poly(t, "tau0*theta0")) == poly(t, "tau0*theta0")


class TestQuotientMap:
    def test_all_generators_map_to_zero(self, any_tree):
        t = any_tree
        for gen in model_invariant_generators(t):
            assert phi_image(t, gen).is_zero()
        for gen in mpaths_generators(t):
            assert phi_image(t, gen).is_zero()

    def test_sum_of_atoms_minus_one_is_in_the_kernel(self, any_tree):
        t = any_tree
        total = Polynomial.zero()
        for s in t.atom_symbols:
            total = total + Polynomial.variable(s)
        f = total - Polynomial.one()
        assert not phi_toric_image(t, f).is_zero()
        assert phi_image(t, f).is_zero()

    def test_map_is_a_ring_homomorphism(self):
        t = load_fixture("fig1_t2")
        f = poly(t, "p1 + 2*p2")
        g = poly(t, "p4 - p5 + 3")
        assert phi_image(t, f * g) == phi_image(t, f) * phi_image(t, g)
        assert phi_image(t, f + g) == phi_image(t, f) + phi_image(t, g)

    def test_nonmember_has_nonzero_image(self):
        t = load_fixture("fig1_t2")
        assert not phi_image(t, poly(t, "p1 - p2")).is_zero()


class TestStarCondition:
    def test_holds_on_a_position_pair(self):
        t = load_fixture("fig1_t2")
        result = star_condition(t, "v1", "v2")
        assert result.holds
        assert result.witnesses == ()
        assert bool(result)

    def test_failure_witness_fig2_t3(self):
        t = load_fixture("fig2_t3")
        result = star_condition(t, "v0", "v1")
        assert not result.holds
        assert len(result.witnesses) == 1
        w = result.witnesses[0]
        assert (w.i, w.j) == (1, 2)
        assert (w.label_i, w.label_j) == ("theta0", "theta1")
        assert w.difference == poly(t, "theta0 + theta1 - 1")

    def test_failure_witness_fig4_tbn(self):
        t = load_fixture("fig4_tbn")
        red = poly(t, "full_d + part_d")
        yellow = poly(t, "full_s + part_s")
        sub = {
            "v3": poly(t, "die0") * red + poly(t, "surv0") * yellow,
            "v4": poly(t, "die1") * red + poly(t, "surv1") * yellow,
            "v5": poly(t, "die2") * red + poly(t, "surv2") * yellow,
            "v6": poly(t, "die3") * red + poly(t, "surv3") * yellow,
        }
        result = star_condition(t, "v1", "v2")
        assert not result.holds
        w = result.witnesses[0]
        assert (w.label_i, w.label_j) == ("high", "low")
        assert w.difference == sub["v3"] * sub["v6"] - sub["v5"] * sub["v4"]

    def test_swapping_the_pair_negates_the_witness(self):
        t = load_fixture("fig2_t3")
        forward = star_condition(t, "v0", "v1").witnesses[0].difference
        backward = star_condition(t, "v1", "v0").witnesses[0].difference
        assert forward == -backward

    def test_requires_same_stage(self):
        t = load_fixture("fig2_t1")
        with pytest.raises(NotSameStage):
            star_condition(t, "v3", "v4")

    def test_holds_without_same_position(self):
        # Differently shaped subtrees can still balance the products.
        t = load_fixture("fig4_tpos")
        assert not t.same_position("v1", "v2")
        assert star_condition(t, "v1", "v2").holds
        s = load_fixture("star_example")
        assert not s.same_position("v", "w")
        assert star_condition(s, "v", "w").holds
        assert not s.same_position("v1", "w1")
        assert star_condition(s, "v1", "w1").holds


def star_differences(t, v, w):
    """Reference t(v_i)t(w_j) - t(w_i)t(v_j) per aligned index pair (i, j),
    1-based, by products of subtree polynomials."""
    labels = t.stage_class_of(v).labels
    out = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            v_i, w_i = t.child_via(v, labels[i]), t.child_via(w, labels[i])
            v_j, w_j = t.child_via(v, labels[j]), t.child_via(w, labels[j])
            out[i + 1, j + 1] = (t.t_polynomial(v_i) * t.t_polynomial(w_j)
                                 - t.t_polynomial(w_i) * t.t_polynomial(v_j))
    return out


class TestToricityProperties:
    """The toricity verdict against polynomial references, over fixtures
    and generated trees."""

    def test_witnesses_are_the_nonzero_product_differences(self, property_tree):
        t = property_tree
        for v, w in same_stage_pairs(t):
            result = star_condition(t, v, w)
            expected = {ij: d for ij, d in star_differences(t, v, w).items() if not d.is_zero()}
            assert {(x.i, x.j): x.difference for x in result.witnesses} == expected
            assert result.holds == (not expected)
            labels = t.stage_class_of(v).labels
            for x in result.witnesses:
                assert (x.label_i, x.label_j) == (labels[x.i - 1].name, labels[x.j - 1].name)

    def test_all_same_position_matches_the_pairwise_reference(self, property_tree):
        t = property_tree
        verdict = is_toric(t)
        pairs = list(same_stage_pairs(t))
        assert verdict.all_same_position == all(t.same_position(v, w) for v, w in pairs)
        assert verdict.checked_pairs == len(pairs)


class TestToricity:
    def test_verdict_per_fixture(self, trees):
        for name, t in trees.items():
            verdict = is_toric(t)
            assert verdict.toric == (name in TORIC), name
            assert verdict.all_same_position == (name in ALL_SAME_POSITION), name
            assert bool(verdict) == verdict.toric

    def test_positions_fast_path_is_not_necessary(self, trees):
        # Toric trees exist outside the all-positions fast path.
        assert is_toric(trees["fig4_tpos"]).toric
        assert not is_toric(trees["fig4_tpos"]).all_same_position
        assert is_toric(trees["star_example"]).toric
        assert not is_toric(trees["star_example"]).all_same_position

    def test_checked_pair_counts(self, trees):
        assert is_toric(trees["fig2_t3"]).checked_pairs == 1
        assert is_toric(trees["fig4_tbn"]).checked_pairs == 13
        assert is_toric(trees["fig4_t"]).checked_pairs == 14

    def test_failures_name_the_offending_pair(self):
        t = load_fixture("fig2_t3")
        verdict = is_toric(t)
        assert len(verdict.failures) == 1
        assert (verdict.failures[0].v, verdict.failures[0].w) == ("v0", "v1")

    def test_single_failure_despite_many_pairs(self):
        verdict = is_toric(load_fixture("fig4_t"))
        assert len(verdict.failures) == 1
        assert (verdict.failures[0].v, verdict.failures[0].w) == ("v1", "v2")


class TestContainment:
    def test_every_generator_lies_in_the_kernel(self, any_tree):
        report = containment_report(any_tree)
        assert report.ok
        assert report.phi_failures == ()

    def test_checked_counts_fig2_t1(self, trees):
        report = containment_report(trees["fig2_t1"])
        assert report.checked == {"model": 3, "paths": 3, "mpaths": 6}

    def test_toric_trees_have_binomial_kernel_bases(self, trees):
        for name in sorted(TORIC):
            report = containment_report(trees[name])
            assert report.mpaths_in_toric_kernel, name
            assert report.mpaths_all_binomial, name

    def test_nontoric_fixtures_fail_both_binomial_checks(self, trees):
        for name in sorted(set(trees) - TORIC):
            report = containment_report(trees[name])
            assert not report.mpaths_in_toric_kernel, name
            assert not report.mpaths_all_binomial, name

    def test_no_sum_to_one_reduction_unless_an_image_is_nonzero(
        self, monkeypatch, property_tree
    ):
        def forbidden(cls, t):
            raise AssertionError("sum-to-one reduction built")

        monkeypatch.setattr(SumToOneReduction, "for_tree", classmethod(forbidden))
        assert containment_report(property_tree).ok

    def test_builds_only_what_it_reports(self, monkeypatch, property_tree):
        # A polynomial per maximal-path generator, none for the model and
        # path sets (no image fails here), and no provenance string: every
        # set's provenance is formatted in ``_generator_set``.
        built = []
        from_ordered = Polynomial.from_ordered

        def counted(terms):
            built.append(terms)
            return from_ordered(terms)

        def forbidden(*args):
            raise AssertionError("provenance formatted")

        monkeypatch.setattr(Polynomial, "from_ordered", staticmethod(counted))
        monkeypatch.setattr(SeedOrigin, "__str__", forbidden)
        monkeypatch.setattr("treeideals.ideals._generator_set", forbidden)
        report = containment_report(property_tree)
        assert report.ok
        assert len(built) == report.checked["mpaths"]


class TestBracketImages:
    """Images read per vertex or per atom pair equal the term-by-term ring maps."""

    def test_generator_images_match_term_by_term(self, image_tree):
        t = image_tree
        images = BracketImages(t)
        failures, toric_images = [], []
        for genset in (model_invariant_generators(t), paths_ideal_generators(t),
                       mpaths_generators(t)):
            for gen, ends, terms in zip(genset.generators, genset.endpoints,
                                        genset.tables, strict=True):
                reduced, toric = phi_image(t, gen), phi_toric_image(t, gen)
                assert images.reduced(*ends) == reduced
                assert images.toric_image(terms) == toric
                assert toric_by_brackets(t, *ends) == toric
                if not reduced.is_zero():
                    failures.append((genset.kind, gen, reduced))
                if genset.kind == "mpaths":
                    toric_images.append((gen, toric))
        report = containment_report(t)
        assert report.phi_failures == tuple(failures)
        assert report.mpaths_toric_images == tuple(toric_images)

    def test_subtree_polynomials_reduce_to_one(self, image_tree):
        t = image_tree
        reduction = SumToOneReduction.for_tree(t)
        for v in t.vertices:
            assert reduction.apply(t.t_polynomial(v)) == Polynomial.one()

    def test_other_quadrics_match_term_by_term(self, image_tree):
        # Arbitrary vertex quadruples: the images need not vanish and the
        # label monomials above the two products need not agree.
        t = image_tree
        images = BracketImages(t)
        rng, leaf_rng = random.Random(1802), random.Random(2018)
        unequal_and_nonzero = 0
        for _ in range(12):
            a, b, c, d = (rng.choice(t.vertices) for _ in range(4))
            quadric = bracket_difference(t, a, b, c, d)
            reduced = phi_image(t, quadric)
            assert images.reduced(a, b, c, d) == reduced
            toric = phi_toric_image(t, quadric)
            assert images.toric_image(quadric_terms(t, a, b, c, d)) == toric
            assert toric_by_brackets(t, a, b, c, d) == toric
            above1 = label_monomial(t, a) * label_monomial(t, b)
            above2 = label_monomial(t, c) * label_monomial(t, d)
            if above1 != above2 and not reduced.is_zero():
                unequal_and_nonzero += 1
            leaves = [leaf_rng.choice(t.leaves) for _ in range(4)]
            assert images.label_difference(*leaves) == phi_toric_image(
                t, bracket_difference(t, *leaves)
            )
        assert unequal_and_nonzero


GENERATOR_SETS = (model_invariant_generators, paths_ideal_generators, mpaths_generators)

QUADRIC_TREES = {
    **{name: load_fixture(name) for name in FIXTURE_NAMES},
    **{name: build() for name, build in GENERATED.items()},
    "caterpillar9": caterpillar_tree(9),
    **{f"random{seed}": random_tree(seed, 7) for seed in range(4)},
}


@st.composite
def quadrics(draw):
    """A tree and two vertex quadruples (a, b, c, d) of it; the first may
    repeat a bracket (a == c), cancel (c, d = a, b or b, a) or nest."""
    t = QUADRIC_TREES[draw(st.sampled_from(sorted(QUADRIC_TREES)))]
    vertex = st.sampled_from(t.vertices)
    ends = [tuple(draw(vertex) for _ in range(4)) for _ in range(2)]
    a, b, c, d = ends[0]
    shape = draw(st.sampled_from(("free", "a=c", "same", "swapped", "nested")))
    if shape == "a=c":
        c = a
    elif shape == "same":
        c, d = a, b
    elif shape == "swapped":
        c, d = b, a
    elif shape == "nested":
        c = draw(st.sampled_from([x for x in t.vertices if t.is_descendant_or_self(x, a)]))
        d = draw(st.sampled_from([x for x in t.vertices if t.is_descendant_or_self(b, x)]))
    ends[0] = (a, b, c, d)
    return t, ends


class TestQuadricTables:
    """``quadric_terms`` tables against polynomial arithmetic and phi."""

    @settings(max_examples=300, deadline=None)
    @given(quadrics())
    def test_table_is_the_bracket_difference(self, case):
        t, ends = case
        quadric = bracket_difference(t, *ends[0])
        terms = quadric_terms(t, *ends[0])
        (built,) = quadric_polynomials(t, [terms])
        assert built == quadric
        assert built.ordered_terms() == quadric.ordered_terms()
        assert BracketImages(t).toric_image(terms) == phi_toric_image(t, quadric)
        canon, flipped = canonical_quadric(t, *ends[0])
        assert quadric_polynomials(t, [canon]) == (quadric.normalized_sign(),)
        assert flipped == (quadric.normalized_sign() != quadric)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_generator_sets_build_no_monomial(self, monkeypatch, name):
        def forbidden(*args):
            raise AssertionError("monomial built")

        t = load_fixture(name)
        expected = [build(t) for build in GENERATOR_SETS]
        monkeypatch.setattr(Monomial, "__init__", forbidden)
        assert [build(t) for build in GENERATOR_SETS] == expected

    @settings(max_examples=200, deadline=None)
    @given(quadrics())
    def test_table_key_orders_as_compare_polynomials(self, case):
        t, ends = case
        tables = [quadric_terms(t, *e) for e in ends]
        f, g = quadric_polynomials(t, tables)
        k, m = (quadric_key(x) for x in tables)
        assert (k > m) - (k < m) == max(-1, min(1, compare_polynomials(f, g)))


class TestParametrizationMap:
    def _theta(self, t, values):
        return {t.table.lookup(name): Fraction(v) for name, v in values.items()}

    def test_exact_atom_probabilities(self):
        t = load_fixture("fig1_t2")
        theta = self._theta(t, {
            "theta0": "1/2", "theta1": "1/2",
            "tau0": "1/6", "tau1": "1/3", "tau2": "1/2",
        })
        assert psi_evaluate(t, theta) == [
            Fraction(1, 12), Fraction(1, 6), Fraction(1, 4),
            Fraction(1, 12), Fraction(1, 6), Fraction(1, 4),
        ]

    def test_missing_label_raises(self):
        t = load_fixture("fig1_t2")
        theta = self._theta(t, {"theta0": "1/2", "theta1": "1/2"})
        with pytest.raises(UnboundSymbol):
            psi_evaluate(t, theta)

    def test_nonpositive_value_raises(self):
        t = load_fixture("fig1_t2")
        theta = self._theta(t, {
            "theta0": 0, "theta1": 1,
            "tau0": "1/6", "tau1": "1/3", "tau2": "1/2",
        })
        with pytest.raises(InvalidSimplexPoint):
            psi_evaluate(t, theta)

    def test_class_sum_must_be_one(self):
        t = load_fixture("fig1_t2")
        theta = self._theta(t, {
            "theta0": "1/2", "theta1": "1/3",
            "tau0": "1/6", "tau1": "1/3", "tau2": "1/2",
        })
        with pytest.raises(InvalidSimplexPoint):
            psi_evaluate(t, theta)

    def test_output_sums_to_one(self, any_tree):
        t = any_tree
        theta = {}
        for cls in t.stage_classes():
            n = cls.arity
            # 1/n each keeps everything exact and strictly positive.
            for s in cls.labels:
                theta[s] = Fraction(1, n)
        out = psi_evaluate(t, theta)
        assert sum(out) == 1
        assert all(x > 0 for x in out)


def psi_by_atoms(t, theta):
    """Reference psi: each atom's probability as the product of its labels."""
    out = []
    for atom in t.atoms:
        p = Fraction(1)
        for s in atom.labels:
            p *= theta[s]
        out.append(p)
    return out


class TestPathProducts:
    @pytest.mark.parametrize("seed", [1, 7, 20181])
    def test_matches_per_atom_reference(self, property_tree, seed):
        theta = sample_theta(property_tree, seed)
        assert psi_evaluate(property_tree, theta) == psi_by_atoms(property_tree, theta)

    def test_one_multiplication_per_edge(self, monkeypatch):
        t = caterpillar_tree(200)
        theta = sample_theta(t, 1)
        calls = 0
        mul = Fraction.__mul__

        def counting(a, b):
            nonlocal calls
            calls += 1
            return mul(a, b)

        monkeypatch.setattr(Fraction, "__mul__", counting)
        out = psi_evaluate(t, theta)
        monkeypatch.undo()
        assert calls == t.n_edges
        assert out == psi_by_atoms(t, theta)
