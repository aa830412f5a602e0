"""Generator sets, path extensions, and the dimension count."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treeideals import (
    NotSameStage,
    Polynomial,
    build_tree,
    containment_report,
    denominator_product,
    dimension_forms,
    extend_pair,
    fully_extends,
    maximal_extensions,
    maximal_extensions_stepwise,
    model_dimension,
    model_invariant_generators,
    mpaths_generators,
    path_difference,
    paths_ideal_generators,
    stage_pair_seeds,
    stage_path_generators,
    tree_path,
)
from treeideals import ideals
from treeideals.cli import parse_tree_document, render_tree_document
from treeideals.ideals import bracket_difference, extension_candidates, same_stage_pairs
from conftest import (
    FIXTURE_NAMES,
    GENERATED_TREES,
    canonical,
    caterpillar_tree,
    fixture_text,
    level_tree,
    load_fixture,
    poly,
    staged_classes_binary,
)
from mpaths_results import mpaths_results

EXPECTED_DIMENSION = {
    "fig1_t1": 3, "fig1_t2": 3, "fig1_t3": 3,
    "fig2_t1": 4, "fig2_t2": 6, "fig2_t3": 1,
    "fig4_tdec": 9, "fig4_tbn": 8, "fig4_t": 7, "fig4_tpos": 4,
    "star_example": 6,
}

# v0 -> (v1 s0, l1 s1), v1 -> (v2 s0, l2 s1), v2 -> (l3 a0, v3 a1),
# v3 -> (l4 s0, l5 s1): v0, v1 and v3 form one stage.
REORDERED_TREE = """{"root": "v0", "vertices": [
    {"id": "v0", "edges": [{"to": "v1", "label": "s0"}, {"to": "l1", "label": "s1"}]},
    {"id": "v1", "edges": [{"to": "v2", "label": "s0"}, {"to": "l2", "label": "s1"}]},
    {"id": "v2", "edges": [{"to": "l3", "label": "a0"}, {"to": "v3", "label": "a1"}]},
    {"id": "v3", "edges": [{"to": "l4", "label": "s0"}, {"to": "l5", "label": "s1"}]}
]}"""


def all_seeds(t):
    for v, w in same_stage_pairs(t):
        yield from stage_pair_seeds(t, v, w)


def antichain_maximal(t, seed):
    """Reference filter: the candidates that no other candidate extends,
    comparing every pair of candidates endpoint by endpoint."""
    candidates = extension_candidates(t, seed)

    def extends(q, p):
        return all(t.is_descendant_or_self(qx, px) for qx, px in zip(q, p))

    maximal = [
        p for p in candidates
        if not any(q != p and extends(q, p) for q in candidates)
    ]
    return sorted(maximal, key=lambda p: tuple(t.dfs_index(x) for x in p))


def candidates_by_paths(t, seed):
    """Reference for ``extension_candidates``: each endpoint descends to
    any vertex whose chain avoids every vertex of the endpoint's path,
    with the label products compared as sorted label lists."""

    def completions(endpoint, path):
        occupied = set(path)
        out, stack = [(endpoint, ())], [(endpoint, ())]
        while stack:
            v, labels = stack.pop()
            for e in t.children_of(v):
                if e.child not in occupied:
                    out.append((e.child, labels + (e.label.index,)))
                    stack.append(out[-1])
        return out

    path1 = tree_path(t, seed.head1, seed.tail1)
    path2 = tree_path(t, seed.head2, seed.tail2)
    return {
        (a, b, c, d)
        for a, ma in completions(seed.head1, path1)
        for b, mb in completions(seed.tail1, path1)
        for c, mc in completions(seed.head2, path2)
        for d, md in completions(seed.tail2, path2)
        if sorted(ma + mb) == sorted(mc + md)
    }


def contains_run(path, run):
    return any(path[k:k + len(run)] == run for k in range(len(path) - len(run) + 1))


EXTENSION_TREES = {
    "reordered": lambda: parse_tree_document(REORDERED_TREE),
    "level2x3_relabel": lambda: level_tree(2, 3, relabel=True),
    "caterpillar5": lambda: caterpillar_tree(5),
}


@pytest.fixture(params=FIXTURE_NAMES + sorted(EXTENSION_TREES))
def extension_tree(request):
    if request.param in EXTENSION_TREES:
        return EXTENSION_TREES[request.param]()
    return load_fixture(request.param)


@pytest.fixture(params=FIXTURE_NAMES + sorted(EXTENSION_TREES) + ["level2x5"])
def span_filter_tree(request):
    """The extension trees and level(2,5), where most candidates of a
    seed end at four leaves."""
    if request.param == "level2x5":
        return level_tree(2, 5)
    if request.param in EXTENSION_TREES:
        return EXTENSION_TREES[request.param]()
    return load_fixture(request.param)


class TestTreePaths:
    def test_path_through_the_root(self):
        t = load_fixture("fig1_t2")
        assert tree_path(t, "l1", "l5") == ("l1", "v1", "v0", "v2", "l5")

    def test_path_down_a_chain(self):
        t = load_fixture("fig1_t3")
        assert tree_path(t, "v1", "l2") == ("v1", "w1", "l2")
        assert tree_path(t, "l2", "v1") == ("l2", "w1", "v1")

    def test_trivial_path(self):
        t = load_fixture("fig1_t2")
        assert tree_path(t, "v1", "v1") == ("v1",)

    def test_path_between_cousins(self):
        t = load_fixture("fig2_t1")
        assert tree_path(t, "v3", "v6") == ("v3", "v1", "v0", "v2", "v6")


class TestSeeds:
    def test_seed_paths_and_alignment(self):
        t = load_fixture("fig1_t2")
        seeds = stage_pair_seeds(t, "v1", "v2")
        assert len(seeds) == 3
        first = seeds[0]
        assert first.origin.v == "v1" and first.origin.w == "v2"
        assert (first.origin.i, first.origin.j) == (1, 2)
        assert (first.origin.label_i, first.origin.label_j) == ("tau0", "tau1")
        assert tree_path(t, first.head1, first.tail1) == ("l1", "v1", "v0", "v2", "l5")
        assert tree_path(t, first.head2, first.tail2) == ("l4", "v2", "v0", "v1", "l2")
        assert first.endpoints() == ("l1", "l5", "l4", "l2")

    def test_alignment_is_by_label_not_declaration_position(self):
        # Second member declares its labels in swapped order; pairing
        # still goes by label symbol.
        t = build_tree(
            root="r",
            vertices=[
                ("r", [("a", "u0"), ("b", "u1")]),
                ("a", [("a1", "s0"), ("a2", "s1")]),
                ("b", [("b1", "s1"), ("b2", "s0")]),
            ],
        )
        seeds = stage_pair_seeds(t, "a", "b")
        assert seeds[0].endpoints() == ("a1", "b1", "b2", "a2")

    def test_seed_requires_same_stage(self):
        t = load_fixture("fig2_t1")
        with pytest.raises(NotSameStage):
            stage_pair_seeds(t, "v3", "v4")
        with pytest.raises(NotSameStage):
            stage_pair_seeds(t, "v1", "v1")
        with pytest.raises(NotSameStage):
            stage_pair_seeds(t, "l1", "l2")

    def test_path_difference_convention(self):
        t = load_fixture("fig1_t2")
        seed = stage_pair_seeds(t, "v1", "v2")[0]
        assert path_difference(t, seed) == poly(t, "p1*p5 - p4*p2")


class TestModelInvariants:
    def test_fig1_t1_binomials(self):
        t = load_fixture("fig1_t1")
        expect = canonical(t, ["p1*p5 - p2*p4", "p1*p6 - p3*p4", "p2*p6 - p3*p5"])
        assert model_invariant_generators(t).as_set() == expect

    def test_fig1_t2_four_term_generators(self):
        t = load_fixture("fig1_t2")
        expect = canonical(t, [
            "p1*p5 + p1*p6 - p2*p4 - p3*p4",
            "p2*p4 + p2*p6 - p1*p5 - p3*p5",
            "p3*p4 + p3*p5 - p1*p6 - p2*p6",
        ])
        assert model_invariant_generators(t).as_set() == expect

    def test_fig1_t3_mixed_generators(self):
        t = load_fixture("fig1_t3")
        expect = canonical(t, [
            "p1*p5 - p4*p2",
            "p3*p4 + p3*p5 - p6*p1 - p6*p2",
        ])
        assert model_invariant_generators(t).as_set() == expect

    def test_fig2_t3_single_generator(self):
        t = load_fixture("fig2_t3")
        expect = canonical(t, ["p1*p3 - p2*p1 - p2*p2"])
        assert model_invariant_generators(t).as_set() == expect

    def test_generators_are_homogeneous_quadrics(self, any_tree):
        for gen in model_invariant_generators(any_tree):
            assert gen.is_homogeneous(2)

    def test_provenance_merges_coincident_labels(self):
        # Arity-2 classes produce the same quadric from both labels.
        t = load_fixture("fig1_t1")
        genset = model_invariant_generators(t)
        target = poly(t, "p2*p4 - p1*p5").normalized_sign()
        origins = genset.provenance[target]
        assert len(origins) == 2
        assert all("stage pair (v1, v2)" in o for o in origins)

    def test_singleton_stages_contribute_nothing(self):
        t = load_fixture("fig2_t2")
        genset = model_invariant_generators(t)
        assert len(genset) == 1
        assert all("(v1, v2)" in o for g in genset for o in genset.provenance[g])

    def test_generators_sorted_descending_and_sign_normalized(self, any_tree):
        from treeideals import polynomial_key
        gens = list(model_invariant_generators(any_tree))
        assert gens == sorted(gens, key=polynomial_key, reverse=True)
        for g in gens:
            assert g.leading()[1] > 0


class TestPathsIdeal:
    def test_fig1_t2_path_binomials(self):
        t = load_fixture("fig1_t2")
        expect = canonical(t, ["p1*p5 - p2*p4", "p1*p6 - p3*p4", "p2*p6 - p3*p5"])
        assert paths_ideal_generators(t).as_set() == expect

    def test_stage_path_generators_in_index_order(self):
        t = load_fixture("fig1_t2")
        gens = stage_path_generators(t, "v1", "v2")
        assert gens == [
            poly(t, "p2*p4 - p1*p5"),
            poly(t, "p3*p4 - p1*p6"),
            poly(t, "p3*p5 - p2*p6"),
        ]

    def test_binary_collapse(self, any_tree):
        if staged_classes_binary(any_tree):
            assert (paths_ideal_generators(any_tree).as_set()
                    == model_invariant_generators(any_tree).as_set())

    def test_non_binary_trees_differ(self):
        t = load_fixture("fig1_t2")
        assert (paths_ideal_generators(t).as_set()
                != model_invariant_generators(t).as_set())

    def test_odds_generator_is_signed_sum_of_path_differences(self, any_tree):
        t = any_tree
        for cls in t.stage_classes():
            if cls.size < 2:
                continue
            for a in range(cls.size):
                for b in range(a + 1, cls.size):
                    v, w = cls.vertices[a], cls.vertices[b]
                    seeds = stage_pair_seeds(t, v, w)
                    diff = {(s.origin.i, s.origin.j): path_difference(t, s)
                            for s in seeds}
                    n = cls.arity
                    for i, s in enumerate(cls.labels, start=1):
                        odds = (t.p_bracket(v) * t.p_bracket(t.child_via(w, s))
                                - t.p_bracket(t.child_via(v, s)) * t.p_bracket(w))
                        acc = Polynomial.zero()
                        for j in range(1, n + 1):
                            if j > i:
                                acc = acc - diff[(i, j)]
                            elif j < i:
                                acc = acc + diff[(j, i)]
                        assert odds == acc


class TestExtensions:
    def test_one_step_extensions(self):
        t = load_fixture("fig2_t1")
        seed = stage_pair_seeds(t, "v1", "v2")[0]
        steps = extend_pair(t, seed)
        assert len(steps) == 4
        endpoints = {s.endpoints() for s in steps}
        assert ("l1", "v6", "l5", "v4") in endpoints
        assert ("v3", "l7", "v5", "l3") in endpoints

    def test_two_step_chain(self):
        t = load_fixture("fig2_t1")
        seed = stage_pair_seeds(t, "v1", "v2")[0]
        step1 = next(s for s in extend_pair(t, seed)
                     if s.endpoints() == ("l1", "v6", "l5", "v4"))
        step2 = {s.endpoints() for s in extend_pair(t, step1)}
        assert ("l1", "l7", "l5", "l3") in step2

    def test_maximal_extensions_reach_leaves(self):
        t = load_fixture("fig2_t1")
        seed = stage_pair_seeds(t, "v1", "v2")[0]
        maximal = maximal_extensions(t, seed)
        assert [m.endpoints() for m in maximal] == [
            ("l1", "l7", "l5", "l3"),
            ("l1", "l8", "l5", "l4"),
            ("l2", "l7", "l6", "l3"),
            ("l2", "l8", "l6", "l4"),
        ]
        assert fully_extends(t, seed)

    def test_blocked_seed_is_its_own_maximal_extension(self):
        t = load_fixture("fig4_tbn")
        seed = stage_pair_seeds(t, "v1", "v2")[0]
        assert extend_pair(t, seed) == []
        maximal = maximal_extensions(t, seed)
        assert len(maximal) == 1
        assert maximal[0].endpoints() == seed.endpoints()
        assert not fully_extends(t, seed)

    def test_green_stage_unblocks_the_seed(self):
        t = load_fixture("fig4_t")
        seed = stage_pair_seeds(t, "v1", "v2")[0]
        assert len(extend_pair(t, seed)) == 2
        maximal = maximal_extensions(t, seed)
        assert {m.endpoints() for m in maximal} == {
            ("l0000", "v6", "v5", "l0100"),
            ("l0001", "v6", "v5", "l0101"),
            ("l0010", "v6", "v5", "l0110"),
            ("l0011", "v6", "v5", "l0111"),
        }
        assert not fully_extends(t, seed)

    def test_internal_endpoints_can_be_maximal(self):
        t = load_fixture("fig2_t3")
        seed = stage_pair_seeds(t, "v0", "v1")[0]
        maximal = maximal_extensions(t, seed)
        assert len(maximal) == 1
        assert maximal[0].endpoints() == seed.endpoints()
        assert not fully_extends(t, seed)

    def test_fully_extending_tree(self):
        t = load_fixture("fig4_tpos")
        for cls in t.stage_classes():
            if cls.size < 2:
                continue
            for a in range(cls.size):
                for b in range(a + 1, cls.size):
                    for seed in stage_pair_seeds(t, cls.vertices[a], cls.vertices[b]):
                        assert fully_extends(t, seed)

    def test_maximal_extensions_form_an_antichain(self, any_tree):
        t = any_tree
        for cls in t.stage_classes():
            if cls.size < 2:
                continue
            for a in range(cls.size):
                for b in range(a + 1, cls.size):
                    for seed in stage_pair_seeds(t, cls.vertices[a], cls.vertices[b]):
                        maximal = maximal_extensions(t, seed)
                        for m in maximal:
                            # Extensions descend from the seed's endpoints.
                            for x, y in zip(m.endpoints(), seed.endpoints()):
                                assert t.is_descendant_or_self(x, y)
                        for m1 in maximal:
                            for m2 in maximal:
                                if m1 is m2:
                                    continue
                                assert not all(
                                    t.is_descendant_or_self(x, y)
                                    for x, y in zip(m1.endpoints(), m2.endpoints())
                                )

    def test_span_filter_matches_pairwise_reference(self, span_filter_tree):
        t = span_filter_tree
        for seed in all_seeds(t):
            found = [m.endpoints() for m in maximal_extensions(t, seed)]
            assert found == antichain_maximal(t, seed)

    def test_stepwise_and_exhaustive_agree_on_fixtures(self, any_tree):
        t = any_tree
        for cls in t.stage_classes():
            if cls.size < 2:
                continue
            for a in range(cls.size):
                for b in range(a + 1, cls.size):
                    for seed in stage_pair_seeds(t, cls.vertices[a], cls.vertices[b]):
                        exhaustive = maximal_extensions(t, seed)
                        stepwise = maximal_extensions_stepwise(t, seed)
                        assert set(exhaustive) == set(stepwise)

    def test_exhaustive_search_finds_reordered_label_products(self):
        # From v1 -> l2 the first path climbs to v3 by s0 then a1; from
        # v2 -> l1 the second descends to l4 by a1 then s0.  The label
        # products agree only as whole products, which no sequence of
        # single equal-label steps reaches.
        t = parse_tree_document(REORDERED_TREE)
        seed = next(
            s for s in stage_pair_seeds(t, "v0", "v1")
            if s.endpoints() == ("v1", "l2", "v2", "l1")
        )
        assert [m.endpoints() for m in maximal_extensions(t, seed)] == [
            ("v3", "l2", "l4", "l1"),
        ]
        assert maximal_extensions_stepwise(t, seed) == [seed]
        assert containment_report(t).ok


class TestExtensionProperties:
    """Extensions read off the four endpoints, over fixtures and
    generated trees."""

    def test_candidates_match_the_path_vertex_reference(self, property_tree):
        t = property_tree
        for seed in all_seeds(t):
            found = extension_candidates(t, seed)
            assert len(found) == len(set(found))
            assert set(found) == candidates_by_paths(t, seed)

    def test_extensions_contain_the_seed_paths(self, property_tree):
        t = property_tree
        for seed in all_seeds(t):
            maximal = maximal_extensions(t, seed)
            assert [m.endpoints() for m in maximal] == antichain_maximal(t, seed)
            for m in maximal:
                assert m.origin == seed.origin
                assert contains_run(tree_path(t, m.head1, m.tail1),
                                    tree_path(t, seed.head1, seed.tail1))
                assert contains_run(tree_path(t, m.head2, m.tail2),
                                    tree_path(t, seed.head2, seed.tail2))


class TestEndpoints:
    def test_each_generator_is_its_bracket_difference(self, extension_tree):
        t = extension_tree
        for genset in (model_invariant_generators(t), paths_ideal_generators(t),
                       mpaths_generators(t)):
            assert len(genset.endpoints) == len(genset.generators)
            for gen, ends in zip(genset.generators, genset.endpoints):
                assert gen == bracket_difference(t, *ends)


class TestMpaths:
    def test_fig2_t1_six_binomials(self):
        t = load_fixture("fig2_t1")
        expect = canonical(t, [
            "p1*p7 - p5*p3", "p1*p8 - p5*p4", "p2*p7 - p6*p3",
            "p2*p8 - p6*p4", "p1*p6 - p5*p2", "p3*p8 - p7*p4",
        ])
        genset = mpaths_generators(t)
        assert genset.as_set() == expect

    def test_fig1_trees_share_one_kernel_basis(self):
        # All three describe the same model; transported along atom
        # names, the maximal-path generator sets coincide.
        t2 = load_fixture("fig1_t2")
        expect = mpaths_generators(t2).as_set()
        for name in ("fig1_t1", "fig1_t3"):
            other = load_fixture(name)
            moved = canonical(t2, [str(g) for g in mpaths_generators(other)])
            assert moved == expect

    def test_fig4_tpos_kernel_binomials(self):
        t = load_fixture("fig4_tpos")
        expect = canonical(t, [
            "p3*p5 - p2*p6", "p2*p4 - p1*p5", "p3*p4 - p1*p6",
            "p4*p7 - p1*p8", "p5*p7 - p2*p8", "p6*p7 - p3*p8",
        ])
        assert mpaths_generators(t).as_set() == expect

    def test_blocked_tree_keeps_seed_generators(self):
        t = load_fixture("fig4_tbn")
        genset = mpaths_generators(t)
        assert genset.as_set() == paths_ideal_generators(t).as_set()
        assert sum(1 for g in genset if not g.is_binomial()) == 1

    def test_counts_on_fig4_family(self):
        assert len(mpaths_generators(load_fixture("fig4_tdec"))) == 12
        assert len(mpaths_generators(load_fixture("fig4_tbn"))) == 13
        assert len(mpaths_generators(load_fixture("fig4_t"))) == 20


def same_names_other_shape(t):
    """A tree on t's vertex names, laid out as a heap in t's depth-first
    order: the k-th name's children are names 2k+1 and 2k+2, and a last
    name without a sibling joins its parent's left neighbour as a third
    child.  Vertices of one arity form one stage."""
    names = t.vertices
    kids = {}
    for k in range(1, len(names)):
        parent = (k - 1) // 2
        if k == len(names) - 1 and k % 2:
            parent -= 1
        kids.setdefault(names[parent], []).append(names[k])
    return build_tree(root=names[0], vertices=[
        (v, [(c, f"h{len(cs)}_{i}") for i, c in enumerate(cs)]) for v, cs in kids.items()
    ])


def fresh_mpaths_results(documents):
    """``mpaths_results`` of each tree document, from a new interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("mpaths_results.py"))],
        input=json.dumps(documents), capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(result.stdout)


class TestCompletionsMemo:
    """One ``mpaths_generators`` call walks each (endpoint, skipped child)
    subtree once, and no walk outlives the call."""

    def test_each_walk_made_once_per_call(self, monkeypatch):
        t = level_tree(2, 5)
        walks = []

        def counting(tree, endpoint, skipped):
            walks.append((endpoint, skipped))
            return walk(tree, endpoint, skipped)

        walk = ideals._completions
        monkeypatch.setattr(ideals, "_completions", counting)
        for _ in range(2):
            walks.clear()
            mpaths_generators(t)
            assert len(walks) == len(set(walks)) == 60

    def test_direct_calls_match_the_pairs_inside_mpaths(self, monkeypatch, extension_tree):
        t = extension_tree
        inside = []

        def recording(tree, seed, **kwargs):
            assert set(kwargs) == {"completions"}
            inside.append((seed, extend(tree, seed, **kwargs)))
            return inside[-1][1]

        extend = ideals.maximal_extensions
        monkeypatch.setattr(ideals, "maximal_extensions", recording)
        mpaths_generators(t)
        monkeypatch.undo()
        assert [seed for seed, _ in inside] == list(all_seeds(t))
        for seed, pairs in inside:
            assert maximal_extensions(t, seed) == pairs

    def test_no_walk_carries_over_to_another_tree(self):
        # A has B's vertex names in other places; A is dropped before B
        # is built, so B may even reuse A's memory.
        text = render_tree_document(level_tree(2, 4))
        a = same_names_other_shape(parse_tree_document(text))
        assert set(a.vertices) == set(parse_tree_document(text).vertices)
        assert a.signature != parse_tree_document(text).signature
        mpaths_generators(a)
        del a
        gc.collect()
        b = parse_tree_document(text)
        assert mpaths_results(b) == fresh_mpaths_results({"b": text})["b"]

    def test_no_walk_carries_over_on_any_tree(self):
        # Here each tree follows a same-names decoy; in the new
        # interpreter it follows only the trees listed before it.
        documents = {
            **{name: fixture_text(name) for name in FIXTURE_NAMES},
            **{name: render_tree_document(build()) for name, build in GENERATED_TREES.items()},
        }
        found = {}
        for name, text in documents.items():
            mpaths_generators(same_names_other_shape(parse_tree_document(text)))
            gc.collect()
            found[name] = mpaths_results(parse_tree_document(text))
        assert found == fresh_mpaths_results(documents)


class TestDimension:
    def test_expected_dimensions(self, trees):
        for name, expected in EXPECTED_DIMENSION.items():
            assert model_dimension(trees[name]) == expected, name

    def test_both_forms_agree(self, any_tree):
        by_classes, by_edges = dimension_forms(any_tree)
        assert by_classes == by_edges

    def test_denominator_products(self):
        t = load_fixture("fig1_t2")
        assert denominator_product(t) == (
            poly(t, "p1 + p2 + p3") * poly(t, "p4 + p5 + p6")
        )
        tp = load_fixture("fig4_tpos")
        assert denominator_product(tp) == (
            poly(tp, "p1 + p2 + p3 + p4 + p5 + p6")
            * poly(tp, "p7 + p8")
            * poly(tp, "p1 + p2 + p3")
            * poly(tp, "p4 + p5 + p6")
            * poly(tp, "p2 + p3")
            * poly(tp, "p5 + p6")
        )

    def test_denominator_product_skips_singleton_stages(self):
        t = load_fixture("fig2_t2")
        assert denominator_product(t) == (
            poly(t, "p1 + p2 + p3 + p4") * poly(t, "p5 + p6 + p7 + p8")
        )
