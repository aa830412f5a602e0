"""Tree validation, atom enumeration, brackets, stages and positions."""

import random
from collections import Counter

import pytest

from treeideals import (
    EdgeDef,
    Monomial,
    Polynomial,
    StagedTree,
    TreeDefinition,
    UnknownVertex,
    ValidationError,
    VertexDef,
    build_tree,
    validate_tree,
)
from conftest import FIXTURE_NAMES, GENERATED_TREES, caterpillar_tree, load_fixture


def defn(root, vertices, atom_names=None):
    return TreeDefinition(
        root=root,
        vertices=tuple(
            VertexDef(vid, tuple(EdgeDef(to, lab) for to, lab in edges))
            for vid, edges in vertices
        ),
        atom_names=tuple(atom_names) if atom_names is not None else None,
    )


def shared_children_tree():
    """Two same-position children below a vertex of their own stage:
    t(v) = s0^2 + 2*s0*s1 + s1^2 has a coefficient above 1."""
    return build_tree(root="v", vertices=[
        ("v", [("x", "s0"), ("y", "s1")]),
        ("x", [("l1", "s0"), ("l2", "s1")]),
        ("y", [("l3", "s0"), ("l4", "s1")]),
    ])


@pytest.fixture(params=FIXTURE_NAMES + ["shared_children"])
def bracket_tree(request):
    if request.param == "shared_children":
        return shared_children_tree()
    return load_fixture(request.param)


def root_labels(t, v):
    """The edge labels from the root down to v, by walking up."""
    up = []
    while (e := t.parent_of(v)) is not None:
        up.append(e.label)
        v = e.parent
    return up[::-1]


def label_counts(labels):
    """(label, count) pairs ascending in symbol index, as ``label_powers``."""
    return tuple(sorted(Counter(labels).items(), key=lambda p: p[0].index))


KEY_TREES = {
    **GENERATED_TREES,
    "caterpillar200": lambda: caterpillar_tree(200),
    "shared_children": shared_children_tree,
}


@pytest.fixture(params=FIXTURE_NAMES + sorted(KEY_TREES))
def key_tree(request):
    """Every fixture and generated tree, the deepest caterpillar, and a
    label repeated along a path."""
    if request.param in KEY_TREES:
        return KEY_TREES[request.param]()
    return load_fixture(request.param)


def codes(definition):
    return {v.code for v in validate_tree(definition).violations}


class TestValidation:
    def test_valid_tree_is_clean(self):
        d = defn("r", [("r", [("a", "x"), ("b", "y")])])
        report = validate_tree(d)
        assert report.ok
        assert report.violations == ()

    def test_duplicate_vertex(self):
        d = defn("r", [("r", [("a", "x"), ("b", "y")]),
                       ("r", [("c", "x"), ("d", "y")])])
        assert "duplicate-vertex" in codes(d)

    def test_unknown_root(self):
        d = defn("missing", [("r", [("a", "x"), ("b", "y")])])
        assert "unknown-root" in codes(d)

    def test_bad_label_name(self):
        d = defn("r", [("r", [("a", "x y"), ("b", "y")])])
        assert "bad-label-name" in codes(d)

    def test_duplicate_edge_label(self):
        d = defn("r", [("r", [("a", "x"), ("b", "x")])])
        assert "duplicate-edge-label" in codes(d)

    def test_unary_vertex(self):
        d = defn("r", [("r", [("a", "x")])])
        assert "unary-vertex" in codes(d)

    def test_multiple_parents(self):
        d = defn("r", [("r", [("a", "x"), ("b", "y")]),
                       ("a", [("c", "u"), ("b", "v")])])
        assert "multiple-parents" in codes(d)

    def test_root_has_parent(self):
        d = defn("r", [("r", [("a", "x"), ("r", "y")])])
        assert "root-has-parent" in codes(d)

    def test_unreachable_vertex(self):
        d = defn("r", [("r", [("a", "x"), ("b", "y")]),
                       ("q", [("c", "u"), ("d", "v")])])
        assert "unreachable-vertex" in codes(d)

    def test_inconsistent_stage_labels(self):
        # One label name travelling with two different label sets.
        d = defn("r", [("r", [("a", "s"), ("b", "u")]),
                       ("a", [("c", "s"), ("d", "t")])])
        assert "inconsistent-stage" in codes(d)

    def test_atom_name_checks(self):
        base = [("r", [("a", "x"), ("b", "y")])]
        assert "atom-names-count" in codes(defn("r", base, ["p1"]))
        assert "atom-names-invalid" in codes(defn("r", base, ["p1", "2p"]))
        assert "atom-names-duplicate" in codes(defn("r", base, ["p1", "p1"]))
        assert "atom-names-collision" in codes(defn("r", base, ["p1", "x"]))

    def test_label_named_like_a_default_atom(self):
        d = defn("r", [("r", [("a", "p1"), ("b", "y")])])
        assert codes(d) == {"atom-names-collision"}
        renamed = defn("r", [("r", [("a", "p1"), ("b", "y")])], ["q1", "q2"])
        assert validate_tree(renamed).ok

    def test_build_tree_raises_with_report(self):
        d = defn("r", [("r", [("a", "x")])])
        with pytest.raises(ValidationError) as exc:
            build_tree(d)
        assert any(v.code == "unary-vertex" for v in exc.value.report.violations)
        assert "unary vertex" in str(exc.value)

    def test_cycle_reported_as_unreachable(self):
        d = defn("r", [("r", [("a", "x"), ("b", "y")]),
                       ("p", [("q", "u"), ("r2", "v")]),
                       ("q", [("p", "u2"), ("r3", "v2")])])
        assert "unreachable-vertex" in codes(d)


class TestStructure:
    def test_fixture_counts(self):
        t = load_fixture("fig1_t2")
        assert len(t.vertices) == 9
        assert t.n_atoms == 6
        assert t.n_edges == 8
        assert len(t.internal_vertices) == 3
        assert len(t.leaves) == 6
        assert len(t.stage_classes()) == 2

    def test_depth_first_atom_order(self):
        t = load_fixture("fig2_t1")
        assert [a.leaf for a in t.atoms] == [f"l{k}" for k in range(1, 9)]
        assert [a.symbol.name for a in t.atoms] == [f"p{k}" for k in range(1, 9)]
        assert [a.index for a in t.atoms] == list(range(1, 9))

    def test_atom_name_override(self):
        t = load_fixture("fig1_t1")
        # Depth-first leaf order l1, l4, l2, l5, l3, l6 carries the
        # interleaved display names.
        assert [a.symbol.name for a in t.atoms] == ["p1", "p4", "p2", "p5", "p3", "p6"]
        assert t.atom_by_name("p5").leaf == "l5"
        with pytest.raises(UnknownVertex):
            t.atom_by_name("p99")

    def test_atom_paths_and_monomials(self):
        t = load_fixture("fig1_t2")
        first = t.atoms[0]
        assert first.vertices == ("v0", "v1", "l1")
        assert [s.name for s in first.labels] == ["theta0", "tau0"]
        assert str(first.monomial) == "theta0*tau0"

    def test_atoms_match_a_walk_to_the_root(self, property_tree):
        t = property_tree
        for atom in t.atoms:
            path, labels, v = [atom.leaf], [], atom.leaf
            while (e := t.parent_of(v)) is not None:
                labels.append(e.label)
                path.append(e.parent)
                v = e.parent
            assert atom.vertices == tuple(reversed(path))
            assert atom.labels == tuple(reversed(labels))
            assert str(atom.monomial) == str(Monomial((s, 1) for s in labels))

    def test_repeated_label_along_one_path(self):
        t = load_fixture("fig2_t3")
        assert str(t.atoms[0].monomial) == "theta0^2"
        assert str(t.atoms[2].monomial) == "theta1"

    def test_parent_child_navigation(self):
        t = load_fixture("fig1_t3")
        assert [e.child for e in t.children_of("v1")] == ["w1", "l3"]
        assert t.parent_of("w1").parent == "v1"
        assert t.parent_of("v0") is None
        assert t.child_via("v1", t.symbol("sigma0")) == "w1"
        assert t.is_leaf("l3") and not t.is_leaf("w1")
        assert t.depth_of("l1") == 3
        assert t.dfs_index("v0") == 0
        with pytest.raises(UnknownVertex):
            t.children_of("nope")
        with pytest.raises(UnknownVertex):
            t.child_via("v1", t.symbol("theta0"))

    def test_descendant_test_via_spans(self):
        t = load_fixture("fig2_t1")
        assert t.is_descendant_or_self("l5", "v2")
        assert t.is_descendant_or_self("v2", "v2")
        assert not t.is_descendant_or_self("v2", "l5")
        assert not t.is_descendant_or_self("l5", "v1")
        assert t.is_descendant_or_self("l5", "v0")

    def test_atom_indices_are_contiguous(self):
        t = load_fixture("fig2_t1")
        assert list(t.atom_indices("v2")) == [5, 6, 7, 8]
        assert t.paths_through("v4") == frozenset({3, 4})
        assert t.paths_through("l1") == frozenset({1})
        assert t.paths_through("v0") == frozenset(range(1, 9))


class TestBrackets:
    def test_bracket_of_leaf_and_root(self, any_tree):
        t = any_tree
        total = Polynomial.zero()
        for a in t.atoms:
            assert t.p_bracket(a.leaf) == Polynomial.variable(a.symbol)
            total = total + Polynomial.variable(a.symbol)
        assert t.p_bracket(t.root) == total

    def test_children_sum_identity(self, bracket_tree):
        t = bracket_tree
        for v in t.internal_vertices:
            total = Polynomial.zero()
            for e in t.children_of(v):
                total = total + t.p_bracket(e.child)
            assert t.p_bracket(v) == total

    def test_subtree_polynomial_recursion(self, bracket_tree):
        t = bracket_tree
        for v in t.vertices:
            if t.is_leaf(v):
                assert t.t_polynomial(v) == Polynomial.one()
            else:
                total = Polynomial.zero()
                for e in t.children_of(v):
                    total = total + Polynomial.variable(e.label) * t.t_polynomial(e.child)
                assert t.t_polynomial(v) == total

    def test_named_subtree_polynomials(self):
        t = load_fixture("star_example")
        a = Polynomial.variable(t.symbol("a0")) + Polynomial.variable(t.symbol("a1"))
        b = sum((Polynomial.variable(t.symbol(f"b{k}")) for k in range(3)),
                Polynomial.zero())
        c = Polynomial.variable(t.symbol("c0")) + Polynomial.variable(t.symbol("c1"))
        assert t.t_polynomial("v1") == a * b
        assert t.t_polynomial("v2") == b
        assert t.t_polynomial("w1") == a * c
        assert t.t_polynomial("w2") == c


class TestStages:
    def test_stage_classes_from_shared_labels(self):
        t = load_fixture("fig2_t1")
        classes = {cls.vertices: tuple(s.name for s in cls.labels)
                   for cls in t.stage_classes()}
        assert classes == {
            ("v0",): ("theta0", "theta1"),
            ("v1", "v2"): ("tau0", "tau1"),
            ("v3", "v5"): ("sigma0", "sigma1"),
            ("v4", "v6"): ("eta0", "eta1"),
        }

    def test_class_label_order_from_first_member(self):
        t = load_fixture("fig1_t1")
        cls = t.stage_class_of("v2")
        assert cls.vertices == ("v1", "v2", "v3")
        assert [s.name for s in cls.labels] == ["theta0", "theta1"]
        assert cls.size == 3 and cls.arity == 2

    def test_same_stage_and_leaves(self):
        t = load_fixture("fig2_t1")
        assert t.same_stage("v3", "v5")
        assert not t.same_stage("v3", "v4")
        assert t.same_stage("v3", "v3")
        assert t.stage_class_of("l1") is None
        assert t.same_stage("l1", "l1")
        assert not t.same_stage("l1", "l2")

    def test_same_position_examples(self):
        t1 = load_fixture("fig2_t1")
        assert t1.same_position("v1", "v2")
        assert t1.same_position("v3", "v5")
        t2 = load_fixture("fig2_t2")
        assert t2.same_stage("v1", "v2")
        assert not t2.same_position("v1", "v2")

    def test_green_stage_makes_same_position(self):
        tbn = load_fixture("fig4_tbn")
        full = load_fixture("fig4_t")
        assert not tbn.same_stage("v3", "v4")
        assert full.same_stage("v3", "v4")
        assert full.same_position("v3", "v4")
        assert not full.same_position("v5", "v6")

    def test_position_classes_refine_stages(self):
        t = load_fixture("fig2_t2")
        assert t.position_classes() == (
            ("v0",), ("v1",), ("v2",), ("v3",), ("v4",), ("v5",), ("v6",),
        )
        t1 = load_fixture("fig2_t1")
        assert t1.position_classes() == (
            ("v0",), ("v1", "v2"), ("v3", "v5"), ("v4", "v6"),
        )
        shared = shared_children_tree()
        assert str(shared.t_polynomial("v")) == "s0^2 + 2*s0*s1 + s1^2"
        assert shared.position_classes() == (("v",), ("x", "y"))

    def test_position_classes_group_by_subtree_polynomial(self, bracket_tree):
        t = bracket_tree
        expected = []
        for cls in t.stage_classes():
            groups = {}
            for v in cls.vertices:
                groups.setdefault(t.t_polynomial(v), []).append(v)
            expected += [tuple(members) for members in groups.values()]
        assert t.position_classes() == tuple(expected)

    def test_position_classes_skip_unshared_atom_counts(self, monkeypatch):
        # Spine vertices of a caterpillar have different atom counts, so
        # no t(v) is needed to tell them apart.
        def forbidden(self, v):
            raise AssertionError(f"t({v}) built")

        t = caterpillar_tree(6)
        monkeypatch.setattr(StagedTree, "t_polynomial", forbidden)
        assert t.position_classes() == tuple((f"v{i}",) for i in range(6))

    def test_star_example_positions(self):
        t = load_fixture("star_example")
        assert t.same_position("v2", "x1") and t.same_position("x1", "x2")
        assert t.same_position("w2", "y1")
        for a, b in [("v", "w"), ("v1", "w1")]:
            assert t.same_stage(a, b)
            assert not t.same_position(a, b)


class TestIdentity:
    def test_signature_round_trip(self):
        from treeideals.cli import parse_tree_document, render_tree_document
        t = load_fixture("fig1_t1")
        again = parse_tree_document(render_tree_document(t))
        assert t == again
        assert hash(t) == hash(again)

    def test_different_labels_different_tree(self):
        a = build_tree(root="r", vertices=[("r", [("x", "u"), ("y", "v")])])
        b = build_tree(root="r", vertices=[("r", [("x", "u"), ("y", "w")])])
        assert a != b

    def test_build_tree_kwargs(self):
        t = build_tree(
            root="r",
            vertices=[("r", [("a", "x"), ("b", "y")])],
            atom_names=["left", "right"],
        )
        assert [a.symbol.name for a in t.atoms] == ["left", "right"]
        with pytest.raises(ValueError):
            build_tree()


class TestLabelKeys:
    """Packed label keys against the label words they encode."""

    def test_keys_decode_to_the_path_label_counts(self, key_tree):
        t = key_tree
        keys = t.label_keys
        assert set(keys) == set(t.vertices)
        for v in t.vertices:
            assert t.label_powers(keys[v]) == label_counts(root_labels(t, v))

    def test_sums_of_two_keys_decode_without_carries(self, key_tree):
        # The deepest leaf twice has the largest count a sum can hold.
        t = key_tree
        keys = t.label_keys
        deepest = max(t.vertices, key=t.depth_of)
        rng = random.Random(f"key sums {len(t.vertices)}")
        pairs = [(deepest, deepest)]
        pairs += [tuple(rng.choices(t.vertices, k=2)) for _ in range(200)]
        for a, b in pairs:
            expected = label_counts(root_labels(t, a) + root_labels(t, b))
            assert t.label_powers(keys[a] + keys[b]) == expected

    def test_key_sums_agree_exactly_when_label_words_agree(self, key_tree):
        t = key_tree
        keys = t.label_keys
        words = {v: tuple(s.index for s in root_labels(t, v)) for v in t.vertices}
        same_word: dict[tuple[int, ...], list[str]] = {}
        for v in t.vertices:
            same_word.setdefault(tuple(sorted(words[v])), []).append(v)
        rng = random.Random(f"key quadruples {len(t.vertices)}")
        agreeing = 0
        for _ in range(300):
            a, b, c, d = rng.choices(t.vertices, k=4)
            if rng.random() < 0.5:
                # Swap in vertices with the same sorted words, so that some
                # quadruples agree without repeating their vertices.
                c = rng.choice(same_word[tuple(sorted(words[a]))])
                d = rng.choice(same_word[tuple(sorted(words[b]))])
                if rng.random() < 0.5:
                    c, d = d, c
            same = sorted(words[a] + words[b]) == sorted(words[c] + words[d])
            agreeing += same
            assert (keys[a] + keys[b] == keys[c] + keys[d]) == same
        assert agreeing
