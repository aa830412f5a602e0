"""Layer spans for the traced benchmark run.

``Tracer.install()`` wraps the public callables of each ``treeideals``
module and patches the wrapper into every module namespace (and every
module-level dict, such as the CLI's ideal table) that binds the
original, so calls made inside the package are traced as well as the
benchmark's own.  A span records its duration; its self time is that
duration minus the time covered by its child spans.  Spans are folded
into per-name totals in memory as they close and read once at the end.

The benchmark installs the spans only after its measured run and then
calls the package only for timed set-ups and ops, so every span belongs
to one of them.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("polycore", "stagedtree", "ideals", "parametrization", "model", "cli")


def _len(tr, name, result):
    tr.count(name + ".terms_out", len(result))


def _build(tr, name, result):
    tr.count("stagedtree.vertices", len(result.vertices))
    tr.count("stagedtree.atoms", result.n_atoms)
    tr.count("stagedtree.stage_pairs",
             sum(c.size * (c.size - 1) // 2 for c in result.stage_classes()))


def _genset(tr, name, result):
    tr.count(name + ".raw", sum(len(v) for v in result.provenance.values()))
    tr.count(name + ".distinct", len(result.generators))


def _evaluate(tr, name, result):
    if tr.inside("model.membership"):
        tr.count("model.membership.generators_evaluated", 1)


# (layer metric name, module, attribute, post-call counter hook).  A name
# may repeat: all its callables add to one total.
FUNCTIONS = (
    ("stagedtree.build_tree", "stagedtree", "build_tree", _build),
    ("stagedtree.validate_tree", "stagedtree", "validate_tree", None),
    ("ideals.model", "ideals", "model_invariant_generators", _genset),
    ("ideals.paths", "ideals", "paths_ideal_generators", _genset),
    ("ideals.mpaths", "ideals", "mpaths_generators", _genset),
    ("ideals.stage_pair_seeds", "ideals", "stage_pair_seeds",
     lambda tr, n, r: tr.count("ideals.seeds", len(r))),
    ("ideals.maximal_extensions", "ideals", "maximal_extensions",
     lambda tr, n, r: tr.count(n + ".pairs_out", len(r))),
    ("ideals.stepwise", "ideals", "maximal_extensions_stepwise", None),
    ("ideals.dimension", "ideals", "dimension_forms", None),
    ("ideals.dimension", "ideals", "model_dimension", None),
    ("parametrization.is_toric", "parametrization", "is_toric",
     lambda tr, n, r: tr.count(n + ".checked_pairs", r.checked_pairs)),
    ("parametrization.star_condition", "parametrization", "star_condition",
     lambda tr, n, r: tr.count(n + ".witnesses", len(r.witnesses))),
    ("parametrization.containment", "parametrization", "containment_report",
     lambda tr, n, r: tr.count(n + ".generators_checked", sum(r.checked.values()))),
    ("parametrization.psi_evaluate", "parametrization", "psi_evaluate", None),
    ("parametrization.phi_image", "parametrization", "phi_image", None),
    ("parametrization.phi_image", "parametrization", "phi_toric_image", None),
    ("model.membership", "model", "membership",
     lambda tr, n, r: tr.count(n + ".failures_listed", len(r.failures))),
    ("model.recover", "model", "conditional_probability_report", None),
    ("model.sample_theta", "model", "sample_theta", None),
    ("cli.run_command", "cli", "run_command", None),
    ("cli.parse_tree_document", "cli", "parse_tree_document", None),
    ("cli.render_tree_document", "cli", "render_tree_document", None),
)

# (layer metric name, class in module polycore or stagedtree, method, hook).
METHODS = (
    ("polycore.mul", "polycore", "Polynomial", "__mul__", _len),
    ("polycore.mul", "polycore", "Polynomial", "__rmul__", _len),
    ("polycore.addsub", "polycore", "Polynomial", "__add__", None),
    ("polycore.addsub", "polycore", "Polynomial", "__radd__", None),
    ("polycore.addsub", "polycore", "Polynomial", "__sub__", None),
    ("polycore.addsub", "polycore", "Polynomial", "__rsub__", None),
    ("polycore.addsub", "polycore", "Polynomial", "__neg__", None),
    ("polycore.substitute", "polycore", "Polynomial", "substitute", _len),
    ("polycore.evaluate", "polycore", "Polynomial", "evaluate", _evaluate),
    ("polycore.order", "polycore", "Polynomial", "ordered_terms", None),
    ("stagedtree.position_classes", "stagedtree", "StagedTree", "position_classes", None),
)


class Tracer:
    """Span totals per traced name, plus work counters from the hooks."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)

    def count(self, name: str, n: int) -> None:
        self.counters[name] += n

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack = tracer._stack
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
            if hook is not None and result is not NotImplemented:
                hook(tracer, name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced callable wherever a treeideals module binds it."""
        import treeideals.cli  # noqa: F401  (the package loads the rest)
        from treeideals import polycore

        modules = [m for n, m in sys.modules.items()
                   if n == "treeideals" or n.startswith("treeideals.")]
        swaps: dict[int, object] = {}
        for name, mod, attr, hook in FUNCTIONS:
            orig = getattr(sys.modules[f"treeideals.{mod}"], attr)
            swaps[id(orig)] = self.wrap(name, orig, hook)
        compare = self.wrap("polycore.order", polycore.compare_polynomials)
        swaps[id(polycore.compare_polynomials)] = compare
        swaps[id(polycore.polynomial_key)] = functools.cmp_to_key(compare)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in swaps:
                    setattr(mod, attr, swaps[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in swaps:
                            value[k] = swaps[id(v)]
        for name, mod, cls, attr, hook in METHODS:
            klass = getattr(sys.modules[f"treeideals.{mod}"], cls)
            setattr(klass, attr, self.wrap(name, vars(klass)[attr], hook))
