"""Answer checks for benchmark ops, from the paper's identities.

Each check takes plain data (generator sets as canonical forms, verdicts
as booleans and counts) and returns a list of problems; an empty list
means the answer passed.  Nothing here calls the package under test:
polynomials are read through their term lists or their printed form and
evaluated with this module's own ``Fraction`` arithmetic, so a defect in
``treeideals`` cannot hide itself from its own check.

A canonical form is a polynomial written over atom *names*, as a sorted
tuple of ``(monomial, coefficient)`` terms with the sign fixed so the
first term is positive.  It does not depend on symbol creation order,
so the same generator printed from two renderings of one tree (children
permuted, labels renamed, atom names kept) has one canonical form.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from families import Case, Known, stages

Monomial = tuple[tuple[str, int], ...]
Canonical = tuple[tuple[Monomial, Fraction], ...]

_FACTOR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?\Z")


def canonical(terms: Iterable[tuple[Monomial, Fraction]]) -> Canonical:
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in terms:
        acc[mono] = acc.get(mono, Fraction(0)) + coeff
    items = sorted((m, c) for m, c in acc.items() if c != 0)
    if items and items[0][1] < 0:
        items = [(m, -c) for m, c in items]
    return tuple(items)


def canonical_of_polynomial(poly) -> Canonical:
    """Canonical form of a ``Polynomial``, read through its term list."""
    return canonical(
        (tuple(sorted((s.name, e) for s, e in mono.powers)), Fraction(c))
        for mono, c in poly.terms()
    )


def parse_monomial(text: str) -> Counter:
    """'a*b^2' -> Counter({'a': 1, 'b': 2}); '1' -> empty."""
    out: Counter = Counter()
    if text == "1":
        return out
    for factor in text.split("*"):
        m = _FACTOR.match(factor)
        if m is None:
            raise ValueError(f"bad factor {factor!r} in {text!r}")
        out[m.group(1)] += int(m.group(2) or 1)
    return out


def canonical_of_text(text: str) -> Canonical:
    """Canonical form of a polynomial as the package prints it."""
    terms = []
    for raw in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if raw.startswith("-"):
            sign, raw = -1, raw[1:]
        coeff = Fraction(1)
        factors = raw.split("*")
        if factors[0][0].isdigit():
            coeff = Fraction(factors.pop(0))
        mono = parse_monomial("*".join(factors)) if factors else Counter()
        terms.append((tuple(sorted(mono.items())), sign * coeff))
    return canonical(terms)


def evaluate(form: Canonical, point: Mapping[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, coeff in form:
        value = coeff
        for name, e in mono:
            value *= point[name] ** e
        total += value
    return total


def toric_image_zero(form: Canonical, atom_labels: Mapping[str, Counter]) -> bool:
    """Whether p_i -> (label product of path i) sends the form to zero."""
    acc: dict[frozenset, Fraction] = {}
    for mono, coeff in form:
        labels: Counter = Counter()
        for name, e in mono:
            for lbl, k in atom_labels[name].items():
                labels[lbl] += k * e
        key = frozenset(labels.items())
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return all(c == 0 for c in acc.values())


# -- tree facts computed from the construction -----------------------------


def atom_labels(case: Case) -> dict[str, Counter]:
    """Atom name -> multiset of base labels on its root-to-leaf path."""
    out: dict[str, Counter] = {}
    stack: list[tuple[str, Counter]] = [(case.root, Counter())]
    names = dict(zip(case.leaves, case.atom_names))
    while stack:
        v, labels = stack.pop()
        kids = case.children.get(v, ())
        if not kids:
            out[names[v]] = labels
        for child, lbl in kids:
            stack.append((child, labels + Counter({lbl: 1})))
    return out


def brackets(case: Case, point: Sequence[Fraction]) -> dict[str, Fraction]:
    """p_[v] for every vertex, from a point in base atom order."""
    leaf_value = dict(zip(case.leaves, point))
    out: dict[str, Fraction] = {}

    def visit(v: str) -> Fraction:
        kids = case.children.get(v, ())
        value = leaf_value[v] if not kids else sum(visit(c) for c, _ in kids)
        out[v] = value
        return value

    visit(case.root)
    return out


def conditionals_agree(case: Case, point: Sequence[Fraction]) -> bool:
    """Membership on the open simplex: recovered p_[child]/p_[v] agree per label."""
    b = brackets(case, point)
    seen: dict[str, Fraction] = {}
    for v, kids in case.children.items():
        for child, lbl in kids:
            value = b[child] / b[v]
            if seen.setdefault(lbl, value) != value:
                return False
    return True


def member_point(case: Case, rng) -> list[Fraction]:
    """A seeded point of the model, in base atom order.

    Per stage, one integer in [1, 1000] per label, normalised by the stage
    sum; each atom is the product of the parameters along its path.
    """
    theta: dict[str, Fraction] = {}
    for labels in sorted(sorted(ls) for ls in stages(case.children)):
        draws = [rng.randint(1, 1000) for _ in labels]
        for lbl, d in zip(labels, draws):
            theta[lbl] = Fraction(d, sum(draws))
    paths = atom_labels(case)
    point = []
    for name in case.atom_names:
        value = Fraction(1)
        for lbl, k in paths[name].items():
            value *= theta[lbl] ** k
        point.append(value)
    return point

# -- checks ------------------------------------------------------------------


def genset_problems(
    kind: str,
    forms: frozenset,
    raw: int | None,
    known: Known,
    member_point: Mapping[str, Fraction],
    labels_of_atom: Mapping[str, Counter],
    pinned: frozenset | None = None,
    reference: frozenset | None = None,
) -> list[str]:
    """A generator set of kind model / paths / mpaths.

    * pinned: the fixture's set recorded at the baseline commit;
    * reference: the other set that must coincide (model = paths when
      every shared stage is binary);
    * raw counts (provenance entries; None when the answer has none)
      follow from the stage structure for model and paths;
    * every generator vanishes on the model (at a member point);
    * on toric trees the mpaths generators are binomials with zero
      monomial-map image.
    """
    out = []
    if pinned is not None and forms != pinned:
        out.append(f"{kind}: {len(forms)} generators differ from the {len(pinned)} pinned")
    if reference is not None and forms != reference:
        out.append(f"{kind}: differs from its reference set ({len(forms)} vs {len(reference)})")
    if raw is not None:
        expect_raw = {"model": known.model_raw, "paths": known.paths_raw}.get(kind)
        if expect_raw is not None and raw != expect_raw:
            out.append(f"{kind}: {raw} raw generators, construction gives {expect_raw}")
        if len(forms) > raw:
            out.append(f"{kind}: more distinct generators ({len(forms)}) than raw ({raw})")
    if any(not f for f in forms):
        out.append(f"{kind}: zero generator kept")
    bad = sum(1 for f in forms if evaluate(f, member_point) != 0)
    if bad:
        out.append(f"{kind}: {bad} generators do not vanish at a member point")
    if kind == "mpaths" and known.toric:
        if any(len(f) > 2 for f in forms):
            out.append("mpaths: non-binomial generator on a toric tree")
        if not all(toric_image_zero(f, labels_of_atom) for f in forms):
            out.append("mpaths: nonzero monomial-map image on a toric tree")
    return out


def toric_problems(
    toric: bool, checked_pairs: int, witness_nonzero: Sequence[Sequence[bool]], known: Known
) -> list[str]:
    """witness_nonzero: per failing stage pair, per witness, difference != 0."""
    out = []
    if known.toric is not None and toric != known.toric:
        out.append(f"toric verdict {toric}, family fixes {known.toric}")
    if checked_pairs != known.stage_pairs:
        out.append(f"checked {checked_pairs} pairs, tree has {known.stage_pairs}")
    if toric and witness_nonzero:
        out.append("toric verdict carries failures")
    if not toric and not witness_nonzero:
        out.append("non-toric verdict without a failing pair")
    if any(not ws or not all(ws) for ws in witness_nonzero):
        out.append("failing pair without a nonzero witness")
    return out


def dimension_problems(values: Iterable[int], known: Known) -> list[str]:
    values = list(values)
    if any(v != known.dimension for v in values):
        return [f"dimension forms {values}, construction gives {known.dimension}"]
    return []


def containment_problems(ok: bool, in_toric_kernel: bool, all_binomial: bool,
                         known: Known) -> list[str]:
    out = []
    if not ok:
        out.append("containment: a generator is outside ker(phi)")
    if known.toric and not (in_toric_kernel and all_binomial):
        out.append("containment: mpaths not binomial in the toric kernel on a toric tree")
    return out


def membership_problems(member: bool, in_simplex: bool, consistent: bool,
                        n_failures: int, expected: bool) -> list[str]:
    out = []
    if not in_simplex:
        out.append("point reported outside the open simplex")
    if member != expected:
        out.append(f"membership {member}, point was made to be {expected}")
    if consistent != member:
        out.append(f"conditional report consistent={consistent} but member={member}")
    if member != (n_failures == 0):
        out.append(f"member={member} with {n_failures} failing generators")
    return out


def recovery_problems(recovered: Mapping[str, Fraction],
                      theta: Mapping[str, Fraction]) -> list[str]:
    wrong = sorted(k for k in theta if recovered.get(k) != theta[k])
    if wrong or set(recovered) != set(theta):
        return [f"recovered parameters differ from the sampled ones at {wrong[:3]}"]
    return []


def sample_problems(points: Sequence[Sequence[Fraction]], n_atoms: int,
                    count: int) -> list[str]:
    out = []
    if len(points) != count:
        out.append(f"{len(points)} sample points, asked for {count}")
    for p in points:
        if len(p) != n_atoms:
            out.append(f"sample point has {len(p)} entries, tree has {n_atoms} atoms")
        elif sum(p) != 1 or not all(0 < x < 1 for x in p):
            out.append("sample point is not in the open simplex")
    return out


def roundtrip_problems(doc: Mapping, exported: Mapping) -> list[str]:
    """export --format tree must give back the same tree and atom names."""

    def shape(d):
        return (
            d["root"],
            {v["id"]: [(e["to"], e["label"]) for e in v["edges"]] for v in d["vertices"]},
            list(d.get("atom_names") or ()),
        )

    return [] if shape(doc) == shape(exported) else ["exported document differs from input"]


def positions_problems(groups: Sequence[Sequence[str]], doc: Mapping) -> list[str]:
    """Positions partition the interior vertices and refine the stages."""
    label_set = {v["id"]: frozenset(e["label"] for e in v["edges"])
                 for v in doc["vertices"] if v["edges"]}
    flat = [v for g in groups for v in g]
    out = []
    if sorted(flat) != sorted(label_set):
        out.append("positions do not partition the interior vertices")
    elif any(len({label_set[v] for v in g}) != 1 for g in groups):
        out.append("a position spans two stages")
    return out

