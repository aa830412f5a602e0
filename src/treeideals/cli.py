"""Command-line surface and the tree document file format.

A tree document is a JSON object:

    {
      "root": "v0",
      "vertices": [
        {"id": "v0", "edges": [{"to": "v1", "label": "theta0"},
                               {"to": "v2", "label": "theta1"}]},
        {"id": "v1", "edges": [...]}
      ],
      "atom_names": ["p1", "p2", ...]
    }

Edge targets never declared as vertices are leaves; "atom_names" is
optional and overrides the default p1..pn in depth-first atom order.
Stage colours are never written down: sharing label names is what puts
two vertices in one stage.

Exit status: 0 success, 1 domain failure (invalid tree, non-member),
2 usage or parse error.  Every subcommand takes --json for structured
output; all output is byte-deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Sequence

from .errors import ParseError, TreeIdealsError, ValidationError
from .ideals import (
    GeneratorSet,
    dimension_forms,
    model_invariant_generators,
    mpaths_generators,
    paths_ideal_generators,
)
from .model import membership, sample_theta
from .parametrization import is_toric, psi_evaluate
from .polycore import Monomial, Polynomial, SymbolTable
from .stagedtree import (
    EdgeDef,
    StagedTree,
    TreeDefinition,
    VertexDef,
    build_tree,
    validate_tree,
)

# -- document parsing --------------------------------------------------


def parse_tree_definition(text: str) -> TreeDefinition:
    """Parse document text into a raw definition, with located errors."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("document is nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("top level: expected an object")
    for key in data:
        if key not in ("root", "vertices", "atom_names"):
            raise ParseError(f"top level: unknown field {key!r}")
    root = data.get("root")
    if not isinstance(root, str) or not root:
        raise ParseError("field 'root': expected a nonempty string")
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list):
        raise ParseError("field 'vertices': expected a list")
    vertices: list[VertexDef] = []
    for vi, item in enumerate(raw_vertices):
        where = f"vertices[{vi}]"
        if not isinstance(item, dict):
            raise ParseError(f"{where}: expected an object")
        for key in item:
            if key not in ("id", "edges"):
                raise ParseError(f"{where}: unknown field {key!r}")
        vid = item.get("id")
        if not isinstance(vid, str) or not vid:
            raise ParseError(f"{where}.id: expected a nonempty string")
        raw_edges = item.get("edges", [])
        if not isinstance(raw_edges, list):
            raise ParseError(f"{where}.edges: expected a list")
        edges: list[EdgeDef] = []
        for ei, raw in enumerate(raw_edges):
            ewhere = f"{where}.edges[{ei}]"
            if not isinstance(raw, dict):
                raise ParseError(f"{ewhere}: expected an object")
            for key in raw:
                if key not in ("to", "label"):
                    raise ParseError(f"{ewhere}: unknown field {key!r}")
            to = raw.get("to")
            label = raw.get("label")
            if not isinstance(to, str) or not to:
                raise ParseError(f"{ewhere}.to: expected a nonempty string")
            if not isinstance(label, str) or not label:
                raise ParseError(f"{ewhere}.label: expected a nonempty string")
            edges.append(EdgeDef(to, label))
        vertices.append(VertexDef(vid, tuple(edges)))
    atom_names = data.get("atom_names")
    if atom_names is not None:
        if not isinstance(atom_names, list) or not all(
            isinstance(x, str) for x in atom_names
        ):
            raise ParseError("field 'atom_names': expected a list of strings")
        atom_names = tuple(atom_names)
    return TreeDefinition(root=root, vertices=tuple(vertices), atom_names=atom_names)


def parse_tree_document(text: str) -> StagedTree:
    """Parse and compile; ParseError for bad text, ValidationError after."""
    return build_tree(parse_tree_definition(text))


def tree_document_data(t: StagedTree) -> dict:
    """Canonical document content: the root and the internal vertices,
    in depth-first order."""
    return {
        "root": t.root,
        "vertices": [
            {
                "id": v,
                "edges": [
                    {"to": e.child, "label": e.label.name}
                    for e in t.children_of(v)
                ],
            }
            for v in t.vertices
            if v == t.root or not t.is_leaf(v)
        ],
        "atom_names": [a.symbol.name for a in t.atoms],
    }


def render_tree_document(t: StagedTree) -> str:
    return json.dumps(tree_document_data(t), indent=2) + "\n"


# -- polynomial text parsing -------------------------------------------

_POLY_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^−]))")


def parse_polynomial(text: str, table: SymbolTable) -> Polynomial:
    """Parse the renderer's output format back into a polynomial.

    Grammar: signed terms joined by + or -, each term a product of
    factors, each factor a rational number or a symbol with an optional
    ^exponent.  The unicode minus sign is accepted alongside '-'.
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _POLY_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"polynomial: bad character at offset {pos}")
            break
        tokens.append(m.group(1) or m.group(2) or m.group(3).replace("−", "-"))
        pos = m.end()
    state = {"pos": 0}

    def peek() -> str | None:
        return tokens[state["pos"]] if state["pos"] < len(tokens) else None

    def take() -> str:
        tok = peek()
        if tok is None:
            raise ParseError("polynomial: unexpected end of input")
        state["pos"] += 1
        return tok

    def parse_factor() -> Polynomial:
        tok = take()
        if tok.isdigit():
            value = Fraction(int(tok))
            if peek() == "/":
                take()
                den = take()
                if not den.isdigit() or int(den) == 0:
                    raise ParseError("polynomial: expected a nonzero denominator")
                value /= int(den)
            return Polynomial.constant(value)
        if re.match(r"[A-Za-z_]", tok):
            symbol = table.lookup(tok)
            if peek() == "^":
                take()
                exp = take()
                if not exp.isdigit():
                    raise ParseError("polynomial: expected an integer exponent")
                return Polynomial.term(1, Monomial.of(symbol, int(exp)))
            return Polynomial.variable(symbol)
        raise ParseError(f"polynomial: unexpected token {tok!r}")

    def parse_term() -> Polynomial:
        result = parse_factor()
        while peek() == "*":
            take()
            result = result * parse_factor()
        return result

    total = Polynomial.zero()
    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
    while True:
        total = total + sign * parse_term()
        tok = peek()
        if tok is None:
            return total
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            raise ParseError(f"polynomial: unexpected token {tok!r}")
        take()


_RATIONAL_RE = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)\Z")


def parse_point(text: str) -> list[Fraction]:
    """Whitespace-separated rationals like '1/12 1/6 1/4 ...'.

    Each entry is an integer, p/q or a plain decimal.  Exponents are
    refused: ``Fraction('1e3000000')`` expands a 3,000,001-digit integer
    before any check on the point could run.
    """
    out = []
    for tok in text.split():
        try:
            if not _RATIONAL_RE.match(tok):
                raise ValueError
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ParseError(
                f"point: bad rational {tok!r} (expected an integer, p/q or a plain decimal)"
            ) from None
    return out


# -- commands ----------------------------------------------------------

_IDEALS = {
    "model": model_invariant_generators,
    "paths": paths_ideal_generators,
    "mpaths": mpaths_generators,
}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _load_tree(path: str) -> StagedTree:
    return parse_tree_document(_read_text(path))


def _emit(args, lines: list[str], payload) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    elif lines:
        print("\n".join(lines))


def _cmd_validate(args) -> int:
    definition = parse_tree_definition(_read_text(args.tree))
    report = validate_tree(definition)
    if report.ok:
        t = build_tree(definition)
        lines = [
            "valid",
            f"vertices: {len(t.vertices)}",
            f"atoms: {t.n_atoms}",
            f"stage classes: {len(t.stage_classes())}",
        ]
        payload = {
            "valid": True,
            "vertices": len(t.vertices),
            "atoms": t.n_atoms,
            "stage_classes": len(t.stage_classes()),
        }
        _emit(args, lines, payload)
        return 0
    lines = ["invalid"] + [f"{v.code}: {v.message}" for v in report.violations]
    payload = {
        "valid": False,
        "violations": [
            {"code": v.code, "message": v.message, "vertex": v.vertex}
            for v in report.violations
        ],
    }
    _emit(args, lines, payload)
    return 1


def _cmd_atoms(args) -> int:
    t = _load_tree(args.tree)
    words = [str(a.monomial) for a in t.atoms]
    lines = [
        f"{a.index} {a.symbol.name} = {w}  [{' '.join(a.vertices)}]"
        for a, w in zip(t.atoms, words)
    ]
    payload = [
        {
            "index": a.index,
            "name": a.symbol.name,
            "labels": w,
            "path": list(a.vertices),
        }
        for a, w in zip(t.atoms, words)
    ]
    _emit(args, lines, payload)
    return 0


def _genset(t: StagedTree, which: str) -> GeneratorSet:
    return _IDEALS[which](t)


def _cmd_generators(args) -> int:
    t = _load_tree(args.tree)
    genset = _genset(t, args.ideal)
    lines = []
    for gen in genset.generators:
        lines.append(str(gen))
        if args.provenance:
            for origin in genset.provenance[gen]:
                lines.append(f"  from: {origin}")
    payload = {
        "ideal": genset.kind,
        "generators": [str(g) for g in genset.generators],
        "provenance": [list(genset.provenance[g]) for g in genset.generators],
    }
    _emit(args, lines, payload)
    return 0


def _cmd_toric(args) -> int:
    t = _load_tree(args.tree)
    verdict = is_toric(t)
    lines = [
        "toric" if verdict.toric else "not toric",
        f"all stages are positions: {'yes' if verdict.all_same_position else 'no'}",
        f"checked pairs: {verdict.checked_pairs}",
    ]
    for failure in verdict.failures:
        for w in failure.witnesses:
            lines.append(f"failure: stage pair ({failure.v}, {failure.w}), {w}")
    payload = {
        "toric": verdict.toric,
        "all_same_position": verdict.all_same_position,
        "checked_pairs": verdict.checked_pairs,
        "failures": [
            {
                "v": f.v,
                "w": f.w,
                "witnesses": [
                    {
                        "i": w.i,
                        "j": w.j,
                        "label_i": w.label_i,
                        "label_j": w.label_j,
                        "difference": str(w.difference),
                    }
                    for w in f.witnesses
                ],
            }
            for f in verdict.failures
        ],
    }
    _emit(args, lines, payload)
    return 0


def _cmd_dim(args) -> int:
    t = _load_tree(args.tree)
    by_classes, by_edges = dimension_forms(t)
    lines = [
        f"dimension: {by_classes}",
        f"sum over stage classes of (arity - 1): {by_classes}",
        f"edges - internal vertices - identification overlap: {by_edges}",
    ]
    payload = {
        "dimension": by_classes,
        "class_form": by_classes,
        "edge_form": by_edges,
    }
    _emit(args, lines, payload)
    return 0


def _cmd_positions(args) -> int:
    t = _load_tree(args.tree)
    classes = t.position_classes()
    lines = [f"position: {' '.join(members)}" for members in classes]
    payload = {"positions": [list(members) for members in classes]}
    _emit(args, lines, payload)
    return 0


def _cmd_membership(args) -> int:
    t = _load_tree(args.tree)
    point = parse_point(_read_text(args.point))
    verdict = membership(t, point)
    lines = [
        f"in simplex: {'yes' if verdict.in_simplex else 'no'}",
        f"invariants vanish: {'yes' if verdict.invariants_vanish else 'no'}",
        f"member: {'yes' if verdict.member else 'no'}",
    ]
    for gen, value in verdict.failures:
        lines.append(f"failure: {gen} = {value}")
    payload = {
        "in_simplex": verdict.in_simplex,
        "invariants_vanish": verdict.invariants_vanish,
        "member": verdict.member,
        "failures": [
            {"generator": str(g), "value": str(v)} for g, v in verdict.failures
        ],
    }
    _emit(args, lines, payload)
    return 0 if verdict.member else 1


def _cmd_sample(args) -> int:
    t = _load_tree(args.tree)
    seeds = list(range(args.seed, args.seed + args.count))
    points = [psi_evaluate(t, sample_theta(t, s)) for s in seeds]
    lines = [" ".join(str(x) for x in point) for point in points]
    payload = {
        "seeds": seeds,
        "points": [[str(x) for x in point] for point in points],
    }
    _emit(args, lines, payload)
    return 0


def _cmd_export(args) -> int:
    t = _load_tree(args.tree)
    if args.format == "tree":
        text = render_tree_document(t)
        if args.json:
            print(json.dumps({"document": tree_document_data(t)}, indent=2))
        else:
            sys.stdout.write(text)
        return 0
    genset = _genset(t, args.ideal)
    names = [a.symbol.name for a in t.atoms]
    stage_notes = [
        f"stage class {cls.index}: {' '.join(cls.vertices)} "
        f"(labels {' '.join(s.name for s in cls.labels)})"
        for cls in t.stage_classes()
    ]
    lines: list[str] = []
    if args.format == "text":
        if args.annotate:
            lines.extend(f"# {note}" for note in stage_notes)
        lines.append(f"ring: {' '.join(names)}")
        lines.append(f"ideal {genset.kind} ({len(genset.generators)} generators):")
        lines.extend(str(g) for g in genset.generators)
    else:  # m2
        if args.annotate:
            lines.extend(f"-- {note}" for note in stage_notes)
        lines.append(f"R = QQ[{','.join(names)}];")
        if genset.generators:
            lines.append(f"I{genset.kind} = ideal(")
            for k, g in enumerate(genset.generators):
                comma = "," if k + 1 < len(genset.generators) else ""
                lines.append(f"  {g}{comma}")
            lines.append(");")
        else:
            lines.append(f"I{genset.kind} = ideal 0_R;")
    payload = {
        "format": args.format,
        "ring": names,
        "ideal": genset.kind,
        "generators": [str(g) for g in genset.generators],
    }
    _emit(args, lines, payload)
    return 0


def nonnegative_int(text: str) -> int:
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeideals",
        description=(
            "Invariant ideals, toricity and membership for staged event trees, "
            "in exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("tree", help="tree document file")
        p.add_argument("--json", action="store_true", help="structured output")
        return p

    add("validate", "check a tree document and report violations")
    add("atoms", "list the root-to-leaf atoms in depth-first order")

    p = add("generators", "print a generator set, one polynomial per line")
    p.add_argument("--ideal", choices=sorted(_IDEALS), default="model")
    p.add_argument("--provenance", action="store_true",
                   help="also print what produced each generator")

    add("toric", "decide toricity and print witnesses on failure")
    add("dim", "print the model dimension in both formula forms")
    add("positions", "print stage classes refined by subtree polynomials")

    p = add("membership", "test a probability vector for model membership")
    p.add_argument("--point", required=True, help="file of whitespace-separated rationals")

    p = add("sample", "print member points from seeded parameter samples")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=nonnegative_int, default=1)

    p = add("export", "emit ring plus ideal for an external algebra system")
    p.add_argument("--format", choices=["text", "m2", "tree"], default="text")
    p.add_argument("--ideal", choices=sorted(_IDEALS), default="model")
    p.add_argument("--annotate", action="store_true",
                   help="annotate with computed stage classes")

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "atoms": _cmd_atoms,
    "generators": _cmd_generators,
    "toric": _cmd_toric,
    "dim": _cmd_dim,
    "positions": _cmd_positions,
    "membership": _cmd_membership,
    "sample": _cmd_sample,
    "export": _cmd_export,
}


# Parsing leaves no state in the parser, so one serves every call.
_parser = functools.cache(build_parser)


def run_command(argv: Sequence[str]) -> int:
    """Parse arguments, run one subcommand, return the exit status."""
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TreeIdealsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
