"""Write bench/fixtures.json: the example trees and their pinned answers.

The benchmark checks the three generator sets of every example tree
against the sets recorded here, compared as canonical forms (see
``oracles.canonical_of_text``).  Each tree's toric verdict is not
recorded from the package: it is ``PAPER_TORIC`` below, from the
paper's figures, and the package's verdict is only checked against it.
The file also carries the tree documents themselves, so later edits to
the repository's test fixtures cannot shift the benchmark's inputs.

Re-recording changes what the benchmark accepts as correct: do it only
together with a stated, deliberate change of output.

    python3 bench/pin_fixtures.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Toricity of the example trees as the paper (arXiv:1802.04511) states it.
PAPER_TORIC = {
    # Fig. 1: the three six-atom trees, all toric.
    "fig1_t1": True, "fig1_t2": True, "fig1_t3": True,
    # Fig. 2: T1 toric; T2's single invariant has a nonzero monomial-map
    # image; T3 fails the balance condition at its only stage pair.
    "fig2_t1": True, "fig2_t2": False, "fig2_t3": False,
    # Fig. 4: T and T_bn fail the balance condition, T_dec and T_pos are toric.
    "fig4_t": False, "fig4_tbn": False, "fig4_tdec": True, "fig4_tpos": True,
    # Balanced although no two children of its shared stages share a position.
    "star_example": True,
}


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from treeideals import (
        is_toric,
        model_invariant_generators,
        mpaths_generators,
        paths_ideal_generators,
    )
    from treeideals.cli import parse_tree_document

    ideals = {
        "model": model_invariant_generators,
        "paths": paths_ideal_generators,
        "mpaths": mpaths_generators,
    }

    out = {}
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.json")):
        text = path.read_text(encoding="utf-8")
        t = parse_tree_document(text)
        if is_toric(t).toric != PAPER_TORIC[path.stem]:
            sys.exit(f"{path.stem}: the package's toric verdict differs from the paper's")
        out[path.stem] = {
            "document": json.loads(text),
            "toric": PAPER_TORIC[path.stem],
            **{kind: [str(g) for g in fn(t).generators] for kind, fn in sorted(ideals.items())},
        }
    target = Path(__file__).with_name("fixtures.json")
    target.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(out)} fixtures to {target}")


if __name__ == "__main__":
    main()
