"""Extension and ``mpaths`` results of a tree as plain JSON data.

Imported by the tests, and run as a script to compute the same data in
a new interpreter: ``python tests/mpaths_results.py < documents.json``
reads a JSON object of tree documents by name and prints each tree's
results as a JSON object by the same names.
"""

import json
import sys

from treeideals.cli import parse_tree_document
from treeideals.ideals import (
    extension_candidates,
    maximal_extensions,
    mpaths_generators,
    same_stage_pairs,
    stage_pair_seeds,
)


def mpaths_results(t) -> dict:
    """Candidates and maximal extensions of every seed, and the
    ``mpaths`` generators with their provenance and endpoints."""
    seeds = [seed for v, w in same_stage_pairs(t) for seed in stage_pair_seeds(t, v, w)]
    genset = mpaths_generators(t)
    return json.loads(json.dumps({
        "candidates": [extension_candidates(t, seed) for seed in seeds],
        "maximal": [[f"{p} {p.origin}" for p in maximal_extensions(t, seed)] for seed in seeds],
        "mpaths": [
            [str(gen), list(genset.provenance[gen]), list(ends)]
            for gen, ends in zip(genset.generators, genset.endpoints)
        ],
    }))


if __name__ == "__main__":
    documents = json.load(sys.stdin)
    json.dump(
        {name: mpaths_results(parse_tree_document(text)) for name, text in documents.items()},
        sys.stdout,
    )
