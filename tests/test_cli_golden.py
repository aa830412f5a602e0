"""CLI output pinned by digest: every fixture, every subcommand.

Each invocation runs in process and is recorded as the sha256 of its
exit code, stdout and stderr in ``cli_golden.json``.  A refactor that
must not change output keeps every digest; a deliberate output change
regenerates the file and says why.  To regenerate, from the repo root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import FIXTURE_DIR, FIXTURE_NAMES, load_fixture  # noqa: E402
from treeideals import psi_evaluate, sample_theta  # noqa: E402
from treeideals.cli import run_command  # noqa: E402

GOLDEN = Path(__file__).parent / "cli_golden.json"

IDEALS = ("model", "paths", "mpaths")


def invocations() -> dict[str, list[list[str]]]:
    """Argument lists grouped by subcommand, the tree path left out (it
    follows the subcommand); ``{member}`` and ``{outside}`` stand for the
    two point files."""
    return {
        "validate": [["validate"]],
        "atoms": [["atoms"]],
        "toric": [["toric"]],
        "dim": [["dim"]],
        "positions": [["positions"]],
        "sample": [["sample"], ["sample", "--seed", "7", "--count", "2"]],
        "membership": [
            ["membership", "--point", "{member}"],
            ["membership", "--point", "{outside}"],
        ],
        "generators": [
            ["generators", "--ideal", ideal, *extra]
            for ideal in IDEALS for extra in ([], ["--provenance"])
        ],
        "export": [["export", "--format", "tree"]] + [
            ["export", "--format", fmt, "--ideal", ideal, *extra]
            for fmt in ("text", "m2") for ideal in IDEALS
            for extra in ([], ["--annotate"])
        ],
    }


def point_texts(name: str) -> dict[str, str]:
    """A sampled member point and the same point with mass moved from
    the second atom to the first."""
    t = load_fixture(name)
    member = psi_evaluate(t, sample_theta(t, 1))
    outside = list(member)
    if len(outside) > 1:
        shift = outside[1] / 2
        outside[0] += shift
        outside[1] -= shift
    else:
        outside[0] = Fraction(1, 2)
    return {
        "member": " ".join(map(str, member)) + "\n",
        "outside": " ".join(map(str, outside)) + "\n",
    }


def run_digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def digests(name: str, command: str) -> dict[str, str]:
    """Digest of each invocation of one subcommand on one fixture, in
    text and with ``--json``, keyed by its argument list."""
    tree = str(FIXTURE_DIR / f"{name}.json")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        points = {}
        for kind, text in point_texts(name).items():
            points[kind] = str(Path(tmp) / f"{kind}.txt")
            Path(points[kind]).write_text(text, encoding="utf-8")
        for args in invocations()[command]:
            argv = [args[0], tree, *(a.format(**points) for a in args[1:])]
            for extra in ([], ["--json"]):
                out[" ".join([name, *args, *extra])] = run_digest(argv + extra)
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(invocations()))
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_output_matches_golden(golden, name, command):
    got = digests(name, command)
    expected = {k: v for k, v in golden.items() if k.split(" ")[:2] == [name, command]}
    assert set(got) == set(expected)
    changed = sorted(k for k in got if got[k] != expected[k])
    assert not changed, f"output changed: {changed}"


def test_golden_covers_every_invocation(golden):
    per_fixture = sum(2 * len(v) for v in invocations().values())
    assert len(golden) == per_fixture * len(FIXTURE_NAMES)


if __name__ == "__main__":
    table = {}
    for fixture in FIXTURE_NAMES:
        for cmd in sorted(invocations()):
            table.update(digests(fixture, cmd))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}")
