"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload cli-docs --seeds 1-10 [--out FILE]

Each run is a fresh, untraced ``bench/run.py`` process, one after
another.  For every end-to-end metric this prints the median of the
runs and the distance between the first and third quartile
(``statistics.quantiles(n=4)``) as a share of the median, next to the
metric's bound from BENCHMARK.json.  ``--out``
also writes every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "attempted": result["attempted"],
                     "failed": result["failed"], "metrics": values})
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    print(f"{'metric':48s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name:48s} {median:12.6g} {(q3 - q1) / median:10.4f} {bounds[name]:>6}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
