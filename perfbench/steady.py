"""Steadiness check: run one workload with seeds 1..N and compare the
spread of every end-to-end metric with its bound in ``BENCHMARK.json``.

Usage, from the root of a source checkout::

    python3 perfbench/steady.py --workload serve_poisson --runs 10

The spread is the inter-quartile distance over the median of the runs'
values (``statistics.quantiles(values, n=4)``).  Prints each metric's
median and spread; exits 1 if a run fails or is incorrect, or a spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    ok = True
    for seed in range(1, args.runs + 1):
        cmd = [*spec["command"], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"] and res["failed"] == 0
        print(f"seed {seed}: " + json.dumps(res), flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        s = spread(vals)
        ok = ok and s <= bounds[name]
        print(f"{args.workload} {name}: median "
              f"{statistics.median(vals):.6g} spread {s:.3f} "
              f"bound {bounds[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
