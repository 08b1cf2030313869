"""Benchmark runner: one workload, one fresh process, one JSON result line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload serve_poisson --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``serve_poisson`` -- open-loop Poisson arrivals at one
  ``InferenceServer`` (blocked engine, ``stream_compiled`` tier);
* ``serve_offline`` -- the same server kept 32 requests deep;
* ``train_direct`` -- single-process blocked-engine training steps;
* ``train_ring`` -- two worker processes, ring all-reduce.

Every workload reports every metric of ``BENCHMARK.json``; an
operation is a request (serve) or a training step (train).  ``--trace
0`` measures the end-to-end metrics with nothing installed in the
program; ``setup_s`` is the median of this process's set-up and
:data:`SETUP_PROBES` more set-ups in fresh processes.  ``--trace 1``
runs untraced load and load with the per-layer probes of ``tracing.py``
in turns, and reports the per-layer metrics plus the tracing overhead
between the two.
The last line of standard output is the result; the line before it
holds the host facts and the workload's own ungated figures
(``detail``).  Progress goes to standard error.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: extra set-ups, each in a fresh process, for the setup_s median
SETUP_PROBES = 2
#: a run that has not finished by then dumps its stacks and exits
WATCHDOG_S = 170


def _parse(argv):
    from harness import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up time, exit")
    return p.parse_args(argv)


def _workload(name: str):
    """``(run, setup_only)`` callables of a workload."""
    if name.startswith("serve_"):
        import serve_bench

        return (
            lambda *a: serve_bench.run(name, *a),
            serve_bench.setup_only,
        )
    import train_bench

    if name == "train_direct":
        return train_bench.run_direct, train_bench.setup_direct
    return train_bench.run_ring, train_bench.setup_ring


def _probe_setups(args) -> list[float]:
    """Set up again in fresh processes; their set-up times."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}; run from the root of a "
              f"source checkout", file=sys.stderr)
        return 2
    # the program's temporary files (ring sockets) stay in the checkout
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(SRC))
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)

    from harness import environment, note, result_line

    run, setup_only = _workload(args.workload)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_only(T_START, args.seed)}))
        return 0
    metrics, detail, attempted, failed, correct = run(
        T_START, args.seed, args.seconds, bool(args.trace)
    )
    if not args.trace:
        metrics["setup_s"] = statistics.median(
            [metrics["setup_s"], *_probe_setups(args)]
        )
    print(json.dumps({"env": environment(), "detail": detail}))
    note(f"{args.workload}: attempted {attempted}, failed {failed}, "
         f"correct {correct}")
    print(result_line(args.workload, bool(args.trace), metrics,
                      attempted, failed, correct))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
