"""ntklab benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload init-variance --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy.  A run measures set-up in fresh
interpreters, then repeats whole rounds of the workload's operations, each
round on inputs made from (seed, round), until --seconds have passed; the
time metrics are medians over rounds.  Every round's outputs are checked
(the costly independent replays only on the first round).  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs each round twice,
untraced and then traced on the same inputs, and reports the per-layer
metrics of the traced pass plus trace.overhead_s, the difference between
the two passes.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS, run_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
END_TO_END = {"setup_s": "s", "sweep_s": "s", "theta_star_s": "s", "peak_rss_mb": "MB"}
PROGRAM_MODULES = ("activations", "quadrature", "meanfield", "ntk_theory", "finite_net",
                   "empirical_ntk", "data_io", "sweeps", "cli")


class ProgramMissing(Exception):
    """The checkout holds no ntklab sources to benchmark."""


def round_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def load_program():
    """Import ntklab from ./src of this checkout; returns a module namespace."""
    if not (SRC / "ntklab" / "__init__.py").is_file():
        raise ProgramMissing(f"no ntklab package under {SRC}")
    sys.path.insert(0, str(SRC))
    ntklab = importlib.import_module("ntklab")
    if Path(ntklab.__file__).resolve().parent != (SRC / "ntklab").resolve():
        raise ProgramMissing(f"imported ntklab from {ntklab.__file__}, not from {SRC}")
    return argparse.Namespace(**{m: importlib.import_module(f"ntklab.{m}")
                                 for m in PROGRAM_MODULES})


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import ntklab, make the
    first round's inputs and validate its configs, then exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", "1", "--setup-only"],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return statistics.median(times)


def run_pass(workload, plan, out: Path, tracer=None):
    """One pass over the workload's operations: (results, seconds) by operation."""
    results, seconds = {}, {}
    for index, op in enumerate(workload.ops(plan)):
        if tracer is not None:
            tracer.op_id = index
        t0 = time.perf_counter()
        results[op.name] = run_op(op, out / op.name)
        seconds[op.name] = time.perf_counter() - t0
    return results, seconds


def median_seconds(rounds, ops) -> dict[str, float]:
    """Per end-to-end metric, the median over rounds of the round's total time
    in the operations that count toward it."""
    totals: list[dict[str, float]] = []
    for _, _, seconds, _ in rounds:
        total: dict[str, float] = {}
        for op in ops:
            total[op.metric] = total.get(op.metric, 0.0) + seconds[op.name]
        totals.append(total)
    return {m: statistics.median(t[m] for t in totals) for m in totals[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        if not args.setup_only and not args.trace:
            setup_s = measure_setup(args)
        program = load_program()
    except (ProgramMissing, RuntimeError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](program)
    if args.setup_only:
        workload.prepare(round_seed(args.seed, 0))
        return 0

    tracer = Tracer() if args.trace else None
    run_dir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    rounds = []   # (plan, results, {operation: seconds}, per-layer metrics or None)
    attempted = failed = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        plan = workload.prepare(round_seed(args.seed, len(rounds)))
        out = run_dir / f"r{len(rounds)}"
        results, seconds = run_pass(workload, plan, out / "plain")
        per_layer = None
        if tracer is not None:
            first = tracer.mark()
            tracer.install()
            try:
                traced, traced_s = run_pass(workload, plan, out / "traced", tracer)
            finally:
                tracer.uninstall()
            per_layer = tracer.per_layer(first)
            per_layer["trace.overhead_s"] = sum(traced_s.values()) - sum(seconds.values())
            attempted += len(traced)
            failed += sum(r.failed for r in traced.values())
        rounds.append((plan, results, seconds, per_layer))
        print(f"perfbench: round {len(rounds) - 1} seconds "
              + " ".join(f"{name}={t:.4f}" for name, t in seconds.items()), file=sys.stderr)
        attempted += len(results)
        failed += sum(r.failed for r in results.values())
        if len(rounds) == 1:
            # Later rounds only add heap growth; the first round's peak does
            # not depend on how many rounds fit in --seconds.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    for index, (plan, results, _, _) in enumerate(rounds):
        for name, res in results.items():
            if res.failed:
                print(f"perfbench: round {index} {name} failed: {res.detail}", file=sys.stderr)
        errors += [f"round {index}: {e}" for e in workload.check(plan, results, full=index == 0)]
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.npz")
    shutil.rmtree(run_dir, ignore_errors=True)

    if tracer is not None:
        metrics = {name: {"value": statistics.median(r[3][name] for r in rounds), "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  **median_seconds(rounds, workload.ops(rounds[0][0]))}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
