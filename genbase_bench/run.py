"""genbase_bench: six workloads, six gated end-to-end metrics, per-layer probes.

One workload, one interpreter (what the driver of ``BENCHMARK.json`` calls)::

    python3 genbase_bench/run.py --workload colstore_xl --seed 42 --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

All six workloads, each untraced and traced in its own fresh interpreter, one
after another, into one result file (what ``compare_runs.py`` reads)::

    python3 genbase_bench/run.py [--seed 42] [--repeats 3] [--out FILE]

See ``README.md`` beside this file for the workloads, metrics and seed policy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: One BLAS thread: the benchmark is a single-client closed loop sized for
#: the two cores of the development sandbox, and pinned so that BLAS thread
#: scheduling is not part of the run-to-run spread.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SMOKE_SIZE = "tiny"
PROBE_SIZE = "small"


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(values: dict, declared: list[dict]) -> dict:
    """Attach the declared units; the emitted names must be exactly the declared ones."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
            f"undeclared {sorted(set(values) - set(units))}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def run_one(args, contract: dict) -> int:
    """Run one workload in this interpreter."""
    os.environ.update(THREAD_PINS)  # before numpy loads its BLAS
    if not (ROOT / "src" / "repro").is_dir():
        print(f"genbase_bench measures the program under {ROOT / 'src'}; it is not there",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    size = SMOKE_SIZE if args.smoke else workload.size
    seconds = 0.0 if args.smoke else args.seconds
    started = time.perf_counter()
    if args.trace:
        trace_path = OUT_DIR / f"trace-{workload.name}.json"
        outcome = layers.measure_layers(workload, args.seed, seconds, size,
                                        SMOKE_SIZE if args.smoke else PROBE_SIZE, trace_path)
        metrics = with_units(outcome["metrics"], contract["per_layer"])
    else:
        outcome = workloads.measure(workload, args.seed, seconds, size)
        metrics = with_units(outcome["metrics"], contract["end_to_end"])
    wall_s = time.perf_counter() - started

    detail = outcome["detail"]
    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{workload.name} query_tail_ms = {detail['query_tail_ms']:.6g} ms  "
              f"(not gated: p{detail['tail_percentile']:.2f} of {detail['tail_samples']} "
              f"timed executions in {detail['sweeps']} sweeps)")
    attempted, failed = outcome["attempted"], len(outcome["failures"])
    print(f"{workload.name} fail_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    if args.trace:
        print(f"{workload.name} traced sweep {detail['traced_sweep_ms']:.6g} ms vs untraced "
              f"{detail['untraced_sweep_ms']:.6g} ms; {detail['spans']} spans in "
              f"{detail['trace_file']}")
    for failure in outcome["failures"]:
        print(f"FAILED {failure}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {**result, "failures": outcome["failures"], "detail": outcome["detail"],
             "size": size, "seed": args.seed, "seconds": seconds, "wall_s": wall_s}))
    print(json.dumps(result))
    return 0


def environment() -> dict:
    """What a reader needs to judge whether two result files are comparable."""
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_pins": THREAD_PINS,
    }


def run_all(args, contract: dict) -> int:
    """Every workload, untraced (``--repeats`` times) then traced, each in a fresh interpreter."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    names = [workload["name"] for workload in contract["workloads"]]
    report = {"environment": environment(), "seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "repeats": args.repeats, "workloads": {}}
    failed_runs = 0
    for name in names:
        started = time.perf_counter()
        runs = []
        for trace, repeat in [(0, r) for r in range(args.repeats)] + [(1, 0)]:
            part = OUT_DIR / f"part-{name}-trace{trace}-{repeat}.json"
            command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", str(part)]
            completed = subprocess.run(command + (["--smoke"] if args.smoke else []))
            if completed.returncode != 0:
                failed_runs += 1
                continue
            runs.append((trace, json.loads(part.read_text())))
            part.unlink()
        untraced = [run for trace, run in runs if trace == 0]
        traced = [run for trace, run in runs if trace == 1]
        if not untraced or not traced:
            continue
        end_to_end = {}
        for metric, first in untraced[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in untraced]
            end_to_end[metric] = {"value": statistics.median(values), "unit": first["unit"],
                                  "runs": values}
        attempted = sum(run["attempted"] for run in untraced + traced)
        failed = sum(run["failed"] for run in untraced + traced)
        report["workloads"][name] = {
            "size": untraced[0]["size"],
            "end_to_end": end_to_end,
            "per_layer": traced[0]["metrics"],
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "failures": [f for run in untraced + traced for f in run["failures"]],
            "wall_s": time.perf_counter() - started,
            "detail": {"untraced": untraced[-1]["detail"], "traced": traced[0]["detail"]},
        }
    out = Path(args.out) if args.out else OUT_DIR / f"result-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"wrote {out}")
    incomplete = failed_runs or len(report["workloads"]) != len(names)
    return 1 if incomplete or any(w["failed"] for w in report["workloads"].values()) else 0


def main(argv=None) -> int:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run this workload here; without it, run all in fresh interpreters")
    parser.add_argument("--seed", type=int, default=42,
                        help="42 while developing; a claim must also hold on 1337")
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="scales the fixed sweep count of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run that yields the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny dataset, one sweep: checks the harness, measures nothing")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload when running all; their spread is "
                             "recorded for compare_runs.py")
    parser.add_argument("--out", help="write the detailed result JSON here")
    args = parser.parse_args(argv)
    return run_one(args, contract) if args.workload else run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
