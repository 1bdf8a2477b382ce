"""motifswarm benchmark: three batch workloads, end-to-end metrics, and a
traced run for per-layer metrics. Run from the repository root:

    python3 bench/run.py --workload compare-corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it holds the environment
record, the artifact digest and the informational figures. The exit code is
1 when any operation fails (the result line then says "correct": false) or
the worker cannot run, and 2 when the program's source is missing; in the
last two cases no result line is printed.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One single-threaded client: BLAS/OpenMP pools stay at one thread, which is
# at or below nproc on any machine, so results do not depend on core count.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

import numpy as np  # noqa: E402  (after the thread pins)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.SIZES)
RUN_BUDGET_S = 170.0  # one workload's run must end within 180 s
UNITS = {"setup_s": "s", "run_ref": "ref", "seqs_per_ref": "1/ref", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.strip()
        if not top or Path(top).resolve() != ROOT:
            sha = None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "seed": seed,
    }


def time_left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def run_worker(spec: dict, work: Path, seconds: int, trace: int, deadline: float) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path = work / "result.json"
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path),
                             str(seconds), str(trace), str(result_path)], cwd=work)
    try:
        proc.wait(timeout=time_left(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: int, trace: int, size: str) -> dict:
    """Generate, run, check and summarise one workload."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = workloads.prepare(name, work, seed, size)
        result = run_worker(spec, work, seconds, trace, deadline)
        ops = result["ops"]
        first = work / "op0"
        inputs = workloads.rebase(spec, work)
        problems = workloads.check(inputs, first) if ops[0]["error"] is None else []
        recovery = workloads.recovery_rate(inputs, first) if not problems else 0.0
        reference = ops[0]["sha256"]
        failures = []
        for i, op in enumerate(ops):
            if op["error"]:
                failures.append(f"op {i}: {op['error'].strip().splitlines()[-1]}")
            elif i == 0 and problems:
                failures.append(f"op 0: {'; '.join(problems[:5])}")
            elif op["sha256"] != reference:
                failures.append(f"op {i}: artifact bytes differ from op 0")
        # Operation 0 is the warm-up: checked, not timed.
        untraced = [op["s"] for op in ops[1:] if not op["traced"]]
        run_s = statistics.median(untraced)
        info = {
            "workload": name, "size": size, "trace": trace,
            "ops": len(ops), "ops_timed": len(untraced), "op_s": untraced,
            "failed_frac": len(failures) / len(ops), "failures": failures,
            "recovery_rate": recovery, "artifact_sha256": reference,
        }
        if trace:
            traced = [op for op in ops if op["traced"]]
            per_op = [tracer.layer_metrics(op["trace"], op["bytes"], recovery)
                      for op in traced]
            metrics = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
            # Traced and untraced operations alternate, so the machine's
            # changes of speed fall on both sides alike.
            traced_s = statistics.fmean(op["s"] for op in traced)
            metrics["trace.overhead_frac"] = traced_s / statistics.fmean(untraced) - 1.0
            last = traced[-1]
            info["layer_self_share"] = tracer.layer_self_share(last["trace"], last["s"])
            info["inclusive_share"] = {fn: round(t / last["s"], 4) for fn, t
                                       in sorted(last["trace"]["total_s"].items())}
            info["missing"] = last["trace"]["missing"]
            spans_path = WORK / "trace" / f"{name}-seed{seed}.spans.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            spans_path.write_text(json.dumps(result["spans"]), encoding="utf-8")
            info["spans"] = str(spans_path.relative_to(ROOT))
            units = per_layer_units()
            metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        else:
            info["setup_samples"] = result["setup_s"]
            info["reference_samples"] = result["reference_s"]
            info["run_s"] = run_s
            info["seqs_per_s"] = spec["n_items"] / run_s
            # A shared host slows this process by up to half for minutes at
            # a time. The reference work runs between the operations, so the
            # ratio of operation time to reference-unit time cancels most of
            # the slowdown.
            ref_units = sum(n for n, _ in result["reference_s"])
            unit_s = sum(s for _, s in result["reference_s"]) / ref_units
            info["reference_unit_s"] = unit_s
            run_ref = statistics.fmean(untraced) / unit_s
            values = {
                "setup_s": statistics.median(result["setup_s"]),
                "run_ref": run_ref,
                "seqs_per_ref": spec["n_items"] / run_ref,
                "peak_rss_mb": result["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        return {"correct": not failures, "attempted": len(ops), "failed": len(failures),
                "metrics": metrics, "info": info}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_result(res: dict) -> None:
    name = res["info"]["workload"]
    for key, m in res["metrics"].items():
        print(f"{name:18s} {key:40s} {m['value']:>16.6f} {m['unit']}")
    info = res["info"]
    if "run_s" in info:
        print(f"{name:18s} {'run_s (median wall time)':40s} {info['run_s']:>16.6f} s")
        print(f"{name:18s} {'seqs_per_s (wall time)':40s} {info['seqs_per_s']:>16.6f} 1/s")
    print(f"{name:18s} {'failed_frac':40s} {info['failed_frac']:>16.6f} ratio")
    for failure in res["info"]["failures"]:
        print(f"{name:18s} FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    parser.add_argument("--record", metavar="FILE",
                        help="also append the full results to this JSON list")
    args = parser.parse_args(argv)
    if not (SRC / "motifswarm" / "__init__.py").is_file():
        print(f"bench: no motifswarm source under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace, args.size)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print_result(res)
        results.append(res)
    if args.record:
        path = Path(args.record)
        past = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        past.append({"environment": env, "results": results})
        path.write_text(json.dumps(past, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['info']['workload']}/{k}": v
                        for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps({"environment": env, "info": [r["info"] for r in results]},
                     sort_keys=True))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
