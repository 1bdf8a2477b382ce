"""The process that runs one workload: a closed loop in which one client
issues operations back to back for the measuring time.

    python3 bench/worker.py SPEC.json SECONDS TRACE RESULT.json

It runs in the directory that holds the inputs. Every operation writes to
./out, so artifacts that echo their paths agree byte for byte. Every
operation's artifacts are hashed, so the caller can require identical bytes;
operation 0 keeps its artifacts for the caller's checks and is the warm-up.
With TRACE 0 every operation is followed by reference units (fixed work
outside motifswarm) for REFERENCE_SHARE of the operation's time, and by one
set-up sample (the import time of motifswarm.cli in a fresh interpreter), so
both spread over the whole run like the operations. With TRACE 1 the loop alternates
untraced and traced operations, which gives the per-layer figures and the
tracing overhead from the same run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import motifswarm  # noqa: E402  (the path above selects this checkout's source)
import motifswarm.cli  # noqa: E402,F401

if Path(motifswarm.__file__).resolve().parent != (SRC / "motifswarm").resolve():
    sys.exit(f"bench: imported motifswarm from {motifswarm.__file__}, not from {SRC}")

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 3
# Reference time after each operation, as a share of the operation's time.
# Both sides of the ratio then average over a like span of the run.
REFERENCE_SHARE = 0.6
REFERENCE_MATRIX = np.random.default_rng(0).random((400, 20))
PROBE = ("import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
         "import motifswarm.cli; print(time.perf_counter() - t)")


def reference_unit() -> float:
    """Seconds of one unit of fixed work that never touches motifswarm, in
    the program's own mix: a pure-Python loop, small numpy reductions, and the
    residues of random submatrices of a 400 x 20 array. It measures how fast
    the machine is at the moment, so that the operation times can be divided
    by it."""
    m = REFERENCE_MATRIX
    rng = np.random.default_rng(1)
    t = perf_counter()
    acc, last = 0, {}
    for i in range(200_000):
        acc += i * i % 7
        last[i & 255] = acc
    total = 0.0
    for i in range(5_000):
        total += float(np.abs(m[i % 400] - m[(i * 7) % 400]).sum())
    for _ in range(500):
        rows, cols = rng.random(400) < 0.3, rng.random(20) < 0.4
        rows[0] = cols[0] = True
        sub = m[np.ix_(rows, cols)]
        res = sub - sub.mean(axis=1, keepdims=True) - sub.mean(axis=0) + sub.mean()
        total += float((res * res).mean())
    return perf_counter() - t


def reference_sample(op_s: float) -> list:
    """[units, seconds] of reference units run for REFERENCE_SHARE of op_s."""
    units, spent = 0, 0.0
    while units == 0 or spent < REFERENCE_SHARE * op_s:
        spent += reference_unit()
        units += 1
    return [units, spent]


def setup_sample() -> float:
    """Seconds from `import motifswarm.cli` until it returns, in a fresh
    interpreter: what a CLI user pays on every call."""
    done = subprocess.run([sys.executable, "-c", PROBE.format(src=str(SRC))],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def digest(out: Path) -> tuple[str, int]:
    """sha256 over every artifact's relative path and bytes, and their size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
    return h.hexdigest(), size


def run(spec: dict, seconds: float, trace: bool) -> dict:
    ops, spans, setup, refs = [], [], [], []
    out = Path("out")
    start = perf_counter()
    i = 0
    # Start another operation (with TRACE, another untraced/traced pair) only
    # while it is expected to end within the measuring time; run at least
    # MIN_OPS.
    while (i < MIN_OPS or (trace and i % 2) or perf_counter() - start
           + sum(op["step_s"] for op in ops[-(1 + trace):]) <= seconds):
        step = perf_counter()
        traced = trace and i % 2 == 1
        record = {"traced": traced, "error": None}
        t = tracer.Tracer()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                if traced:
                    with t.installed():
                        code = workloads.run_op(spec, out)
                else:
                    code = workloads.run_op(spec, out)
                record["s"] = perf_counter() - t0
            if code:
                record["error"] = f"exit code {code}"
        except Exception:  # a crashing operation is a counted failure
            record["s"] = perf_counter() - t0
            record["error"] = traceback.format_exc(limit=-3)
        record["sha256"], record["bytes"] = digest(out) if out.exists() else (None, 0)
        if traced:
            record["trace"] = t.summary()
            spans.append(t.spans)
        if i == 0 and out.exists():
            out.rename("op0")
        shutil.rmtree(out, ignore_errors=True)
        if not trace:
            refs.append(reference_sample(record["s"]))
            setup.append(setup_sample())
        record["step_s"] = perf_counter() - step
        ops.append(record)
        i += 1
    return {
        "ops": ops,
        "spans": spans,
        "setup_s": setup,
        "reference_s": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv) -> int:
    spec_path, seconds, trace, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = run(spec, float(seconds), trace == "1")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
