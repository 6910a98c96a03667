"""Seeded closed-loop benchmark for dexchange.

Usage (from the repository root):

    python3 perfbench/run.py --workload coded-linear --seed 0 --seconds 25 --trace 0

One client, one thread, one process: the next op starts when the previous
one returns.  The untraced run (``--trace 0``) installs no hooks and reports
the end-to-end metrics; the traced run (``--trace 1``) reports the per-layer
split.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people, together with the raw wall-clock figures.
The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Keep numpy and its BLAS on one thread so a run's load stays on one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Set-up (package import plus input generation) is repeated this many
#: times and the median is reported as ``setup_s``.
SETUP_REPS = 5
#: An untraced run keeps going past ``--seconds`` until it has this many
#: ops, so the 75th percentile has at least 10 samples beyond it.
MIN_OPS = 40
TAIL_PERCENTILE = 75
#: Upper limit on the measuring loop whatever the op count.
HARD_CAP_S = 120.0
#: The traced run uses the first TRACE_OPS pool entries, in whole passes,
#: so its per-op counts repeat exactly for a seed.
TRACE_OPS = 8
#: Outputs of the first DIGEST_OPS ops are hashed into the printed digest.
DIGEST_OPS = 8


def load_package():
    """Import ``dexchange`` afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "dexchange" or n.startswith("dexchange.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    dx = importlib.import_module("dexchange")
    importlib.import_module("dexchange.cli")
    if Path(dx.__file__).resolve().parent != SRC / "dexchange":
        raise ImportError(f"dexchange was imported from {dx.__file__}, not from {SRC}")
    return dx


def set_up(workload, seed, workdir):
    """Run set-up SETUP_REPS times; return (package, pool, median seconds)."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        dx = load_package()
        pool = workload.setup(dx, seed, workdir)
        times.append(time.perf_counter() - t0)
    return dx, pool, statistics.median(times)


class Tally:
    """Op outcomes: wall times and reference-kernel multiples of checked
    ops, failures, and the records behind the output digest."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.times = []
        self.costs = []
        self.refs = []
        self.attempted = 0
        self.failed = 0
        self.records = []
        self._ref = None
        self._reported = False

    def run(self, workload, dx, entry, index, around=None):
        """Time one op (inside ``around`` if given), check its output, and
        return its cost in reference-kernel times (None if it failed)."""
        if self._ref is None:
            self._ref = self.kernel()
        self.attempted += 1
        ctx = around(index) if around is not None else contextlib.nullcontext()
        try:
            with ctx:
                t0 = time.perf_counter()
                out = workload.op(dx, entry)
                dt = time.perf_counter() - t0
            ok = bool(workload.check(dx, entry, out))
        except Exception:
            if not self._reported:
                traceback.print_exc(file=sys.stderr)
                self._reported = True
            ok = False
        after = self.kernel()
        ref = (self._ref + after) / 2
        self._ref = after
        self.refs.append(ref)
        if not ok:
            self.failed += 1
            print(f"op {index}: failed", file=sys.stderr)
            return None
        self.times.append(dt)
        self.costs.append(dt / ref)
        if len(self.records) < DIGEST_OPS and index == len(self.records):
            self.records.append(workload.record(entry, out))
        return dt / ref

    def digest(self):
        blob = json.dumps(self.records, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def measure(tally, workload, dx, pool, seconds):
    """Closed loop over the pool for ``seconds`` (and at least MIN_OPS ops)."""
    start = time.perf_counter()
    k = 0
    while True:
        tally.run(workload, dx, pool[k % len(pool)], k)
        k += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and k >= MIN_OPS) or elapsed >= HARD_CAP_S:
            break


def _tail(values):
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def end_to_end(tally, setup_s):
    """(gated metrics, raw wall-clock figures), each name -> (value, unit)."""
    costs, times = tally.costs, tally.times
    gated = {
        "ops_per_kref": (1e3 * len(costs) / sum(costs), "1/kref"),
        "op_p50_ref": (statistics.median(costs), "ref"),
        f"op_p{TAIL_PERCENTILE}_ref": (_tail(costs), "ref"),
        "ok_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        f"op_p{TAIL_PERCENTILE}_ms": (_tail(times) * 1e3, "ms"),
        "fail_rate": (tally.failed / tally.attempted, "ratio"),
        "ref_ms": (statistics.median(tally.refs) * 1e3, "ms"),
    }
    return gated, raw


def _layer_unit(name):
    """Unit of a traced-run metric, from the end of its name."""
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s/op"
    return "count/op"


def traced(tally, workload, dx, pool, seconds, spans_path, header):
    """One untraced pass over the first TRACE_OPS entries as the overhead
    baseline, then traced passes over the same entries while they fit."""
    from tracing import Tracer

    entries = pool[:TRACE_OPS]
    start = time.perf_counter()
    base = [tally.run(workload, dx, entry, j) for j, entry in enumerate(entries)]
    base_times = list(tally.times)
    tracer = Tracer()
    tracer.install()
    traced_costs = []
    try:
        while True:
            pass_start = time.perf_counter()
            for entry in entries:
                index = len(traced_costs)
                traced_costs.append(tally.run(workload, dx, entry, index, around=tracer.op_span))
            pass_s = time.perf_counter() - pass_start
            tracer.keep_spans = False  # passes repeat; the first one is logged
            if time.perf_counter() - start + pass_s > seconds:
                break
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path, header)
    layers = tracer.metrics(len(traced_costs))
    traced_times = tally.times[len(base_times):]
    layers["trace.op_s"] = statistics.fmean(traced_times) if traced_times else None
    layers["trace.ops_per_s"] = 1 / layers["trace.op_s"] if traced_times else None
    layers["trace.untraced_ops_per_s"] = 1 / statistics.fmean(base_times) if base_times else None
    ok_base = [c for c in base if c is not None]
    ok_traced = [c for c in traced_costs if c is not None]
    layers["trace.overhead"] = (
        statistics.fmean(ok_traced) / statistics.fmean(ok_base) if ok_base and ok_traced else None
    )
    return {name: (value, _layer_unit(name)) for name, value in layers.items()}


def _show(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {'absent' if value is None else f'{value:.6g}'} {unit}")


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dexchange" / "__init__.py").is_file():
        print(f"no dexchange sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from reference import kernel_seconds

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tally = Tally(kernel_seconds)
    raw = {}
    try:
        dx, pool, setup_s = set_up(workload, args.seed, workdir)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            header = {"workload": args.workload, "seed": args.seed}
            metrics = traced(tally, workload, dx, pool, args.seconds, spans, header)
        else:
            measure(tally, workload, dx, pool, args.seconds)
            metrics, raw = end_to_end(tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} ops attempted, {tally.failed} failed, "
          f"{len(tally.times)} latency samples")
    print(f"digest {tally.digest()} over the outputs of ops 0-{len(tally.records) - 1}")
    _show(metrics)
    if raw:
        print("wall clock (not gated: the host's speed varies by up to 2x)")
        _show(raw)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import dexchange: {exc}", file=sys.stderr)
        sys.exit(2)
