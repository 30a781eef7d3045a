#!/usr/bin/env python3
"""clonebench benchmark: one seeded workload per run, outputs checked, metrics on the last line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload identify --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``identify``, ``analysis``, ``clone-attack``.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: import time (median of three fresh interpreters importing
  numpy, clonebench and the workloads) plus the median set-up time (devices,
  structures, helpers, stores); set-up runs for at least a second both before
  the measured loop and after it, and at least three times in all;
- ``peak_rss_mb``: peak resident memory of the process;
- ``op_p50_ms``: median time of one operation, which is one identify round,
  one analysis pass or one attack campaign;
- ``op_tail_ms``: the 99th percentile operation when at least ten lie beyond
  it (identify runs at least 1000 rounds); a run with fewer operations
  (analysis and clone-attack make five or so passes or campaigns) has no such
  percentile and reports its median;
- ``ops_per_s``: operations per second of wall time over the whole measured
  loop, which for identify includes the store checkpoints and enrollment
  refills that run between rounds.

Metric names, units and directions are those of ``BENCHMARK.json``.

``--trace 1`` alternates untraced and traced units (set-up plus one unit of
work each) while the next pair is expected to end within ``--seconds``, and
reports the per-layer metrics of ``tracer.py`` per traced unit, with
``trace.overhead_ratio`` = median traced unit time / median untraced unit
time - 1.  Every unit's output digest must equal the first one.

Each run uses one process and one client thread, with BLAS pinned to one
thread.  The last line of stdout is the result object; a readable report goes
to stderr, and the full record (environment stamp, report, digest, and the
spans of the first traced unit) to ``.bench-out/`` in the checkout.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 3  # in all, at least one on each side of the measured loop
SETUP_SECONDS = 1.0  # per side of the measured loop
IMPORT_RUNS = 3
TAIL_PERCENTILE = 99


def _import_program():
    """Import clonebench from this checkout's src/ and nowhere else; None if absent."""
    src = ROOT / "src"
    if not (src / "clonebench" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import clonebench

    if Path(clonebench.__file__).resolve().parent != (src / "clonebench").resolve():
        return None
    return clonebench


def _stamp(np, kernels) -> dict:
    """Versions, threads, CPU and kernel backend, so a backend switch shows up here."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the config layout differs across numpy versions
        blas = f"unknown ({type(exc).__name__})"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        backend = kernels.active_backend()
    except (RuntimeError, ValueError) as exc:
        backend = f"error: {exc}"
    try:
        import numba  # noqa: F401

        numba_importable = True
    except ImportError:
        numba_importable = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "numba_importable": numba_importable,
        "kernel_backend": backend,
        "CLONEBENCH_BACKEND": os.environ.get("CLONEBENCH_BACKEND"),
    }


def _import_seconds() -> float:
    """Median time for a fresh interpreter to import numpy, clonebench and the workloads."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
        "import workloads; print(time.perf_counter() - t)"
    )
    paths = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    runs = []
    for _ in range(IMPORT_RUNS):
        out = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True, check=True)
        runs.append(float(out.stdout))
    return statistics.median(runs)


def _setups(workload, runs):
    """Repeated set-ups, at least `runs` and SETUP_SECONDS long; returns times and the last state."""
    times, state = [], None
    while len(times) < runs or sum(times) < SETUP_SECONDS:
        state = None  # let the previous set-up go before building the next
        t0 = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - t0)
    return times, state


def measure(workload, tally, seconds, end_to_end):
    """End-to-end metrics with tracing off."""
    # set-ups before and after the loop sample the machine at different times
    setups, state = _setups(workload, 1)
    result = workload.run(state, tally, seconds)
    state = None
    setups += _setups(workload, max(SETUP_RUNS - len(setups), 1))[0]
    import_s = _import_seconds()
    times = result.op_times
    rank = -(-len(times) * TAIL_PERCENTILE // 100)
    if len(times) - rank >= 10:
        tail = sorted(times)[rank - 1]
        tail_rule = f"p{TAIL_PERCENTILE} of {len(times)}, {len(times) - rank} beyond"
    else:  # too few operations for any tail percentile with ten samples beyond it
        tail = statistics.median(times)
        tail_rule = f"median of {len(times)}"
    values = {
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail,
        "ops_per_s": len(times) / result.loop_s,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in end_to_end}
    report = dict(result.report, import_s=import_s, setup_runs_s=setups, ops=len(times), tail=tail_rule)
    return metrics, result.digest, report, None


def trace(workload, tally, seconds, per_layer):
    """Per-layer metrics: alternate untraced and traced units while the next pair fits in `seconds`."""
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, digests, first_spans = [], [], [], None
    pair_s = []  # one untraced and one traced unit, with their set-ups
    deadline = time.perf_counter() + seconds
    while not pair_s or time.perf_counter() + statistics.median(pair_s) <= deadline:
        pair_start = t0 = time.perf_counter()
        result = workload.run(workload.setup(), tally)
        untraced.append(time.perf_counter() - t0)
        digests.append(result.digest)
        tracer.install()
        try:
            t0 = time.perf_counter()
            result = workload.run(workload.setup(), tally)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        digests.append(result.digest)
        tracer.gauge("protocol.crps_remaining", result.crps_remaining)
        spans = tracer.end_unit()
        first_spans = first_spans or spans
        pair_s.append(time.perf_counter() - pair_start)
    tally.check(len(set(digests)) == 1, f"traced and untraced digests differ: {sorted(set(digests))}")
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    report = {"untraced_unit_s": untraced, "traced_unit_s": traced, "units": len(traced)}
    return tracer.metrics(overhead, per_layer), digests[0], report, first_spans


def _spans_json(spans):
    if not spans:
        return None
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    base = spans[0][1]
    return {"names": names, "spans": [[index[n], s - base, e - base, p] for n, s, e, p in spans]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("identify", "analysis", "clone-attack"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    # before numpy loads; the import-timing interpreters inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if _import_program() is None:
        print(f"clonebench sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy as np
    from clonebench import kernels

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = ROOT / ".bench-out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tally = workloads.Tally()
        if args.trace:
            metrics, digest, report, spans = trace(workload, tally, args.seconds, spec["per_layer"])
        else:
            metrics, digest, report, spans = measure(workload, tally, args.seconds, spec["end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        digest=digest,
        failed_ratio=tally.failed / max(tally.attempted, 1),
        failures=tally.notes,
    )
    record = {"stamp": _stamp(np, kernels), "report": report, "metrics": metrics, "spans": _spans_json(spans)}
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")
    print(json.dumps({"stamp": record["stamp"], "report": report}, default=float), file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
