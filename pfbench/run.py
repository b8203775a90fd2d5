"""Benchmark command for pfnet.

    python3 pfbench/run.py --workload train_desk64 --seed 1 --seconds 30 --trace 0

Runs one workload (``train_desk64``, ``train_paper256`` or ``score_desk``;
``all`` runs each in a child process of its own) from the root of a
checkout, using the sources under ``src/``.  It prints every metric by
name with its unit, then the environment and run details (the wall-clock
latencies among them) as one JSON line, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, whose
latencies are in units of the reference job in ``reference.py``; with
``--trace 1`` the run is split into an untraced half and a traced half and
the metrics are the per-layer ones.  See NOTES.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 5   # at least this many set-ups...
SETUP_SECONDS = 3.0  # ...and until this long has passed, so short set-ups reach steady state
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
REF_SHARE = 0.05  # reference-job time after each item, as a share of the item's
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "items_per_ref": "1/ref",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "peak_rss_mib": "MiB",
    "success_frac": "frac",
}


def nproc():
    return len(os.sched_getaffinity(0))


def pin_blas_threads():
    """Run BLAS on one thread, whatever the core count; must run before
    numpy loads.  One thread stays within the shared host's cores, and the
    reference job then runs on the same single core as the program."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_sources():
    """Put the checkout's ``src`` first on the import path; False if absent."""
    src = ROOT / "src"
    if not (src / "pfnet" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def tail(latencies):
    """(value, percentile, samples) of the highest percentile that leaves at
    least TAIL_BEYOND samples above it.  A run with fewer than twice that
    many samples has no such percentile above the median, so the middle
    sample (the upper one of an even count, never below the median) stands
    in for it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n


def timed_setups(spec, seed):
    """Set the workload up repeatedly; (median seconds, last run, number of
    set-ups, set-ups whose inputs or warm-up output differ from the first)."""
    times, fingerprints = [], []
    run = None
    start = perf_counter()
    while len(times) < SETUP_REPEATS or perf_counter() - start < SETUP_SECONDS:
        run = None  # free the previous setup before building the next
        t0 = perf_counter()
        run = spec.setup(seed)
        times.append(perf_counter() - t0)
        fingerprints.append(run.fingerprint)
    mismatched = sum(fp != fingerprints[0] for fp in fingerprints)
    return statistics.median(times), run, len(times), mismatched


def closed_loop(run, seconds, tracer=None):
    """Run items back to back for ``seconds``, each followed by the
    reference job; (item latencies in ms, reference-job times in ms,
    failures)."""
    import reference

    latencies, refs, failed = [], [], 0
    start = perf_counter()
    while not latencies or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.begin_item()
        t0 = perf_counter()
        ok = run.step()
        latencies.append((perf_counter() - t0) * 1e3)
        if tracer is not None:
            tracer.end_item(run.last_masks)
        refs.append(reference.measure(REF_SHARE * latencies[-1] / 1e3) * 1e3)
        failed += not ok
    return latencies, refs, failed


def in_ref(latencies, refs):
    """Each item's latency over the reference-job time measured after it."""
    return [lat / ref for lat, ref in zip(latencies, refs)]


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns the result fields plus details."""
    import tracer as tracing
    import workloads

    spec = workloads.WORKLOADS[name]
    loop_seconds = seconds / 2 if trace else seconds
    setup_s, run, setups, setup_failed = timed_setups(spec, seed)
    latencies, refs, failed = closed_loop(run, loop_seconds)
    attempted = setups + len(latencies)
    failed += setup_failed
    ratios = in_ref(latencies, refs)
    tail_ref, tail_pct, samples = tail(ratios)
    items = run.items_per_step * len(latencies)
    e2e = {
        "setup_s": setup_s,
        "items_per_ref": items / sum(ratios),
        "latency_p50_ref": statistics.median(ratios),
        "latency_tail_ref": tail_ref,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_frac": 1.0 - failed / attempted,
    }
    details = {
        "workload": name,
        "seed": seed,
        "items_per_step": run.items_per_step,
        "setups": setups,
        "samples": samples,
        "tail_percentile": tail_pct,
        "items_per_s": items / sum(latencies) * 1e3,
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_tail": tail(latencies)[0],
        "reference_ms_p50": statistics.median(refs),
        "output_digest": run.output_digest(),
        "env": environment(),
    }
    layer = None
    if trace:
        fingerprint, run = run.fingerprint, None
        with tracing.Tracer() as tr:
            run = spec.setup(seed)
            tr.reset()
            traced, traced_refs, traced_failed = closed_loop(run, loop_seconds, tr)
        overhead = statistics.median(in_ref(traced, traced_refs)) / e2e["latency_p50_ref"] - 1.0
        layer = tr.layer_metrics(overhead)
        attempted += 1 + len(traced)
        failed += traced_failed + (run.fingerprint != fingerprint)
        details["traced_samples"] = len(traced)
        details["records_per_kind"] = dict(tr.records)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": layer,
        "details": details,
    }


def _print_metrics(prefix, values, units):
    for key, value in values.items():
        print(f"{prefix}{key} = {value:.6g} {units[key]}")


def _run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    pin_blas_threads()
    if not use_checkout_sources():
        sys.stderr.write(f"pfbench: no pfnet sources under {ROOT / 'src'}\n")
        return 2
    import tracer as tracing
    import workloads

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)} or all")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        units = tracing.layer_metric_units()
        values = result["per_layer"]
    else:
        units = E2E_UNITS
        values = result["end_to_end"]
    _print_metrics(f"{args.workload} ", values, units)
    print(json.dumps({"details": result["details"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
