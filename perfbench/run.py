"""Benchmark of the moyal package: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-algebra --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs jobs one after another in this process (a closed
loop on one thread), whole schedule cycles at a time, until the jobs have
taken at least ``--seconds`` of wall time.
Every job is checked against an oracle outside its timed span.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Reported times are normalised to a reference machine speed.  A fixed
probe (:func:`speed_probe`, standard library only) runs before each
set-up process and after every ``PROBE_EVERY_S`` of timed job work,
outside the timed spans, and every reported time is multiplied by
``PROBE_REFERENCE_S`` over the run's median probe time.  On a shared host
whose speed drifts from minute to minute this halves the run-to-run spread;
a change to the program moves the jobs and not the probe, so it still
shows.  The summary line gives the raw figures and the scale.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
prefix of the same job stream twice, untraced and then with spans around
every layer's public functions, checks that both passes give bit-identical
outputs, and reports the per-layer metrics.  Spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9  # fresh processes per run; setup_s is their median
PROBE_REFERENCE_S = 0.05  # speed_probe seconds on the reference machine
PROBE_EVERY_S = 0.5  # timed job seconds between two probes
IMPORT_REPEATS = 3
# jobs in a traced run: a prefix of the stream that holds every job class
# (for hbar2-routes, the five T = 0.1 jobs, one per Hamiltonian)
TRACE_JOBS = {"exact-algebra": 40, "hbar2-routes": 5, "closed-form-sweep": 20}


def _import_package():
    if not (SRC / "moyal" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source {SRC / 'moyal'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import moyal

    if Path(moyal.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported moyal from {moyal.__file__}, not from {SRC}")


def speed_probe() -> float:
    """Seconds a fixed piece of rational arithmetic with small-dict writes
    takes now.  It tracks the host's speed for all three workloads: over
    separate processes it halved the spread of their job throughput."""
    start = time.perf_counter()
    acc, x, table = Fraction(0), Fraction(3, 7), {}
    for i in range(1, 2500):
        y = Fraction(i, i + 3) * x + Fraction(1, i)
        acc += y * y
        table[i % 97] = (acc.numerator % 1000, y)
        x = Fraction(x.numerator % 10007 + 1, x.denominator % 10009 + 1)
    return time.perf_counter() - start


def probe_setup(workload: str, repeats: int, probes: list | None = None) -> list[tuple[float, float]]:
    """(import seconds, import + build seconds) from fresh processes, after
    one unrecorded warm-up that leaves the bytecode cache filled.  With
    ``probes``, a speed probe runs before each process."""
    out = []
    for i in range(repeats + 1):
        if probes is not None:
            probes.append(speed_probe())
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            imported, total = proc.stdout.split()
            out.append((float(imported), float(total)))
    return out


def _run_job(job, workloads):
    """(seconds, output, verdict); an exception is a failed, wrong job."""
    start = time.perf_counter()
    try:
        out = workloads.execute(job)
    except Exception:
        elapsed = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return elapsed, None, workloads.Verdict(solved=False, wrong=True)
    elapsed = time.perf_counter() - start
    return elapsed, out, workloads.verdict(job, out)


def percentile(values, share: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``share``
    of the values at or below it.  k copies of one cycle give the same
    answer as one copy."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    # imported here: workloads imports moyal, which _import_package puts on the path
    import fixed
    import workloads

    probes: list[float] = []
    setup = statistics.median(t for _i, t in probe_setup(workload, SETUP_REPEATS, probes))
    latencies, solved, wrong, busy, since_probe = [], 0, 0, 0.0, 0.0
    for cycle in workloads.cycles(workload, seed, fixed.build(workload)):
        for job in cycle:
            elapsed, _out, verdict = _run_job(job, workloads)
            busy += elapsed
            latencies.append(elapsed)
            solved += verdict.solved
            wrong += verdict.wrong
            since_probe += elapsed
            if since_probe >= PROBE_EVERY_S:
                probes.append(speed_probe())
                since_probe = 0.0
        if busy >= seconds:
            break
    n = len(latencies)
    scale = PROBE_REFERENCE_S / statistics.median(probes)
    p50, p90 = percentile(latencies, 0.5), percentile(latencies, 0.9)
    print(
        f"{workload} seed {seed}: {n} jobs in {busy:.3f} s, {solved} solved, "
        f"{n - solved} failed (failed_ratio {(n - solved) / n:.4f}), "
        f"{wrong} contradicted by an independent oracle; p50 and p90 over {n} samples; "
        f"raw solved_per_s {solved / busy:.4g}, p50 {p50 * 1e3:.4g} ms, p90 {p90 * 1e3:.4g} ms, "
        f"setup {setup:.4g} s; time scale {scale:.4f} from {len(probes)} speed probes"
    )
    return {
        "correct": wrong == 0,
        "attempted": n,
        "failed": n - solved,
        "metrics": {
            "setup_s": _metric(setup * scale, "s"),
            "solved_per_s": _metric(solved / (busy * scale), "1/s"),
            "job_p50_ms": _metric(p50 * scale * 1e3, "ms"),
            "job_p90_ms": _metric(p90 * scale * 1e3, "ms"),
            "solved_ratio": _metric(solved / n, "ratio"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


def _pass(workload: str, seed: int, n: int, tracer=None):
    """Build the fixed inputs and run the first n jobs once.

    Returns (digests, verdicts, busy seconds)."""
    import fixed
    import workloads

    digests, verdicts, busy = [], [], 0.0
    for job_id, job in enumerate(workloads.first_jobs(workload, seed, fixed.build(workload), n), 1):
        if tracer is not None:
            tracer.job = job_id
        elapsed, out, verdict = _run_job(job, workloads)
        busy += elapsed
        digests.append(workloads.digest(out))
        verdicts.append(verdict)
    return digests, verdicts, busy


def traced_passes(workload: str, seed: int, n: int):
    """The first n jobs untraced, then again traced; set-up is built inside
    the traced pass too (job id 0).  Returns (tracer, plain, traced), each
    pass as (digests, verdicts, busy seconds)."""
    from tracing import Tracer

    plain = _pass(workload, seed, n)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _pass(workload, seed, n, tracer)
    finally:
        tracer.uninstall()
    return tracer, plain, traced


def traced_run(workload: str, seed: int) -> dict:
    tracer, (plain_digests, plain_verdicts, plain_busy), (digests, verdicts, busy) = (
        traced_passes(workload, seed, TRACE_JOBS[workload])
    )
    left_bound = tracer.bound_wrappers()
    identical = digests == plain_digests
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.csv.gz")

    solved = sum(v.solved for v in verdicts)
    gaps = [v.gap for v in verdicts if v.gap is not None]
    metrics = tracer.metrics()
    metrics["semiclassical.route_gap_max"] = (max(gaps, default=0.0), "ratio")
    imports = probe_setup(workload, IMPORT_REPEATS)
    metrics["cli.import_s"] = (statistics.median(i for i, _t in imports), "s")
    metrics["trace.solved_per_s"] = (solved / busy, "1/s")
    metrics["trace.untraced_solved_per_s"] = (sum(v.solved for v in plain_verdicts) / plain_busy, "1/s")
    metrics["trace.slowdown"] = (busy / plain_busy, "ratio")
    n = len(verdicts)
    print(
        f"{workload} seed {seed} traced: {n} jobs, {solved} solved; outputs "
        f"{'bit-identical to' if identical else 'DIFFER from'} the untraced pass; "
        f"wrappers left bound: {left_bound or 'none'}; {metrics['trace.spans'][0]} spans; "
        f"tracing slowdown {busy / plain_busy:.2f}x"
    )
    return {
        "correct": identical and not left_bound and not any(v.wrong for v in verdicts),
        "attempted": n,
        "failed": n - solved,
        "metrics": {k: _metric(v, unit) for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    import fixed

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=fixed.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    _import_package()
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
