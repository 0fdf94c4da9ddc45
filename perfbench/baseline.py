"""Run the benchmark over several seeds and record medians, quartiles and spreads.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Reads the command, run length, workloads and bounds from BENCHMARK.json at
the root of the checkout, runs every workload once per seed, one run at a
time, then one traced run per workload on the first seed, and writes one
JSON file that also names the interpreter and host it ran on.

A metric's spread is the distance between its first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of its median.  Every
end-to-end metric except ``setup_s`` should have a spread within its bound.
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

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run(command, workload, seed, seconds, trace) -> tuple[dict, float]:
    started = time.perf_counter()
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1]), time.perf_counter() - started


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent / "baseline.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {
        "python": platform.python_version(),
        "host": f"{platform.system()} {platform.machine()}, {_cpu_model()}",
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs, metrics = [], {}
        for seed in args.seeds:
            result, wall = _run(spec["command"], workload, seed, spec["run_seconds"], 0)
            runs.append({
                "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "wall_s": round(wall, 1),
            })
            for name, m in result["metrics"].items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr)
        summary = {}
        for name, m in metrics.items():
            summary[name] = {"unit": m["unit"], "bound": bounds.get(name), **_summary(m["values"])}
        traced, wall = _run(spec["command"], workload, args.seeds[0], spec["run_seconds"], 1)
        report["workloads"][workload] = {
            "runs": runs,
            "jobs_per_run": statistics.median(r["attempted"] for r in runs),
            "failed_ratio": statistics.median(r["failed"] / r["attempted"] for r in runs),
            "end_to_end": summary,
            "traced": {
                "seed": args.seeds[0], "correct": traced["correct"],
                "attempted": traced["attempted"], "failed": traced["failed"],
                "wall_s": round(wall, 1), "per_layer": traced["metrics"],
            },
        }
        for name, s in summary.items():
            flag = "" if s["bound"] is None or s["spread"] <= s["bound"] else "  OVER BOUND"
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.3f} "
                  f"bound {s['bound']}{flag}", file=sys.stderr)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
