#!/usr/bin/env python3
"""The revmaps benchmark: time to a checked verdict, end to end and per layer.

    python3 bench/run.py --workload {matrix,census,construct} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Every pass of a workload runs in a fresh
interpreter (bench/worker.py), because the group cache and the element and
pair order memos would make every pass after the first one warm, while a
command-line user pays the cold cost on every call.  Passes repeat the same
seeded ops while another pass is expected to end within --seconds.  wall_s
sums each op's median latency over the passes, which keeps a burst of host
noise in one pass from moving the whole sum.

Both times are given in reference seconds: each measured time is multiplied
by the host's speed, PROBE_REFERENCE_S over the time the worker's probe took,
averaged over the probes around an op and sampled during it (over the whole
run for set-up), so that a host slowed by its neighbours does not read as a
slower program.  The unscaled times are printed on comment lines and kept in
the run record.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 plain and traced passes alternate, and it holds the per-layer
metrics of the traced passes plus trace.overhead_s, the traced minus the
plain wall time.  Every op is checked against bench/facts.json and the
classification; a failed op is counted, never fatal.  The full run record
(machine facts, per-op latencies, failures) goes to .bench_out/.
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

import tracer as tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up-only cold starts per run, on top of the one every pass makes, so
# setup_s is a median of several samples even when passes are long.
SETUP_ONLY_STARTS = 9
WORKER_TIMEOUT_S = 150
# About what the worker's probe takes on a 2.1 GHz Xeon core of the shared
# host the bounds were measured on, when that host is least busy.  Any fixed
# value would do; this one keeps reference seconds close to wall seconds there.
PROBE_REFERENCE_S = 0.007

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Per-op latency percentiles are printed, not gated.  A percentile is shown
# only when at least ten samples lie beyond it; for p90 that needs the 28 ops
# a pass of construct, not the 11 of matrix or the 2 of census.
OP_PERCENTILES = (50, 90)
PER_LAYER = (
    tuple((f"{name}_s", "s") for name in tracing.SPAN_METRICS)
    + tuple((name, "count") for name in tracing.COUNTS.values())
    + tuple((name, "count") for name in tracing.RESULT_COUNTS)
    + tuple((f"{name}_calls", "count") for name in tracing.CALL_COUNTS)
    + (
        ("mapgeom.maps_built", "count"),
        ("triples.qualifying_ratio", "ratio"),
        ("groups.group_reuse_share", "ratio"),
        ("cli.output_bytes", "bytes"),
        ("trace.overhead_s", "s"),
    )
)


class BenchError(RuntimeError):
    pass


def launch(workload: str, seed: int, index: int, mode: str) -> dict:
    """Run one cold worker process and return its record, with setup_s added."""
    worker = str(BENCH / "worker.py")
    cmd = [sys.executable, worker, workload, str(seed), str(index), mode]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass {index} of {workload} exited {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["setup_end"] - t0
    rec["mode"] = mode
    return rec


def op_percentiles(latencies: list[float]) -> dict[str, float]:
    """op_pNN_s for each percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 2:
        return {}
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {f"op_p{q}_s": cuts[q - 1] for q in OP_PERCENTILES if n * (100 - q) / 100 >= 10}


def speeds(probe_times) -> list[float]:
    """The host's speed at each probe, relative to the reference."""
    return [PROBE_REFERENCE_S / q for q in probe_times]


def scaled_latencies(p: dict) -> list[float]:
    """The pass's op latencies in reference seconds.

    Each is multiplied by the host's mean speed over the probes just before
    and after the op and those sampled while it ran.  Samples come at even
    intervals, so it is speeds that average over time, not probe times.
    """
    probes = p["probes"]
    return [
        t * statistics.fmean(speeds([*probes[max(i - 1, 0) : i + 1], *p["samples"][i]]))
        for i, t in enumerate(p["latencies"])
    ]


def op_median_sum(passes: list[dict], scaled: bool = True) -> float:
    """Sum over the ops of a pass of each op's median latency across passes."""
    if any(p["labels"] != passes[0]["labels"] for p in passes):
        raise BenchError("passes of one run ran different ops")
    lats = [scaled_latencies(p) if scaled else p["latencies"] for p in passes]
    return sum(statistics.median(lat) for lat in zip(*lats))


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(args) -> dict:
    if not (ROOT / "src" / "revmaps" / "__init__.py").is_file():
        raise BenchError(f"no revmaps sources under {ROOT / 'src'}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": os.getloadavg(),
    }
    start = time.monotonic()
    setup_only = [launch(args.workload, args.seed, 0, "setup") for _ in range(SETUP_ONLY_STARTS)]
    passes = []
    while True:
        mode = "traced" if args.trace and len(passes) % 2 else "plain"
        began = time.monotonic()
        passes.append(launch(args.workload, args.seed, len(passes), mode))
        # another pass of the same length would overrun --seconds
        overrun = 2 * time.monotonic() - began - start > args.seconds
        if overrun and (not args.trace or len(passes) >= 2):
            break
    record["run_s"] = time.monotonic() - start

    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    latencies = [t for p in plain for t in p["latencies"]]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["labels"]) for p in passes)
    wall = op_median_sum(plain)
    record.update(
        passes=len(passes),
        plain_passes=len(plain),
        attempted=attempted,
        failed=len(failures),
        failures=failures,
        setup_samples=[p["setup_s"] for p in setup_only + passes],
        setup_raw_s=statistics.median(p["setup_s"] for p in setup_only + passes),
        wall_raw_s=op_median_sum(plain, scaled=False),
        probe_s=[q for p in plain for q in p["probes"] + sum(p["samples"], [])],
        op_samples=len(latencies),
        op_percentiles=op_percentiles(latencies),
        ops=[
            {
                "pass": i,
                "mode": p["mode"],
                "ops": list(zip(p["labels"], p["latencies"])),
                "probes": p["probes"],
                "samples": p["samples"],
            }
            for i, p in enumerate(passes)
        ],
    )
    if args.trace:
        layers = [p["layers"] for p in traced]
        metrics = {
            name: statistics.median(m[name] for m in layers)
            for name, _ in PER_LAYER
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = op_median_sum(traced) - wall
        units = dict(PER_LAYER)
        record["spans"] = [p["spans"] for p in traced]
    else:
        metrics = {
            "wall_s": wall,
            # a cold start is too short to probe the host during it, so the
            # set-up time is scaled by the host's mean speed over the run
            "setup_s": record["setup_raw_s"] * statistics.fmean(speeds(record["probe_s"])),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        units = dict(END_TO_END)
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the result object as the last stdout line."""
    attempted, failed = record["attempted"], record["failed"]
    print(
        f"# {record['workload']} seed={record['seed']} passes={record['passes']}"
        f" run_s={record['run_s']:.1f} python={record['python']} nproc={record['nproc']}"
        f" git={record['git_sha'][:12]} loadavg_start={record['loadavg_start'][0]:.2f}"
    )
    print(f"# ops_failed {failed / attempted:.4f} share ({failed} of {attempted} ops)")
    for line in record["failures"]:
        print(f"#   FAILED {line}")
    for name, value in record["op_percentiles"].items():
        print(f"# {name:<42} {value:>14.6g} s      n={record['op_samples']} ops, not gated")
    print(
        f"# {'host probe':<42} {statistics.median(record['probe_s']):>14.6g} s      median of"
        f" {len(record['probe_s'])}; reference {PROBE_REFERENCE_S} s"
    )
    if not record["trace"]:
        print(f"# {'wall_s unscaled':<42} {record['wall_raw_s']:>14.6g} s      not gated")
        print(f"# {'setup_s unscaled':<42} {record['setup_raw_s']:>14.6g} s      not gated")
    samples = {
        "wall_s": f"sum of per-op medians over {record['plain_passes']} plain passes, scaled",
        "setup_s": f"median of {len(record['setup_samples'])} cold starts, scaled by run",
        "peak_rss_mb": f"median of {record['plain_passes']} plain passes",
    }
    for name, m in record["metrics"].items():
        print(f"# {name:<42} {m['value']:>14.6g} {m['unit']:<6} {samples.get(name, '')}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="revmaps benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run(args)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
