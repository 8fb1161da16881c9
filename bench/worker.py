"""One cold pass of a workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED PASS MODE

MODE is ``setup`` (build the groups and stop), ``plain`` or ``traced``.  Set-up
imports revmaps and builds every group the pass touches; it ends at the
``setup_end`` clock reading, taken on the system-wide monotonic clock so that
the parent can add the interpreter start it measured from outside.  The last
stdout line is a JSON record of the pass.  Every op is gated against
``bench/facts.json``.

The host is a shared machine whose speed swings by more than half within
seconds, so a pass also times a fixed probe after every op, outside every
timed region, and a short one every ``SAMPLE_INTERVAL_S`` during an op, from
a SIGALRM handler whose time is taken out of the op's latency.  The parent
scales each time by how much slower than ``PROBE_REFERENCE_S`` the probes
ran.
"""

from __future__ import annotations

import json
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from array import array
from pathlib import Path

import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

PROBE_ITERATIONS = 20_000
SAMPLE_ITERATIONS = 4_000
SAMPLE_INTERVAL_S = 0.2
PROBE_SLOTS = 1 << 19


class Probe:
    """Times reads from a 4 MiB table at scattered places.

    Like the program, the reads spend their time in the interpreter and in
    cache misses.  The places follow a full-period generator, and each call
    goes on where the last one stopped, so a read seldom finds its line in
    the cache.  The table is made after set-up and before the first op, which
    evicts it from the cache before the first probe.  It is an array of
    machine integers, which the garbage collector does not track, so the
    program's heap neither slows the probe nor is collected by it.
    """

    def __init__(self) -> None:
        self.table = array("q", [0]) * PROBE_SLOTS
        self.at = 0

    def __call__(self, iterations: int = PROBE_ITERATIONS) -> float:
        """The seconds PROBE_ITERATIONS reads take at the rate measured."""
        table, j, acc = self.table, self.at, 0
        t0 = time.perf_counter()
        for _ in range(iterations):
            j = (j * 1103515245 + 12345) & (PROBE_SLOTS - 1)
            acc ^= table[j]
        elapsed = time.perf_counter() - t0
        self.at = j
        return elapsed * PROBE_ITERATIONS / iterations


class Sampler:
    """Probes the host every SAMPLE_INTERVAL_S while an op runs.

    An op can last seconds, longer than the host keeps one speed, so the
    probes at its ends alone would not tell how fast the host ran during it.
    ``spent`` is the time the handler took, which the op's latency excludes.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.probe(SAMPLE_ITERATIONS))
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> Sampler:
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv: list[str]) -> int:
    workload, seed, pass_index, mode = argv
    ops = workloads.make_ops(workload, int(seed))
    tracer = tracing.Tracer() if mode == "traced" else tracing.NullTracer()
    if mode == "traced":
        tracer.install()

    import revmaps
    from revmaps import groups

    src = (ROOT / "src").resolve()
    if src not in Path(revmaps.__file__).resolve().parents:
        raise SystemExit(f"revmaps was imported from {revmaps.__file__}, not {src}")

    touched = sorted({g for op in ops for g in workloads.groups_touched(op)})
    for key in touched:
        groups.build_group(*key).involutions()
    setup_end = time.monotonic()
    record = {"setup_end": setup_end}
    if mode == "setup":
        print(json.dumps(record))
        return 0

    facts = json.loads((BENCH / "facts.json").read_text())
    built = set(groups._CACHE)
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    latencies, failures, seen = [], [], set()
    probe = Probe()
    sampler, record["probes"], record["samples"] = Sampler(probe), [], []
    reused = output_bytes = 0
    try:
        for i, op in enumerate(ops):
            group = workloads.groups_touched(op)[0]
            reused += group in seen
            seen.add(group)
            op_dir = tmp / str(i)
            op_dir.mkdir()
            tracer.op = i
            try:
                with sampler:
                    t0 = time.perf_counter()
                    try:
                        result = workloads.run_op(op, op_dir, tracer)
                    finally:
                        latencies.append(time.perf_counter() - t0 - sampler.spent)
                workloads.gate(op, result, op_dir, facts)
            except Exception as exc:  # a failed op is counted, never fatal
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            record["samples"].append(sampler.samples)
            output_bytes += sum(f.stat().st_size for f in op_dir.iterdir())
            record["probes"].append(probe())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    late = sorted(set(groups._CACHE) - built)
    if late:
        raise SystemExit(f"groups built after set-up, inside timed ops: {late}")
    record.update(
        latencies=latencies,
        failures=failures,
        labels=[op.label for op in ops],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if mode == "traced":
        missing = tracer.missing(workload)
        if missing:
            raise SystemExit(f"expected spans never fired on {workload}: {missing}")
        record["layers"] = {
            **tracer.layer_metrics(),
            "groups.group_reuse_share": reused / len(ops),
            "cli.output_bytes": output_bytes,
        }
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{workload}-seed{seed}-pass{pass_index}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        record["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
