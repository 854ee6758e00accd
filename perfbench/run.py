"""jllab benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 20 --trace 0

Run from the root of a jllab checkout; the package is imported from the
checkout's ``src``.  The run sets the workload up several times, then
repeats whole passes of the workload's operations until ``--seconds`` of
passes have run (at least three), checks the first pass's outputs, and
checks that every later pass wrote byte-identical files and returned
equal results.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
run's set-ups and passes, scaled to a fixed host speed as described at
``REF_S``); with ``--trace 1`` every public jllab function
is wrapped by the span recorder and the metrics are per layer.  The names
and units of both come from ``BENCHMARK.json`` at the checkout's root.
Inputs and outputs go to ``perfbench/out/<workload>-<seed>/`` and spans
to ``perfbench/out/`` when the run ends; two runs of the same workload and
seed must not run at once.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
IMPORT_REPS = 5
MIN_PASSES = 3

# The end-to-end timings are scaled to a fixed host speed.  On a VM whose
# cores are shared with other tenants the speed drifts by about 25% over
# minutes, and CPU time drifts with wall time.  A fixed kernel, timed on
# each CPU before and after every timed step, measures the speed at that
# moment, and a step's time t is reported as t * REF_S / (mean of the two
# kernel times).  REF_S is the kernel's typical time per CPU on the machine
# the benchmark was written on; it only sets the scale.  The kernel is
# numpy and Python code that jllab neither calls nor configures, so a
# change to the program moves t alone.  Raw times go to stderr.
REF_S = 0.05


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error(f"--seed must fit in 64 unsigned bits, got {args.seed}")
    if not args.seconds > 0:
        p.error(f"--seconds must be positive, got {args.seconds}")
    return args


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def reference_s() -> float:
    """Mean time per CPU of the fixed reference kernel, run once on each CPU the process may use.

    Per CPU: ziggurat normals, a sort, arithmetic and floats written as text
    and parsed back.  Only the calling thread is moved, and only for the
    kernel; its CPU set is restored after.
    """
    import numpy as np

    cpus = os.sched_getaffinity(0)
    t = time.perf_counter()
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            rng = np.random.Generator(np.random.SFC64(12345))
            for _ in range(6):
                x = rng.standard_normal(100_000)
                np.sqrt(np.abs(x * np.sort(x) + 1.0)).sum()
            text = ",".join(f"{v:.17g}" for v in x[:15_000])
            sum(float(v) for v in text.split(","))
    finally:
        os.sched_setaffinity(0, cpus)
    return (time.perf_counter() - t) / len(cpus)


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Each time at the reference speed; refs[i] and refs[i + 1] bracket times[i]."""
    return [t * 2.0 * REF_S / (a + b) for t, a, b in zip(times, refs, refs[1:])]


def child_import_seconds() -> float:
    """Time a fresh interpreter takes to import the workloads (numpy and jllab)."""
    code = (
        f"import sys, time; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
        "t = time.perf_counter(); import workloads; print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.split()[-1])


def file_digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "jllab" / "__init__.py").is_file():
        print(f"benchmark: no jllab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and jllab from the checkout

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    def phase(name: str) -> None:
        if tracer is not None:
            tracer.phase = name

    # a process imports once, so the import part of the set-up is timed in
    # fresh interpreters, several times, and its median taken
    import_times, import_refs = [], [reference_s()]
    for _ in range(IMPORT_REPS):
        import_times.append(child_import_seconds())
        import_refs.append(reference_s())
    work = HERE / "out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        setup_times, setup_refs = [], [reference_s()]
        for i in range(SETUP_REPS):
            phase(f"setup:{i}")
            t = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t)
            setup_refs.append(reference_s())
        input_digests = file_digests(wl.inputs)

        walls, cpus, pass_refs = [], [], []
        attempted = failed = unexpected = 0
        first: dict[str, object] = {}
        first_files: dict[str, str] = {}
        drift: list[str] = []
        started = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - started < args.seconds:
            for p in wl.out.iterdir():
                p.unlink()
            results: dict[str, object] = {}
            ops = wl.ops(results)
            gc.collect()  # each pass starts from the same heap, not the last pass's garbage
            pass_refs.append(reference_s())
            phase(f"pass:{len(walls)}")
            t, c = time.perf_counter(), time.process_time()
            for op in ops:
                attempted += 1
                try:
                    results[op.name] = op.call()
                except Exception as exc:  # an operation's failure is counted, not fatal
                    failed += 1
                    unexpected += not op.known_fault
                    if not walls:
                        kind = "known fault" if op.known_fault else "FAILED"
                        print(f"benchmark: {op.name}: {kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
                        if not op.known_fault:
                            traceback.print_exc()
            walls.append(time.perf_counter() - t)
            cpus.append(time.process_time() - c)
            phase("between")
            files = file_digests(wl.out)
            if len(walls) == 1:
                first, first_files = results, files
                continue
            if files != first_files:
                drift.append(f"pass {len(walls) - 1} output files differ from the first pass's")
            for op in ops:
                if op.name in results and (
                    op.name not in first or op.digest(results[op.name]) != op.digest(first[op.name])
                ):
                    drift.append(f"pass {len(walls) - 1}: {op.name} result differs from the first pass's")
        pass_refs.append(reference_s())

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phase("check")
    problems = drift
    if not drift:  # the files on disk are then the first pass's, byte for byte
        try:
            problems = wl.check(first)
        except Exception as exc:  # a check that cannot run is a failed check
            traceback.print_exc()
            problems = [f"checks raised {type(exc).__name__}: {exc}"]
    if file_digests(wl.inputs) != input_digests:
        problems.append("inputs changed during the run")
    correct = not problems and unexpected == 0
    for msg in problems:
        print(f"benchmark: check failed: {msg}", file=sys.stderr)

    wall_s = statistics.median(scaled(walls, pass_refs))
    cpu_s = statistics.median(scaled(cpus, pass_refs))
    setup_s = statistics.median(scaled(import_times, import_refs)) + statistics.median(scaled(setup_times, setup_refs))
    print(
        f"benchmark: {args.workload} seed={args.seed} trace={args.trace} passes={len(walls)} "
        f"wall_s={wall_s:.4f} cpu_s={cpu_s:.4f} setup_s={setup_s:.4f} peak_rss_mib={peak_rss_mib:.1f}\n"
        f"  raw: wall {statistics.median(walls):.4f} cpu {statistics.median(cpus):.4f} "
        f"setup {statistics.median(import_times) + statistics.median(setup_times):.4f} s\n"
        f"  walls {[round(t, 3) for t in walls]}\n  pass kernels {[round(t, 4) for t in pass_refs]}\n"
        f"  imports {[round(t, 3) for t in import_times]}\n  set-ups {[round(t, 4) for t in setup_times]}",
        file=sys.stderr,
    )
    if tracer is not None:
        tracer.write(str(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"))
        units = metric_units("per_layer")
        values = spans.run_metrics(tracer.spans, units)
    else:
        units = metric_units("end_to_end")
        values = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mib": peak_rss_mib}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
