#!/usr/bin/env python3
"""Run one workload of the mixedrandic benchmark and print its metrics.

    python3 perfbench/run.py --workload exhaustive-n4 --seed 1729 \\
        --seconds 35 --trace 0

Run it from the root of a checkout; the package is imported from ./src.
With --trace 0 it repeats untraced passes of the workload for about
--seconds and prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes for about as long and prints the per-layer
metrics.  The times of the passes are scaled to the host's typical speed
by the probe in speed.py, which samples it while they run, and setup_s by
numpy's import timed around each import of the package.  The last
line of stdout is the result, {"correct", "attempted", "failed",
"metrics"}; the line before it holds notes (machine, report digests,
percentiles, problems).  Notes and spans are also written to
perfbench/out/.  --workload all runs every workload, each in a process of
its own, and ends with one combined result line.
"""

from __future__ import annotations

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

from speed import SpeedProbe
from workloads import WORKLOADS, Tally, build, tracer_probe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Fresh interpreters that do nothing but import the package, half of them
#: before the passes and half after; the median of their scaled times is
#: setup_s.
IMPORT_PROBES = 8
PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import mixedrandic.cli
print(time.perf_counter() - start)
"""
#: The reference for setup_s: numpy's import in a fresh interpreter, cold
#: code like the package's own import, which it dominates.  The hot speed
#: probe kernel did not follow import times (see NOTE.md).
REFERENCE = """\
import time
start = time.perf_counter()
import numpy
print(time.perf_counter() - start)
"""
#: Typical REFERENCE time on the reference host (see speed.NOMINAL_S).
NOMINAL_IMPORT_S = 0.15


def child_time(code: str) -> float:
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def import_probes(count: int) -> list[tuple[float, float]]:
    """(scaled, raw) times of `count` imports, each in a fresh interpreter
    between two REFERENCE interpreters, and scaled by their mean time."""
    probes = []
    reference = child_time(REFERENCE)
    for _ in range(count):
        took = child_time(PROBE)
        after = child_time(REFERENCE)
        probes.append((took * NOMINAL_IMPORT_S / ((reference + after) / 2),
                       took))
        reference = after
    return probes


def machine_note() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu}


def timed_passes(mr, workload, seconds: float, tally: Tally,
                 probe: SpeedProbe) -> list:
    """Untraced passes until the next one would end after `seconds`."""
    from tracer import installed_wrappers
    deadline = time.perf_counter() + seconds
    passes = []
    with probe:
        while True:
            begin = time.perf_counter()
            passes.append(workload.run_pass(mr, probe, tally))
            now = time.perf_counter()
            if now + (now - begin) > deadline:
                break
    if installed_wrappers(mr):
        tally.incorrect("untraced run", "tracing wrappers are installed")
    return passes


def traced_passes(mr, workload, seconds: float, tally: Tally,
                  probe: SpeedProbe, spans_path: Path):
    """The tracer self-test, then untraced and traced passes in turn until
    the next pair would end after `seconds`.  Layer metrics come from the
    last traced pass; every traced pass must make the same calls."""
    from metrics import per_layer
    from tracer import Tracer, installed_wrappers, self_test
    for problem in self_test(mr, lambda: tracer_probe(mr)):
        tally.incorrect("tracer self-test", problem)
    deadline = time.perf_counter() + seconds
    untraced, traced, counts = [], [], []
    with probe:
        while True:
            begin = time.perf_counter()
            untraced.append(workload.run_pass(mr, probe, tally))
            tracer = Tracer(mr)
            tracer.install()
            try:
                traced.append(workload.run_pass(mr, probe, tally))
            finally:
                tracer.uninstall()
            if installed_wrappers(mr):
                tally.incorrect("traced run",
                                "wrappers left after a traced pass")
            counts.append(tracer.counts())
            now = time.perf_counter()
            if now + (now - begin) > deadline:
                break
    if any(c != counts[0] for c in counts):
        tally.incorrect("traced run", "span counts differ between traced passes")
    layer, notes = per_layer(tracer, traced, untraced, probe)
    tracer.write(spans_path)
    notes["spans_file"] = str(spans_path.relative_to(HERE.parent))
    return layer, notes, untraced + traced


def run_one(args) -> int:
    setup = [] if args.trace else import_probes(IMPORT_PROBES // 2)
    sys.path.insert(0, str(SRC))
    import mixedrandic.cli
    mr = sys.modules["mixedrandic"]
    if Path(mr.__file__).resolve().parent != SRC / "mixedrandic":
        print(f"error: imported mixedrandic from {mr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from metrics import end_to_end, pass_times
    from workloads import TAIL_PERCENT
    tally = Tally()
    probe = SpeedProbe()
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    try:
        workload = build(args.workload, args.seed, workdir)
        if args.trace:
            metrics, notes, passes = traced_passes(
                mr, workload, args.seconds, tally, probe,
                OUT / f"spans-{tag}.tsv.gz")
        else:
            passes = timed_passes(mr, workload, args.seconds, tally, probe)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup += import_probes(IMPORT_PROBES - len(setup))
            metrics = end_to_end([s for s, _ in setup], passes, probe,
                                 peak_mb)
            light = sum(len(p.light) for p in passes)
            unscaled = pass_times(passes, lambda i: i.raw_s)
            unscaled["setup_s"] = statistics.median(r for _, r in setup)
            notes = {
                "light_tail_ms": f"p{TAIL_PERCENT} of {light} light requests "
                                 f"over {len(passes)} pass(es)",
                "setup_s": f"median of {len(setup)} imports in fresh "
                           "processes, half before the passes, half after, "
                           "each scaled by numpy's import around it",
                "unscaled": unscaled,
            }
        notes["speed_probe"] = probe.note()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "machine": machine_note(),
        "digests": passes[-1].digests, "notes": notes,
        "problems": tally.problems,
    }
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        lines = done.stdout.splitlines()
        for line in lines:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mixedrandic" / "__init__.py").is_file():
        print(f"error: no mixedrandic package under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
