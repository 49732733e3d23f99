"""Benchmark of the ppalg library: one workload per run, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload thin-scan --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` next to this directory, so the run
measures the checkout it sits in.  With ``--trace 0`` the result carries the
end-to-end metrics, with times rescaled by the speed probe (speed.py); with
``--trace 1`` it carries the per-layer metrics of one traced unit and the
tracing overhead.  The last line of standard output
is the result; the line before it records the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, OpLog  # noqa: E402

MODULES = ("errors", "fields", "linalg", "quiver", "rep", "hom", "weyl", "reflection", "stability", "verify", "cli")
SETUP_REPEATS = 7
DEV_SEED = 1
HELD_OUT_SEED = 8447

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("wall_s", "s", "lower", 0.2),
    ("items_per_s", "1/s", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_tail_ms", "ms", "lower", 0.2),
)


class SetupError(Exception):
    """The library cannot be imported from the checkout."""


def load_library():
    """Import a fresh copy of the package from ``src/`` and return its modules."""
    if not (SRC / "ppalg" / "__init__.py").is_file():
        raise SetupError(f"no ppalg package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "ppalg" or n.startswith("ppalg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("ppalg")
    if Path(package.__file__).resolve().parent != (SRC / "ppalg").resolve():
        raise SetupError(f"ppalg was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"ppalg.{m}") for m in MODULES})


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ppalg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD's commit id read from .git, or None when the checkout has no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def tail_latency(latencies):
    """The highest percentile with at least ten samples beyond it.

    With fewer than eleven samples there is no such percentile and the
    maximum is reported; the percentile used is returned with the value.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_units(workload, P, state, log: OpLog, seconds: float, probe: SpeedProbe):
    """Whole units, back to back, while the next one is expected to fit.

    Returns each unit's wall time, the same rescaled by the probe samples
    taken during it, and the index of each unit's first operation in
    ``log``; each operation is rescaled by the samples taken around it.
    """
    raw_times, unit_times, unit_starts = [], [], []
    start = probe.clock()
    while True:
        mark, first_op = probe.mark(), len(log.latencies)
        t0 = probe.clock()
        workload.unit(P, state, log)
        raw = probe.clock() - t0
        raw_times.append(raw)
        unit_times.append(raw * probe.factor_since(mark))
        log.rescale_since(first_op, probe.factor_near)
        unit_starts.append(first_op)
        if probe.clock() - start + raw > seconds:
            return raw_times, unit_times, unit_starts


def setup_repeated(workload, seed: int, probe: SpeedProbe):
    """Set up SETUP_REPEATS times from a fresh import; the median rescaled time."""
    times = []
    for _ in range(SETUP_REPEATS):
        mark = probe.mark()
        t0 = probe.clock()
        P = load_library()
        state = workload.setup(P, seed)
        times.append((probe.clock() - t0) * probe.factor_since(mark))
    return P, state, statistics.median(times)


def end_to_end(workload, seed: int, seconds: float):
    with SpeedProbe() as probe:
        P, state, setup_s = setup_repeated(workload, seed, probe)
        log = OpLog(clock=probe.clock)
        raw_times, unit_times, unit_starts = run_units(workload, P, state, log, seconds, probe)
    # the tail is taken per unit, so it does not depend on how many units fit
    unit_ranges = zip(unit_starts, unit_starts[1:] + [len(log.latencies)])
    tails = [tail_latency(log.latencies[a:b]) for a, b in unit_ranges]
    tail, tail_pct = statistics.median(t for t, _ in tails), tails[0][1]
    values = {
        "wall_s": statistics.median(unit_times),
        "items_per_s": log.items / sum(unit_times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (log.attempted - log.failed) / log.attempted,
        "op_p50_ms": 1000.0 * statistics.median(log.latencies),
        "op_tail_ms": 1000.0 * tail,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    notes = {
        "units": len(unit_times),
        "raw_wall_s": statistics.median(raw_times),
        "op_samples": len(log.latencies),
        "op_tail_percentile": tail_pct,
        "probe_samples": len(probe.samples),
        "probe_median_s": statistics.median(probe.samples),
    }
    return log, metrics, notes


def traced(workload, seed: int):
    """One untraced unit, then set-up and the same unit under tracers.

    Set-up and unit get a tracer each, so the per-layer numbers describe
    the unit alone and the set-up's layers are reported apart.  Times here
    are plain wall times; the speed probe stays off.
    """
    P = load_library()
    state = workload.setup(P, seed)
    log = OpLog()
    t0 = time.perf_counter()
    workload.unit(P, state, log)
    untraced_s = time.perf_counter() - t0
    setup_tracer, unit_tracer = Tracer(), Tracer()
    with layers.installed(setup_tracer, P):
        state = workload.setup(P, seed)
    with layers.installed(unit_tracer, P):
        t0 = time.perf_counter()
        workload.unit(P, state, log)
        traced_s = time.perf_counter() - t0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    files = {}
    for part, tracer in (("setup", setup_tracer), ("unit", unit_tracer)):
        path = out_dir / f"spans-{workload.name}-seed{seed}-{part}.csv.gz"
        tracer.write(path)
        files[f"spans_{part}"] = str(path.relative_to(ROOT))
    metrics = layers.per_layer_metrics(setup_tracer, unit_tracer, traced_s, untraced_s)
    return log, metrics, files


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            log, metrics, notes = traced(workload, args.seed)
        else:
            log, metrics, notes = end_to_end(workload, args.seed, args.seconds)
    except (SetupError, ImportError) as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_role": {DEV_SEED: "dev", HELD_OUT_SEED: "held-out"}.get(args.seed, "other"),
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        **notes,
    }
    print(json.dumps({"env": env}, sort_keys=True))
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
