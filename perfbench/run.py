"""Benchmark of the adiapower CLI and library.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

One process runs one workload in-process through ``adiapower.cli.main`` and
the public library API, importing the package from ``src/``.  With
``--trace 0`` it times passes over the workload's inputs for about
``--seconds`` seconds and reports the end-to-end metrics, with every time
scaled to a nominal machine speed (see ``reference.py``); with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics
(see ``tracing.py``).  Every operation's output is checked.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it report the platform, the
quartiles and sample counts behind each metric, and any failure.
``--smoke`` runs every workload once at toy sizes, untraced and traced.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from reference import NOMINAL_S, Reference
from tracing import Tracer, metric_units
from workloads import GOLDEN_EPOCH, WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".perfbench_tmp"

# Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 9
# Failures printed in full per run; the rest are only counted.
MAX_REPORTED_FAILURES = 10


def load_adiapower():
    """Import a fresh copy of the package from src/ (dropping any loaded one)."""
    for name in [m for m in sys.modules if m == "adiapower" or m.startswith("adiapower.")]:
        del sys.modules[name]
    import adiapower
    import adiapower.cli  # noqa: F401  (the CLI module is not imported by the package)
    if not Path(adiapower.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"adiapower was imported from {adiapower.__file__}, not {SRC}")
    return adiapower


@contextlib.contextmanager
def chdir(path: Path):
    path.mkdir(parents=True, exist_ok=True)
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def platform_info(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config = blas.get("openblas configuration", "")
    kernel = [t for t in config.split()[2:] if not t.isupper() and "=" not in t]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "kernel": kernel[0] if kernel else None, "config": config},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
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
        pass
    return None


def run_pass(ops, tracer, failures: list, speed: Reference):
    """Run each operation once and check it.

    Returns the operations' wall times, raw and scaled to the nominal
    reference speed (see ``reference.py``), the number that failed and the
    diagnostics their checks reported.  Only the operation itself is timed
    (and traced); its check runs afterwards.  Traced operations are not
    interrupted by the reference kernel, whose time would count in the
    traced functions.
    """
    times, scaled, failed, diagnostics = [], [], 0, Counter()
    for op in ops:
        if tracer is not None:
            tracer.active = True
        error = None
        try:
            with speed.timing(interrupt=tracer is None) as timing:
                result = op.run()
        except Exception:                    # an operation may fail; the run goes on
            error = traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.active = False
        times.append(timing.seconds)
        scaled.append(timing.scaled)
        if error is None:
            try:
                diagnostics.update(op.check(result))
            except CheckFailed as exc:
                error = str(exc)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            failed += 1
            failures.append(f"{op.label}: {error}")
    return times, scaled, failed, diagnostics


def quartiles(values) -> tuple:
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values):
    """Highest of the 90th, 99th and 99.9th percentiles with >= 10 samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10:
            best = (p, float(np.percentile(values, p)))
    return best


def summary_line(name, unit, values) -> str:
    q1, q2, q3 = quartiles(values)
    return (f"{name:<14} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"n {len(values)}")


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up and run one workload; print its report and return the result object."""
    build = WORKLOADS[name]
    speed = Reference()
    setups, raw_setups = [], []
    for _ in range(1 if smoke else SETUP_REPS):
        with speed.timing() as timing:
            ap = load_adiapower()
            ops = build(ap, seed, GOLDEN, smoke)
        raw_setups.append(timing.seconds)
        setups.append(timing.scaled)
    # A seeded order interleaves the kinds of operation, so each kind is
    # sampled across the whole run rather than in one stretch of it.
    ops = [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]

    failures = []
    attempted = failed = 0
    if not smoke:
        # One pass at toy size first, so lazy imports and first-call costs
        # fall outside the timed passes.
        with chdir(Path("warmup")):
            warm = build(ap, seed, GOLDEN, True)
            failed += run_pass(warm, None, failures, speed)[2]
        attempted += len(warm)

    tracer = Tracer() if trace else None
    walls = {False: [], True: []}            # per pass, scaled
    raw_walls = []
    op_times = []                            # untraced operations, scaled
    golden_identical = []
    first = len(speed.samples)
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        traced = trace and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        try:
            times, scaled, nfail, diagnostics = run_pass(
                ops, tracer if traced else None, failures, speed)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(ops)
        failed += nfail
        walls[traced].append(sum(scaled))
        if traced:
            tracer.counters.update(diagnostics)
        else:
            raw_walls.append(sum(times))
            op_times += scaled
            golden_identical.append(diagnostics["cli.golden_byte_identical"])
        # Another pass starts only if at least half of it would fit in the
        # run, so a run ends at most half a pass after --seconds.
        now = perf_counter()
        if (now - start + 0.5 * (now - pass_start) >= seconds
                and (not trace or walls[True])):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_ms = [1e3 * t for t in op_times]
    print(f"workload {name}: {len(ops)} operations per pass, "
          f"{len(walls[False])} untraced and {len(walls[True])} traced passes")
    print(summary_line("reference_ms", "ms", [1e3 * t for t in speed.samples[first:]])
          + f"  (nominal {1e3 * NOMINAL_S:g} ms)")
    print(summary_line("raw wall_s", "s", raw_walls) + "  (not scaled)")
    print(summary_line("wall_s", "s", walls[False]))
    print(summary_line("op_ms", "ms", op_ms))
    tail = tail_percentile(op_ms)
    if tail is not None:
        print(f"{'op_ms_p' + format(tail[0], 'g'):<14} {tail[1]:.6g} ms  n {len(op_ms)}")
    print(summary_line("raw setup_s", "s", raw_setups) + "  (not scaled)")
    print(summary_line("setup_s", "s", setups)
          + f"  (first, with cold imports: {setups[0]:.6g} s)")
    print(f"{'peak_rss_mb':<14} {peak_rss_mb:.6g} MB")
    print(f"{'fail_frac':<14} {failed}/{attempted} = {failed / attempted:.6g}")
    if name == "sweep_maps":
        print(f"golden byte-identical CSVs per pass: {golden_identical}")
    for line in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)

    if trace:
        metrics = tracer.metrics(len(walls[True]))
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
        units = metric_units()
        print(f"trace overhead: {metrics['trace.overhead_s']:.6g} s per pass")
        for key, unit in units.items():
            print(f"  {key:<48} {metrics[key]:.6g} {unit}")
        values = {key: (metrics[key], unit) for key, unit in units.items()}
    else:
        values = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "op_ms_p50": (statistics.median(op_ms), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at toy size, untraced and traced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "adiapower" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"no adiapower source tree at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["SOURCE_DATE_EPOCH"] = GOLDEN_EPOCH
    print("platform " + json.dumps(platform_info(args), sort_keys=True))

    work = WORK / f"run-{os.getpid()}"
    try:
        with chdir(work):
            if not args.smoke:
                result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), False)
            else:
                runs = [measure(name, args.seed, 0.0, trace, True)
                        for name in ([args.workload] if args.workload else WORKLOADS)
                        for trace in (False, True)]
                result = {"correct": all(r["correct"] for r in runs),
                          "attempted": sum(r["attempted"] for r in runs),
                          "failed": sum(r["failed"] for r in runs), "metrics": {}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
