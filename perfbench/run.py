"""Benchmark entry point.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # each in its own process

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics and
writes a JSON-lines span file under ``.perfbench_out/``.  The exit code
is non-zero on any wrong answer, failed guard or missing metric.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("suite_cold_prepare", "serve_zipf", "serve_zipf_proc", "solve_refresh")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and relaxed sample-count guards (smoke test)",
    )
    ap.add_argument(
        "--setup-only", action="store_true",
        help="time one cold set-up and print it (used for repetitions)",
    )
    return ap.parse_args(argv)


#: Set once the run has re-executed itself with a fixed memory layout.
LAYOUT_ENV = "PERFBENCH_FIXED_LAYOUT"
ADDR_NO_RANDOMIZE = 0x0040000


def _fix_layout(argv) -> None:
    """Re-execute this run once with address-space randomization off and
    a fixed string-hash seed.

    With either left random, the allocator lays the same objects out
    differently from one process to the next, and the peak RSS of the
    same run with the same seed lands in one of two modes 15% apart
    (README.md, "Memory layout").  Child processes inherit both settings.
    """
    if os.environ.get(LAYOUT_ENV) == "1":
        return
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona == -1 or libc.personality(persona | ADDR_NO_RANDOMIZE) == -1:
        print("perfbench: cannot turn off address-space randomization; "
              "peak_rss_mb will vary more", file=sys.stderr)
        return
    env = dict(os.environ, PYTHONHASHSEED="0", **{LAYOUT_ENV: "1"})
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)


def _import_sources() -> None:
    """Put this checkout's ``src/`` first on the path; refuse to run on
    any other copy of the package."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no package sources at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _module(workload):
    return importlib.import_module({
        "suite_cold_prepare": "wl_suite",
        "serve_zipf": "wl_serve",
        "serve_zipf_proc": "wl_serve",
        "solve_refresh": "wl_solve",
    }[workload])


def _run_all(args) -> int:
    """Every workload, each in a fresh process; exit code is the worst."""
    worst = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(json.dumps({"workload": workload, "exit": proc.returncode,
                          "result": json.loads(lines[-1]) if lines else None}))
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    _fix_layout(argv)
    _import_sources()
    if args.workload == "all":
        return _run_all(args)

    import cpus
    import harness

    ctx = harness.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    module = _module(args.workload)
    if args.setup_only:
        # Started by a run, on its CPU; the run's rotation moves it along.
        setup_s = module.setup_only(ctx)
        harness.stop_resource_tracker()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if ctx.trace:
        ctx.rec = harness.SpanRecorder()
    shm_before = harness.shm_segments()
    rotation = cpus.Rotation()
    try:
        module.run(ctx)
    finally:
        rotation.stop()
    gc.collect()
    leftover = harness.shm_segments() - shm_before
    for _ in range(max(leftover, 0)):
        ctx.fail("shared-memory segment left behind after close")
    harness.stop_resource_tracker()

    wanted = harness.per_layer() if ctx.trace else harness.end_to_end()
    if ctx.trace:
        ctx.metric("failed_share", ctx.failed / max(ctx.attempted, 1))
    ctx.metrics = {k: v for k, v in ctx.metrics.items() if k in wanted}
    missing = sorted(set(wanted) - set(ctx.metrics))
    for why in ctx.guard_failures:
        print(f"perfbench: guard failed: {why}", file=sys.stderr)
    for why in ctx.problems:
        print(f"perfbench: {why}", file=sys.stderr)
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
    print(ctx.result_line())
    return 0 if ctx.correct and ctx.attempted > 0 and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
