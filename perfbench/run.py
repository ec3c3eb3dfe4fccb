#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload exact-audit --seed 1 --seconds 15 --trace 0

One process, one thread, one caller: the operations of a workload run back
to back (a closed loop) until their summed wall time reaches `--seconds`,
always in whole rounds.  Every output is checked against a computation made
apart from the package (see checks.py); the checks are not timed.

Every reported time is a wall time scaled to a reference host speed: a
fixed pure-Python probe loop runs between operations, and times are
multiplied by PROBE_REF_MS over the probe's median in the run.  The record
keeps the unscaled values and the probe figures.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` the same workload runs with a span wrapper around each traced
public function and the last line carries the per-layer metrics instead.
Each run also writes a JSON record (machine, versions, seed, counts and a
correctness echo) to perfbench/records/.

The package is imported from `src/` of the checkout that holds this file;
without it the run stops, prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# setup_s is the median over this many fresh interpreters
SETUP_PROBES = 5
# Host-speed scaling: the host's speed drifts by 25-40% over minutes, so every
# timing is scaled to a host on which the probe loop below takes PROBE_REF_MS.
# The probe runs between operations, about every PROBE_EVERY_S of operation time.
PROBE_REF_MS = 1.5
PROBE_EVERY_S = 0.05


def _load_package() -> None:
    """Put the checkout's own package first on the path, or stop."""
    if not (SRC / "wavechannel" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'wavechannel'}; run from a full checkout")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import wavechannel

    if Path(wavechannel.__file__).resolve().parent != SRC / "wavechannel":
        sys.exit(f"perfbench: imported wavechannel from {wavechannel.__file__}, not from {SRC}")


def setup(workload: str, seed: int, tiny: bool, tracer, workdir: Path):
    """Imports, input generation and one warm-up operation; returns (workload, import_s)."""
    t = time.perf_counter()
    import workloads

    cls = workloads.WORKLOADS[workload]
    for module in cls.MODULES.values():
        importlib.import_module(f"wavechannel.{module}")
    import_s = time.perf_counter() - t
    wl = cls(seed, tiny, tracer, workdir)
    op = wl.warmup()
    op.check(op.call())
    return wl, import_s


def _setup_probe(args: argparse.Namespace) -> None:
    """Child side of a setup measurement: set up, say so, exit."""
    _load_package()
    import tracing

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        setup(args.workload, args.seed, args.tiny, tracing.Tracer(), Path(tmp))
        print("ready", flush=True)


def measure_setup(args: argparse.Namespace, probes: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it is ready to time an operation.

    Returns the setup times and the host probes (ms) taken between them.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    times, host = [], []
    for _ in range(probes):
        host += [host_probe_ms() for _ in range(5)]
        t = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - t
            child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"setup probe exited {code} without getting ready")
        times.append(elapsed)
    return times, host


def timed_loop(wl, seconds: float) -> dict:
    """Whole rounds of operations until their summed wall time reaches `seconds`."""
    import workloads

    op_s: list[float] = []
    failures: dict[str, int] = {}
    unexplained: list[str] = []
    host = [host_probe_ms()]
    attempted = 0
    busy = since_probe = 0.0
    rounds = 0
    while True:
        for op in wl.round():
            t = time.perf_counter()
            try:
                out, raised = op.call(), None
            except Exception as e:  # an operation that raises is a failed one, not the end of the run
                out, raised = None, e
            dt = time.perf_counter() - t
            if raised is None:
                outcome = op.check(out)
            else:
                outcome = workloads.fail(f"raised {type(raised).__name__}: {raised}")
            attempted += 1
            busy += dt
            since_probe += dt
            if since_probe >= PROBE_EVERY_S:
                host.append(host_probe_ms())
                since_probe = 0.0
            if outcome.passed:
                op_s.append(dt)
            else:
                failures[op.kind] = failures.get(op.kind, 0) + 1
                if outcome.fault is None:
                    unexplained.append(f"{op.kind}: {outcome.detail}")
                else:
                    wl.kept_failures.setdefault(outcome.fault, outcome.detail)
        rounds += 1
        if busy >= seconds:
            break
    return {"rounds": rounds, "attempted": attempted, "op_s": op_s, "busy_s": busy,
            "failures": failures, "unexplained": unexplained, "host_ms": host}


def host_probe_ms() -> float:
    """One timing, in ms, of a fixed pure-Python loop that touches no package code."""
    t = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return 1e3 * (time.perf_counter() - t)


def host_speed(probes_ms: list[float]) -> float:
    """Factor that scales a time measured alongside these probes to the reference host."""
    return PROBE_REF_MS / statistics.median(probes_ms)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(loop: dict, setup_times: list[float], wl, speed: float, setup_speed: float) -> dict:
    """The end-to-end metrics, with times scaled by `speed` (`setup_speed` for set-up)."""
    import checks

    ops_ms = sorted(1e3 * speed * s for s in loop["op_s"])
    verified = len(ops_ms)
    p90 = statistics.quantiles(ops_ms, n=10)[-1] if verified >= 2 else (ops_ms[0] if ops_ms else 0.0)
    return {
        "setup_s": (setup_speed * statistics.median(setup_times), "s"),
        "verified_per_s": (verified / (speed * loop["busy_s"]), "ops/s"),
        "op_ms_p50": (statistics.median(ops_ms) if ops_ms else 0.0, "ms"),
        "op_ms_p90": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "cone_energy_gap_max": (max(wl.cone_gap, checks.GAP_FLOOR), "rel."),
        "balance_gap_max": (max(wl.balance_gap, checks.GAP_FLOOR), "rel."),
    }


def _git_sha() -> str:
    """HEAD of the checkout's repository, read from .git without running git."""
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
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def write_record(record_dir: Path, args: argparse.Namespace, result: dict, loop: dict, wl, extra: dict) -> Path:
    import numpy
    import scipy

    record = {
        "git_sha": _git_sha(),
        "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "machine": {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "platform": platform.platform()},
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "rounds": loop["rounds"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_by_kind": loop["failures"],
        "kept_failures": wl.kept_failures,
        "unexplained_failures": loop["unexplained"][:20],
        "echo": {"cone_energy_gap_max": wl.cone_gap, "balance_gap_max": wl.balance_gap, **wl.echo()},
        **extra,
        "metrics": result["metrics"],
    }
    record_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = record_dir / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}_{stamp}_{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    return path


def run(args: argparse.Namespace, record_dir: Path | None = HERE / "records") -> dict:
    """One measured run; returns the result object that main prints."""
    _load_package()
    import tracing

    setup_times, setup_host = [], []
    if not args.trace:
        setup_times, setup_host = measure_setup(args, 1 if args.tiny else SETUP_PROBES)
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        wl, import_s = setup(args.workload, args.seed, args.tiny, tracer, Path(tmp))
        restore = tracing.install(tracer) if args.trace else None
        try:
            loop = timed_loop(wl, args.seconds)
        finally:
            if restore is not None:
                restore()
    speed = host_speed(loop["host_ms"])
    if args.trace:
        metrics = tracer.layer_metrics(import_s, speed)
        raw = tracer.layer_metrics(import_s, 1.0)
    else:
        setup_speed = host_speed(setup_host)
        metrics = end_to_end(loop, setup_times, wl, speed, setup_speed)
        raw = end_to_end(loop, setup_times, wl, 1.0, 1.0)
    result = {
        "correct": not loop["unexplained"],
        "attempted": loop["attempted"],
        "failed": sum(loop["failures"].values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    extra = {
        "host": {
            "probe_ref_ms": PROBE_REF_MS,
            "probe_median_ms": statistics.median(loop["host_ms"]),
            "probes": len(loop["host_ms"]),
            "setup_probe_median_ms": statistics.median(setup_host) if setup_host else None,
            "speed": speed,
        },
        "unscaled_metrics": {k: v for k, (v, _) in raw.items()},
        "setup_samples_s": setup_times,
        "busy_s": loop["busy_s"],
        "ops_verified": len(loop["op_s"]),
        "op_ms_p90_samples_beyond": len(loop["op_s"]) // 10,
    }
    if record_dir is not None:
        write_record(record_dir, args, result, loop, wl, extra)
    return result


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("exact-audit", "mode-evolution", "radiating-balance", "readme-cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0, help="summed operation time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
