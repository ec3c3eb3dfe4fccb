#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs; write BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workloads mode-evolution \\
        --pairs 10 --seed-base 31 --number 6

The parent's committed files are exported with `git archive` into a
temporary directory; the change is this checkout as it stands.
`perfbench/run.py` runs once on each side per pair, workload and trace
setting (untraced for the end-to-end metrics, traced for the per-layer
ones), with the same seed on both sides and its own default run length;
which side runs first alternates from pair to pair, so a drift of the
host's speed falls on both sides alike.

The output, `BENCH_<n>.json` at the root of the checkout, holds every
run's result line, and for each workload, trace setting and metric each
side's median and quartiles, the number of pairs in which the change
did better (the direction comes from BENCHMARK.json), and the failed
shares.  The temporary directory is removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACES = (0, 1)


@dataclass
class PairsConfig:
    number: int  # n of the BENCH_<n>.json written
    parent: str = "HEAD~1"
    workloads: list[str] = field(default_factory=lambda: ["mode-evolution"])
    pairs: int = 10
    seed_base: int = 31


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(ref: str, dest: Path) -> Path:
    """The committed files of `ref`, unpacked under `dest`."""
    archive = dest.with_suffix(".tar")
    with archive.open("wb") as out:
        subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def src_digest(checkout: Path) -> str:
    """sha256 over the paths and bytes of the package sources under `checkout`."""
    h = hashlib.sha256()
    for f in sorted((checkout / "src").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(f.relative_to(checkout).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in `checkout`; its last stdout line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and trace: each metric's spreads and wins, and the failed shares."""
    out: dict = {}
    for key in sorted({(r["workload"], r["trace"]) for r in runs}):
        group = [r for r in runs if (r["workload"], r["trace"]) == key]
        pairs = sorted({r["pair"] for r in group})
        by = {(r["pair"], r["side"]): r["result"] for r in group}
        metrics: dict = {}
        for name in group[0]["result"]["metrics"]:
            sides = {s: [by[p, s]["metrics"][name]["value"] for p in pairs] for s in ("parent", "change")}
            sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
            metrics[name] = {
                "better": better.get(name, "lower"),
                "parent": spread(sides["parent"]),
                "change": spread(sides["change"]),
                "wins": sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"])),
                "pairs": len(pairs),
            }
        failed = {
            s: [by[p, s]["failed"] / by[p, s]["attempted"] if by[p, s]["attempted"] else 0.0 for p in pairs]
            for s in ("parent", "change")
        }
        out[f"{key[0]} trace={key[1]}"] = {"metrics": metrics, "failed_share": failed}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    defaults = PairsConfig(number=0)
    p.add_argument("--number", type=int, required=True, help="n of the BENCH_<n>.json written")
    p.add_argument("--parent", default=defaults.parent, help="git ref of the parent commit")
    p.add_argument("--workloads", nargs="+", choices=[w["name"] for w in bench["workloads"]],
                   default=defaults.workloads)
    p.add_argument("--pairs", type=int, default=defaults.pairs)
    p.add_argument("--seed-base", type=int, default=defaults.seed_base, help="pair i runs seed base + i")
    cfg = PairsConfig(**vars(p.parse_args(argv)))

    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    parent_sha = _git("rev-parse", cfg.parent)
    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": export(parent_sha, Path(tmp) / "parent"), "change": ROOT}
        digests = {side: src_digest(path) for side, path in sides.items()}
        for i in range(cfg.pairs):
            seed = cfg.seed_base + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in cfg.workloads:
                for trace in TRACES:
                    for side in order:
                        result = run_once(sides[side], workload, seed, trace)
                        runs.append({"pair": i, "seed": seed, "side": side, "first": order[0],
                                     "workload": workload, "trace": trace, "result": result})
                        print(f"pair {i} {workload} trace={trace} {side}: "
                              + json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}
                                           if not trace else {"failed": result["failed"]}), flush=True)
    doc = {
        "command": ["python3", "scripts/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "parent": {"ref": cfg.parent, "sha": parent_sha, "src_sha256": digests["parent"]},
        "change": {"base_sha": _git("rev-parse", "HEAD"), "src_sha256": digests["change"],
                   "uncommitted": _git("status", "--porcelain", "--", "src", "perfbench")},
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "config": vars(cfg),
        "summary": summarize(runs, better),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{cfg.number}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
