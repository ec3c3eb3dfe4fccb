#!/usr/bin/env python3
"""Print a sha256 digest of every README artifact and script output.

Runs the README's command lines (the pipeline with the README's JSON
config), two finite-difference `evolve` variants and three modes beyond
d = 3 through `wavechannel.cli.run` in a temporary directory, then runs the
solver-facing scripts in this directory with their defaults and
captures what they print.  Each artifact and each script's stdout gets
one `sha256  name` line.  Two checkouts that print the same lines
produce the same bytes, which is the contract a refactor must keep.
Run it in the change and in a `git archive` of its parent (with this
file copied into that scripts/), then compare:

    PYTHONPATH=src python3 scripts/artifact_digests.py > after.txt
    diff before.txt after.txt

`lemma_audit.py` is left out, since it prints wall times.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from wavechannel.cli import run

SCRIPTS = Path(__file__).resolve().parent

README_PIPELINE = {
    "R": 1.0,
    "A": [1.0],
    "r_max": 72.0,
    "n_r": 3601,
    "probe_radii": [2.0, 4.0, 8.0, 16.0, 32.0],
}


@dataclass
class DigestConfig:
    commands: list[str] = field(
        default_factory=lambda: [
            "lemmas --trials 1000",
            "basis --d 3 --nu 0 --R 1 --A 1.0 --check part2 part3",
            "evolve --exact --d 3 --A 1.0 --t-final 4",
            "energy --d 3 --A 1.0 --cone-radius 2",
            "radiation --gaussian 1.0 1.5",
            "nlw --gaussian 0.5 1.5 --r-max 32 --probe-radii 4 8",
            "pipeline --config pipeline_config.json",
            # the README's evolve line is exact; these two go through the stepper
            "evolve --d 3 --A 1.0 --t-final 4 --out evolve_fd",
            "evolve --gaussian 1.0 1.5 --out evolve_gaussian",
            # beyond the README's d = 3: a degree-1 P with a lifted blend, three
            # chains (one of them a velocity chain) and the descriptor's
            # cross-term energy beyond the grid
            "evolve --d 4 --nu 1 --R 1.3 --A 1 --B 0.7 --t-final 2 --out evolve_lifted",
            "evolve --exact --d 7 --A 0.5 1 --B 0.25 --t-final 3 --out evolve_exact_d7",
            "energy --d 5 --A 1 --B 0.3 --cone-radius 2 --out energy_d5",
        ]
    )
    scripts: list[str] = field(
        default_factory=lambda: [
            "channel_balance", "convergence_study", "run_pipeline", "worst_case_recursion",
        ]
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_artifacts(commands: list[str]) -> list[tuple[str, str]]:
    """(digest, name) of every file the command lines write."""
    here = os.getcwd()
    saved = os.environ.get("WAVECHANNEL_OUTDIR")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ["WAVECHANNEL_OUTDIR"] = tmp
        try:
            config = Path("pipeline_config.json")
            config.write_text(json.dumps(README_PIPELINE, indent=2))
            for line in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    run(line.split())
            out = [
                (sha256(p.read_bytes()), p.name)
                for p in sorted(Path(tmp).iterdir())
                if p.name != config.name
            ]
        finally:
            os.chdir(here)
            if saved is None:
                del os.environ["WAVECHANNEL_OUTDIR"]
            else:
                os.environ["WAVECHANNEL_OUTDIR"] = saved
    return out


def script_stdout(name: str) -> str:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        module.main([])
    return buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    cfg = DigestConfig()

    for digest, name in command_artifacts(cfg.commands):
        print(f"{digest}  {name}")
    for name in cfg.scripts:
        print(f"{sha256(script_stdout(name).encode())}  {name}.stdout")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
