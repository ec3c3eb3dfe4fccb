#!/usr/bin/env python3
"""Print a sha256 digest of every README artifact and script output.

Runs the README's command lines (the pipeline with the README's JSON
config) and the variants listed beside them through `wavechannel.cli.run`
in a temporary directory, then runs the solver-facing scripts in this
directory with their defaults and captures what they print.  It also
captures the front end's own text: the top-level `--help`, each
`<sub> --help`, and the exit code and stderr of a fixed list of bad
invocations, among them one config file per schema keyword that it
violates.  Each artifact, each script's stdout and each of those
texts gets one `sha256  name` line.  Two checkouts that print the same
lines produce the same bytes, which is the contract a refactor must keep.
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
from typing import Optional

from wavechannel.cli import run

SCRIPTS = Path(__file__).resolve().parent
SUBCOMMANDS = ("lemmas", "basis", "evolve", "energy", "radiation", "nlw", "pipeline")

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
            # the README's radiation line is a Gaussian; this one maps the monopole mode
            "radiation --A 1.0 --out radiation_mode",
            # beyond the README's d = 3: a degree-1 P with a lifted blend, three
            # chains (one of them a velocity chain) and the descriptor's
            # cross-term energy beyond the grid
            "evolve --d 4 --nu 1 --R 1.3 --A 1 --B 0.7 --t-final 2 --out evolve_lifted",
            "evolve --exact --d 7 --A 0.5 1 --B 0.25 --t-final 3 --out evolve_exact_d7",
            "energy --d 5 --A 1 --B 0.3 --cone-radius 2 --out energy_d5",
            # numerical failures (exit 2): the failure JSON and header-only tables
            "evolve --d 7 --A 0 1 --B 0 --r-max 16 --n-r 1601 --t-final 4 --out evolve_blowup",
            "nlw --gaussian 0.5 1.5 --r-max 20 --n-r 501 --t-final 4 --probe-radii 8"
            " --out nlw_contaminated",
            "energy --gaussian 1 1.5 --r-max 8 --n-r 401 --out energy_contaminated",
        ]
    )
    scripts: list[str] = field(
        default_factory=lambda: [
            "channel_balance", "convergence_study", "run_pipeline", "worst_case_recursion",
        ]
    )
    # (name, command line); each is run for its exit code, stdout and stderr
    invocations: list[tuple[str, str]] = field(
        default_factory=lambda: [
            ("help", "--help"),
            *((f"help_{sub}", f"{sub} --help") for sub in SUBCOMMANDS),
            ("no_subcommand", ""),
            ("unknown_subcommand", "nosuch --d 3"),
            ("unknown_flag", "lemmas --nosuch 1"),
            ("bad_choice", "lemmas --variant nope"),
            ("bad_type", "basis --d three"),
            ("out_of_range", "evolve --n-r 4"),
            ("wrong_arity", "radiation --gaussian 1.0"),
            ("pipeline_no_config", "pipeline"),
            ("pipeline_extra_flag", "pipeline --config x.json --t-final 2"),
            ("missing_config", "lemmas --config missing.json"),
            ("refused_exact_gaussian", "evolve --exact --gaussian 1 1.5"),
        ]
    )
    # (name, subcommand, config file contents): one schema keyword violated each
    bad_configs: list[tuple[str, str, dict]] = field(
        default_factory=lambda: [
            ("config_type", "evolve", {"n_r": "x"}),
            ("config_enum", "nlw", {"gaussian": [0.5, 1.5], "nonlinearity": "cubic"}),
            ("config_minimum", "evolve", {"n_r": 4}),
            ("config_exclusive_minimum", "evolve", {"r_max": 0}),
            ("config_exclusive_maximum", "evolve", {"cfl": 1.5}),
            ("config_min_items", "nlw", {"gaussian": [0.5, 1.5], "probe_radii": []}),
            ("config_max_items", "evolve", {"gaussian": [1, 2, 3]}),
            ("config_required", "pipeline", {k: v for k, v in README_PIPELINE.items() if k != "R"}),
            ("config_additional", "lemmas", {"bogus": 1}),
            ("config_items", "nlw", {"gaussian": [0.5, 1.5], "probe_radii": [2.0, -1.0]}),
        ]
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def scratch_dir():
    """A temporary working and output directory, and a fixed help width, for the block."""
    here = os.getcwd()
    saved = {key: os.environ.get(key) for key in ("WAVECHANNEL_OUTDIR", "COLUMNS")}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ.update(WAVECHANNEL_OUTDIR=tmp, COLUMNS="80")
        try:
            yield Path(tmp)
        finally:
            os.chdir(here)
            for key, value in saved.items():
                if value is None:
                    del os.environ[key]
                else:
                    os.environ[key] = value


def command_artifacts(commands: list[str]) -> list[tuple[str, str]]:
    """(digest, name) of every file the command lines write."""
    with scratch_dir() as tmp:
        config = Path("pipeline_config.json")
        config.write_text(json.dumps(README_PIPELINE, indent=2))
        for line in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                run(line.split())
        return [
            (sha256(p.read_bytes()), p.name)
            for p in sorted(tmp.iterdir())
            if p.name != config.name
        ]


def invocation_text(line: str, config: Optional[dict] = None) -> str:
    """Exit code, stdout and stderr of one command line, with `config` saved as config.json."""
    out, err = io.StringIO(), io.StringIO()
    with scratch_dir(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if config is not None:
            Path("config.json").write_text(json.dumps(config))
        code = run(line.split())
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


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
    for name, line in cfg.invocations:
        print(f"{sha256(invocation_text(line).encode())}  cli_{name}.txt")
    for name, sub, config in cfg.bad_configs:
        print(f"{sha256(invocation_text(f'{sub} --config config.json', config).encode())}  cli_{name}.txt")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
