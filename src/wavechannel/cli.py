"""Command-line front end: every module as a deterministic subcommand.

Subcommands: lemmas, basis, evolve, energy, radiation, nlw, pipeline.
radiation takes d = 3 data (a Gaussian, or the monopole mode R, A), nlw
Gaussian data only, and no subcommand a Gaussian beside mode options.
No default is data: basis, evolve, energy and radiation refuse a run
given neither A nor a Gaussian.
Each option is written once, as a property of schemas/<sub>.json: its
type, range, default and help text live there, and the flags
(--key-name for the property key_name) are generated from it.  Each
accepts a JSON config file (--config), where a null is an absent key;
explicit flags override config values, and pipeline takes only --config
and --out.  The merged config is checked against the schema in this
module, by `_config_error`: it implements the eleven JSON Schema
keywords the schemas use, as Draft 2020-12 reads them (a bool is not a
number, 801.0 is an integer, unknown keys are rejected) and reports
one error by its path and message; a schema with any other keyword is
refused when it is loaded.  The tests hold the checker to a Draft
2020-12 reference validator.  Artifacts are a JSON report
(<out>.json, also echoed to stdout) plus CSV tables, written
atomically: <out>.csv for evolve, energy, radiation and nlw, and
<out>.s.csv, <out>.dru0.csv and <out>.l6.csv for pipeline.  A report
names no table and repeats no config value.  A run whose config file
is named like one of its <out>.* artifacts is refused.  Relative output
paths resolve against $WAVECHANNEL_OUTDIR when it is set.  The output
directory is made with the first artifact, so a refused run writes
nothing.

Exit codes: 0 success, 1 validation error, 2 numerical failure
(blow-up, contaminated diagnostics, violated exact inequality), the
latter with the diagnostic written to the JSON artifact.  `run` alone
writes tables, and only after a handler has returned: exit 1 writes
none, and exit 2 leaves every table of the subcommand header-only.

CSV columns: trajectories (t, r, u, ut); energy series (t, E_ext) or
(t, E_total); radiation profiles (s, g); decay tables (r, value).
Floats are printed with 17 significant digits (%.17g, the bytes of
format(v, ".17g")), so an identical config (lemmas, the one subcommand
that draws, holds its seed there) reproduces artifacts byte for byte.
A table is formatted from its columns one row template per block of
rows, and streamed to disk block by block.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike

from . import __version__
from . import decay_lab as dl
from . import exact_evolution as ev
from . import exterior_basis as eb
from . import polylib
from . import radial_solver as rs
from . import radiation3 as rad

_VERSION = f"wavechannel-{__version__}"


class UsageError(Exception):
    """Bad flags, bad config, or a violated precondition; exit code 1."""


class NumericalFailure(Exception):
    """A run that failed numerically; carries the diagnostic report."""

    def __init__(self, report: dict):
        super().__init__(report.get("reason", "numerical failure"))
        self.report = report


# ---------------------------------------------------------------------------
# plumbing


def _plain(x: Any) -> Any:
    """A report or config as JSON: non-finite floats as strings, Fractions as num/den."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_plain(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    return x


def _dump_json(doc: dict) -> str:
    return json.dumps(_plain(doc), indent=2, sort_keys=True) + "\n"


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Stream the chunks into a temporary file beside `path`, then rename it over `path`.

    The directory is made here, so a run refused before its first
    artifact leaves nothing on disk.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


# rows formatted by one `%`: a table is never held as one string or as all its lines
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header: Sequence[str], *columns: ArrayLike) -> None:
    """The header, then one row per index of the equal-length 1-D float columns.

    Each cell is `%.17g`, the bytes of format(float(v), ".17g"); no
    columns give the header alone.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    n_rows = len(cols[0]) if cols else 0
    row = ",".join(["%.17g"] * len(cols)) + "\n"

    def chunks() -> Iterator[str]:
        yield ",".join(header) + "\n"
        for i in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[i : i + _CSV_BLOCK_ROWS] for c in cols])
            yield (row * len(block)) % tuple(block.ravel().tolist())

    _atomic_write(path, chunks())


def _resolve_base(out: str) -> Path:
    p = Path(out)
    if not p.is_absolute():
        p = Path(os.environ.get("WAVECHANNEL_OUTDIR", ".")) / p
    return p


def _with_ext(base: Path, ext: str) -> Path:
    return base.parent / (base.name + ext)


@lru_cache(maxsize=None)
def _schema(sub: str) -> dict:
    text = resources.files("wavechannel").joinpath(f"schemas/{sub}.json").read_text()
    return _refuse_unchecked(json.loads(text))


# ---------------------------------------------------------------------------
# config checks: the JSON Schema keywords the schemas use, as Draft 2020-12 reads them


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES: dict[str, Callable[[Any], bool]] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}

# keyword -> (fails, message) for a number and its bound
_BOUNDS: dict[str, tuple[Callable[[Any, Any], bool], str]] = {
    "minimum": (lambda v, b: v < b, "less than the minimum"),
    "exclusiveMinimum": (lambda v, b: v <= b, "less than or equal to the minimum"),
    "exclusiveMaximum": (lambda v, b: v >= b, "greater than or equal to the maximum"),
}

_CHECKED = {
    "type", "enum", *_BOUNDS, "items", "minItems", "maxItems",
    "properties", "required", "additionalProperties",
}
_ANNOTATIONS = {"$schema", "title", "description", "default"}


def _refuse_unchecked(schema: dict) -> dict:
    """`schema`, once each keyword in it and its subschemas is an annotation or one
    `_violations` checks, with a value it checks; ValueError names the first that is not."""
    for key, arg in schema.items():
        if key not in _CHECKED | _ANNOTATIONS:
            raise ValueError(f"the config checker does not implement the schema keyword {key!r}")
        if (
            key == "type" and not (isinstance(arg, str) and arg in _TYPES)
            or key == "enum" and not all(isinstance(e, str) for e in arg)  # `in` is then JSON equality
            or key == "additionalProperties" and arg is not False
        ):
            raise ValueError(f"the config checker does not implement {key}: {arg!r}")
    for sub in [*schema.get("properties", {}).values(), *([schema["items"]] if "items" in schema else [])]:
        _refuse_unchecked(sub)
    return schema


def _violations(schema: dict, value: Any, path: tuple = ()) -> Iterator[tuple[tuple, str]]:
    """(path, message) of each violation of `schema` by `value`, in schema order and in the
    reference validator's words."""
    for key, arg in schema.items():
        if key == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif key == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif key in _BOUNDS:
            fails, words = _BOUNDS[key]
            if _is_number(value) and fails(value, arg):
                yield path, f"{value!r} is {words} of {arg!r}"
        elif isinstance(value, list):
            if key == "items":
                for i, item in enumerate(value):
                    yield from _violations(arg, item, path + (i,))
            elif key == "minItems" and len(value) < arg:
                yield path, f"{value!r} " + ("should be non-empty" if arg == 1 else "is too short")
            elif key == "maxItems" and len(value) > arg:
                yield path, f"{value!r} " + ("is expected to be empty" if arg == 0 else "is too long")
        elif isinstance(value, dict):
            if key == "properties":
                for name, sub in arg.items():
                    if name in value:
                        yield from _violations(sub, value[name], path + (name,))
            elif key == "required":
                yield from ((path, f"{name!r} is a required property") for name in arg if name not in value)
            elif key == "additionalProperties":
                extra = sorted(name for name in value if name not in schema.get("properties", {}))
                if extra:
                    names = ", ".join(repr(name) for name in extra)
                    verb = "was" if len(extra) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"


def _config_error(schema: dict, payload: Any) -> Optional[tuple[tuple, str]]:
    """The violation the reference validator reports first, or None: the shallowest
    path, the greatest of those, and the first of its violations in schema order."""
    return max(_violations(schema, payload), key=lambda e: (-len(e[0]), e[0]), default=None)


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        loaded = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise UsageError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(loaded, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return loaded


def _check_config_survives(config_path: Optional[str], base: Path) -> None:
    """Refuse a run whose <out>.* artifacts would replace its own config file."""
    if config_path is None:
        return
    cfg = Path(config_path).resolve()
    if cfg.parent == base.parent.resolve() and cfg.name.startswith(base.name + "."):
        raise UsageError(
            f"config file {config_path} would be overwritten by the artifacts "
            f"{base.name}.*; choose another --out or config file name"
        )


# ---------------------------------------------------------------------------
# argument wiring, generated from the schemas

_FLAG_TYPES = {"integer": int, "number": float, "string": str}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _add_schema_flags(p: argparse.ArgumentParser, schema: dict) -> None:
    """One flag per schema property: --key-name, typed, ranged and described there."""
    for key, prop in schema["properties"].items():
        kw: dict[str, Any] = {"help": prop["description"]}
        if prop.get("type") == "boolean":
            kw.update(action="store_const", const=True)
        else:
            item = prop["items"] if prop.get("type") == "array" else prop
            if "type" in item:
                kw["type"] = _FLAG_TYPES[item["type"]]
            if "enum" in item:
                kw["choices"] = item["enum"]
            if prop.get("type") == "array":
                lo = prop.get("minItems", 0)
                kw["nargs"] = lo if lo == prop.get("maxItems") else "+" if lo >= 1 else "*"
        p.add_argument("--" + key.replace("_", "-"), **kw)


@lru_cache(maxsize=None)
def _parser(chosen: Optional[str]) -> _Parser:
    """All seven subcommands with their help, and flags only for the chosen one;
    built once per process, since parsing leaves nothing in it."""
    parser = _Parser(prog="wavechannel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand")
    for name in _HANDLERS:
        schema = _schema(name)
        p = sub.add_parser(name, help=schema["description"])
        if name != chosen:
            continue
        if name == "pipeline":
            p.add_argument("--config", required=True, help="JSON config file (required)")
            p.add_argument("--out", help=schema["properties"]["out"]["description"])
        else:
            _add_schema_flags(p, schema)
            p.add_argument("--config", help="JSON config file, schema-validated")
    return parser


def _effective_config(sub: str, args: argparse.Namespace) -> dict:
    """Schema defaults (None where there is none), then the config file, then flags."""
    props = _schema(sub)["properties"]
    cfg = {key: copy.deepcopy(prop.get("default")) for key, prop in props.items()}
    if args.config is not None:
        # a null is an absent key: the artifacts echo an unset option as null
        cfg.update((k, v) for k, v in _load_config(args.config).items() if v is not None)
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    payload = {k: v for k, v in cfg.items() if v is not None}
    error = _config_error(_schema(sub), payload)
    if error is not None:
        where = "/".join(str(part) for part in error[0]) or "config"
        raise UsageError(f"invalid configuration at {where}: {error[1]}")
    # flags parse "inf" and "nan", and JSON configs may spell them, but no schema bound refuses NaN
    for key, value in payload.items():
        items = value if isinstance(value, list) else [value]
        for i, v in enumerate(items):
            if isinstance(v, float) and not math.isfinite(v):
                where = f"{key}/{i}" if isinstance(value, list) else key
                raise UsageError(f"invalid configuration at {where}: {v!r} is not a finite number")
    # Gaussian data is d = 3 with no mode coefficients (R always holds a value: not checked)
    mode_set = cfg.get("d", 3) != 3 or cfg.get("nu") or cfg.get("A") or cfg.get("B")
    if cfg.get("gaussian") is not None and mode_set:
        raise UsageError("gaussian data is d = 3 data and takes no d, nu, A or B")
    # no default is data, and the schema keywords cannot say "A or gaussian"
    if "A" in props and cfg["A"] is None and cfg.get("gaussian") is None:
        flags = "--A or --gaussian" if "gaussian" in props else "--A"
        raise UsageError(f"no data to run on: give {flags}")
    return cfg


# ---------------------------------------------------------------------------
# data construction shared by the run-style subcommands


def _mode_from_cfg(cfg: dict) -> eb.ExteriorModeData:
    return eb.build_exterior_mode(
        eb.ModeSpec(cfg["d"], cfg["nu"]), cfg["R"], A=cfg["A"], B=cfg["B"]
    )


def _field_from_cfg(cfg: dict, config: rs.SolverConfig) -> rs.RadialGridField:
    if cfg.get("gaussian") is not None:
        return rs.gaussian_bump(config, *cfg["gaussian"])
    return rs.lifted_field_from_mode(_mode_from_cfg(cfg), config)


def _solver_config(cfg: dict, **overrides: Any) -> rs.SolverConfig:
    keys = ("r_max", "n_r", "t_final", "cfl", "store_every")
    return rs.SolverConfig(**{key: cfg[key] for key in keys}, **overrides)


# ---------------------------------------------------------------------------
# handlers


def _run_lemmas(cfg: dict) -> tuple[dict, dict]:
    variants = polylib.VARIANTS if cfg["variant"] == "all" else (cfg["variant"],)
    rng = random.Random(cfg["seed"])
    per: dict[str, dict] = {}
    total = 0
    for variant in variants:
        violations = 0
        worst: Optional[float] = None
        for _ in range(cfg["trials"]):
            coeffs, L, l = polylib.random_lemma_case(rng, cfg["degree_max"])
            chk = polylib.lemma_check(coeffs, variant, L, l)
            if not chk.holds:
                violations += 1
            if chk.rhs > 0:
                margin = float((chk.rhs - chk.lhs) / chk.rhs)
                worst = margin if worst is None else min(worst, margin)
        per[variant] = {"violations": violations, "min_relative_margin": worst}
        total += violations
    report = {"violations": total, "variants": per}
    if total:
        report["reason"] = "an exact inequality failed on sampled data"
        raise NumericalFailure(report)
    return report, {}


def _run_basis(cfg: dict) -> tuple[dict, dict]:
    mode = _mode_from_cfg(cfg)
    report: dict[str, Any] = {}
    for item in cfg["check"]:
        if item == "part2":
            n = eb.series_norms(mode)
            report["part2"] = {
                "angular": n.angular,
                "u1_norm2": n.u1_norm2,
                "du0_norm2": n.du0_norm2,
            }
        else:
            radii = cfg["R1"] if cfg["R1"] is not None else [2.0 * cfg["R"]]
            report["part3"] = [
                {
                    "R1": R1,
                    "tail": b.tail,
                    "reference": b.reference,
                    "ratio": b.ratio,
                    "trivial": b.trivial,
                }
                for R1 in radii
                for b in (eb.decay_bound_check(mode, R1),)
            ]
    return report, {}


def _chain_terms(desc: ev.ExteriorDescriptor) -> list[dict]:
    return [
        {
            "weight": weight,
            "k": sol.k,
            "kind": sol.kind,
            "monomials": [
                {"coeff": c, "t_power": a, "r_power": b}
                for (c, a, b) in sol.monomials()
            ],
        }
        for weight, sol in desc.terms
    ]


def _run_evolve(cfg: dict) -> tuple[dict, dict]:
    if cfg["exact"]:
        if cfg.get("gaussian") is not None:
            raise UsageError("exact evolution needs basis-backed data, not a gaussian")
        mode = _mode_from_cfg(cfg)
        desc = ev.descriptor_for_mode(mode)
        r = np.linspace(0.0, cfg["r_max"], cfg["n_r"])
        times = np.linspace(0.0, cfg["t_final"], cfg["frames"])
        frames = [np.empty(0)] * 4  # t, r, u, ut pieces: one empty set, then one per covered frame
        for t in times:
            cov = desc.covers(r, float(t))
            if np.any(cov):
                vals = desc.eval(r[cov], float(t))
                frames += (np.full(np.count_nonzero(cov), t), r[cov], vals.u, vals.ut)
        columns = [np.concatenate(frames[k::4]) for k in range(4)]
        return {"chains": _chain_terms(desc), "rows": len(columns[0])}, {".csv": columns}
    config = _solver_config(cfg)
    fld = _field_from_cfg(cfg, config)
    traj = rs.solve_mode_linear(fld, config)
    _refuse_blow_up(traj)
    n_snap, n_r = traj.u.shape
    columns = (np.repeat(traj.times, n_r), np.tile(traj.r, n_snap), traj.u.ravel(), traj.ut.ravel())
    return {"lifted_dim": fld.lifted_dim, "stored_times": len(traj.times)}, {".csv": columns}


def _refuse_blow_up(traj: rs.Trajectory) -> None:
    """Exit 2 on a run that blew up, naming its last stored time."""
    if traj.blown_up:
        t_last = float(traj.times[-1])
        raise NumericalFailure(
            {"reason": f"the run blew up after t={t_last:g}", "last_stored_time": t_last}
        )


def _run_energy(cfg: dict) -> tuple[dict, dict]:
    config = _solver_config(cfg)
    fld = _field_from_cfg(cfg, config)
    traj = rs.solve_mode_linear(fld, config)
    _refuse_blow_up(traj)
    series = rs.cone_energy(traj, cfg["cone_radius"])
    return {
        "initial": float(series.values[0]),
        "final": float(series.values[-1]),
        "max": float(np.max(series.values)),
        "truncated": series.truncated,
    }, {".csv": (series.times, series.values)}


def _run_radiation(cfg: dict) -> tuple[dict, dict]:
    r = np.linspace(0.0, cfg["r_max"], cfg["n_r"])
    if cfg.get("gaussian") is not None:
        amp, width = cfg["gaussian"]
        u0, u1, du0 = amp * np.exp(-((r / width) ** 2)), np.zeros_like(r), None
    else:
        mode = eb.build_exterior_mode(eb.ModeSpec(3, 0), cfg["R"], A=cfg["A"])
        vals = eb.eval_extended(mode, r)
        u0, u1, du0 = vals.u0, vals.u1, vals.du0_dr
    profile = rad.forward_map(r, u0, u1, du0=du0)
    try:
        isometry: Optional[float] = rad.isometry_ratio(profile, r, u0, u1, du0=du0)
    except ValueError:
        isometry = None  # radiation-free data has no ratio
    return {
        "charge": profile.mean(),
        "norm2": profile.norm2(),
        "isometry_ratio": isometry,
        "tails": [{"r": x, "tail": rad.tail_S(profile, x)} for x in cfg["tail_radii"]],
    }, {".csv": (profile.s, profile.g)}


def _run_nlw(cfg: dict) -> tuple[dict, dict]:
    config = _solver_config(cfg, nonlinearity=cfg["nonlinearity"])
    traj = rs.solve_quintic(rs.gaussian_bump(config, *cfg["gaussian"]), config)
    _refuse_blow_up(traj)
    series = rs.energy_series(traj)
    drift = float((np.max(series) - np.min(series)) / abs(series[0])) if series[0] != 0 else 0.0
    report: dict[str, Any] = {
        "blown_up": False,
        "initial_energy": float(series[0]),
        "relative_drift": drift,
    }
    if cfg["probe_radii"] is not None:
        tails = rs.l6_tail(traj, cfg["probe_radii"])
        report["l6_tails"] = [
            {"r": p, "value": float(v)} for p, v in zip(cfg["probe_radii"], tails)
        ]
    return report, {".csv": (traj.times, series)}


def _run_pipeline(cfg: dict) -> tuple[dict, dict]:
    mode = eb.build_exterior_mode(eb.ModeSpec(3, 0), cfg["R"], A=cfg["A"])
    config = rs.SolverConfig(
        r_max=cfg["r_max"], n_r=cfg["n_r"], t_final=cfg["t_final"]
    )
    fld = rs.lifted_field_from_mode(mode, config)
    rep = dl.nonlinear_decay_pipeline(
        fld, cfg["nonlinearity"], cfg["probe_radii"], t_final=cfg["t_final"]
    )
    out: dict[str, Any] = {"cutoff": list(rep.cutoff), "t_end": rep.t_end}
    columns = {}
    reports = {
        ".s.csv": ("radiation_tail", rep.s_report),
        ".dru0.csv": ("gradient_tail", rep.dr_u0_report),
        ".l6.csv": ("sixth_power_tail", rep.l6_report),
    }
    for ext, (key, table) in reports.items():
        out[key] = {
            "exponent": table.exponent,
            "residual": table.residual,
            "truncated": table.truncated,
        }
        columns[ext] = (table.r, table.values)
    return out, columns


# config -> (report, table columns by extension)
_HANDLERS: dict[str, Callable[[dict], tuple[dict, dict]]] = {
    "lemmas": _run_lemmas,
    "basis": _run_basis,
    "evolve": _run_evolve,
    "energy": _run_energy,
    "radiation": _run_radiation,
    "nlw": _run_nlw,
    "pipeline": _run_pipeline,
}

# each subcommand's tables, extension -> header, all of them written by `run`
_TABLES: dict[str, dict[str, tuple[str, ...]]] = {
    "lemmas": {},
    "basis": {},
    "evolve": {".csv": ("t", "r", "u", "ut")},
    "energy": {".csv": ("t", "E_ext")},
    "radiation": {".csv": ("s", "g")},
    "nlw": {".csv": ("t", "E_total")},
    "pipeline": {ext: ("r", "value") for ext in (".s.csv", ".dru0.csv", ".l6.csv")},
}


# ---------------------------------------------------------------------------
# entry points


def _emit(sub: str, cfg: dict, body: dict, base: Path, key: str) -> str:
    doc = {"subcommand": sub, "version": _VERSION, "config": cfg, key: body}
    text = _dump_json(doc)
    _atomic_write(_with_ext(base, ".json"), (text,))
    return text


def run(argv: Sequence[str]) -> int:
    # the first argument naming a subcommand chooses it, since no top-level option takes a value
    parser = _parser(next((a for a in argv if a in _HANDLERS), None))
    try:
        args = parser.parse_args(list(argv))
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 1
    sub = args.subcommand
    try:
        cfg = _effective_config(sub, args)
        base = _resolve_base(cfg["out"])
        _check_config_survives(args.config, base)
        body, columns = _HANDLERS[sub](cfg)
        for ext, header in _TABLES[sub].items():
            _write_csv(_with_ext(base, ext), header, *columns[ext])
        sys.stdout.write(_emit(sub, cfg, body, base, "report"))
        return 0
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    # before ValueError: a NumericalError is one
    except (NumericalFailure, rs.NumericalError) as e:
        for ext, header in _TABLES[sub].items():
            _write_csv(_with_ext(base, ext), header)  # no earlier run's rows, nor this one's
        failure = e.report if isinstance(e, NumericalFailure) else {"reason": str(e)}
        sys.stdout.write(_emit(sub, cfg, failure, base, "failure"))
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
