"""Contract tests for the command line: exit codes, artifacts, determinism."""

import argparse
import ast
import dataclasses
import json
import random
import re
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import oracles
from wavechannel import polylib
from wavechannel import radial_solver as rs
from wavechannel import radiation3 as rad
from wavechannel import cli
from wavechannel.cli import run


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("WAVECHANNEL_OUTDIR", str(tmp_path))
    return tmp_path


def read_json(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text())


def read_csv(outdir: Path, name: str) -> np.ndarray:
    return np.loadtxt(outdir / name, delimiter=",", skiprows=1, ndmin=2)


class TestValidation:
    def test_no_subcommand_exits_1(self, capsys):
        assert run([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_help_exits_0(self):
        assert run(["--help"]) == 0

    def test_missing_config_file_named_in_error(self, capsys):
        assert run(["pipeline", "--config", "missing.json"]) == 1
        assert "config file not found: missing.json" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, outdir, capsys):
        cfg = outdir / "bad.json"
        cfg.write_text(json.dumps({"trials": 5, "bogus": 1}))
        assert run(["lemmas", "--config", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,where,value",
        [
            ("nlw --gaussian 0.5 1.5 --t-final inf", "t_final", "inf"),
            ("evolve --gaussian 0.5 1.5 --r-max nan", "r_max", "nan"),
            ("energy --A 1.0 --cone-radius nan", "cone_radius", "nan"),
            ("radiation --gaussian 0.5 inf", "gaussian/1", "inf"),
            ("nlw --gaussian 0.5 1.5 --probe-radii 2 nan", "probe_radii/1", "nan"),
        ],
    )
    def test_non_finite_numbers_exit_1(self, outdir, capsys, argv, where, value):
        assert run(argv.split()) == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid configuration at {where}: {value} is not a finite number\n"
        assert list(outdir.iterdir()) == []

    def test_non_finite_config_values_exit_1(self, outdir, capsys):
        cfg = outdir / "inf.json"
        cfg.write_text('{"gaussian": [0.5, 1.5], "t_final": Infinity}')
        assert run(["nlw", "--config", str(cfg)]) == 1
        assert "at t_final: inf is not a finite number" in capsys.readouterr().err
        assert [p.name for p in outdir.iterdir()] == ["inf.json"]

    def test_float_count_in_config_exits_1(self, outdir, capsys):
        # the schema takes 801.0 as an integer; the solver config refuses it
        cfg = outdir / "float.json"
        cfg.write_text(json.dumps({"gaussian": [0.5, 1.5], "n_r": 801.0, "t_final": 1.0}))
        assert run(["evolve", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: n_r must be an integer, got 801.0\n"
        assert [p.name for p in outdir.iterdir()] == ["float.json"]

    @pytest.mark.parametrize(
        "config", [{"A": None, "d": 3}, {"out": None, "A": [1.0]}, {"n_r": None, "A": [1.0]}]
    )
    def test_config_null_is_an_absent_key(self, outdir, capsys, config):
        # a null skipped the schema check but reached the handler; the
        # artifacts echo an unset option as null, so a config replays
        cfg = outdir / "c.json"
        results = []
        for doc in (config, {k: v for k, v in config.items() if v is not None}):
            cfg.write_text(json.dumps(doc))
            results.append((run(["energy", "--config", str(cfg)]), *capsys.readouterr()))
        assert results[0] == results[1]

    def test_config_must_be_an_object(self, outdir, capsys):
        cfg = outdir / "list.json"
        cfg.write_text("[1, 2]")
        assert run(["lemmas", "--config", str(cfg)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_malformed_json_config(self, outdir, capsys):
        cfg = outdir / "broken.json"
        cfg.write_text("{not json")
        assert run(["lemmas", "--config", str(cfg)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "energy --gaussian 0.5 1.5 --d 5 --r-max 32",
            "energy --gaussian 0.5 1.5 --nu 1",
            "evolve --gaussian 0.5 1.5 --d 5",
            "evolve --gaussian 0.5 1.5 --B 1",
            "radiation --gaussian 1 1.5 --A 1",
        ],
    )
    def test_gaussian_with_mode_options_exits_1(self, outdir, capsys, argv):
        # a Gaussian is d = 3 data with no mode coefficients; it ran as such
        # while the artifact echoed the mode options
        assert run(argv.split()) == 1
        assert "gaussian data is d = 3 data" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("sub", ["basis", "evolve", "energy", "radiation"])
    def test_no_data_exits_1_naming_the_flags(self, outdir, capsys, sub):
        # A had the default [], which no mode but (2, 0) takes: a run given
        # no data failed on "position coefficients: expected 1, got 0"
        flags = "--A" if sub == "basis" else "--A or --gaussian"
        assert run([sub]) == 1
        assert capsys.readouterr().err == f"error: no data to run on: give {flags}\n"
        assert list(outdir.iterdir()) == []

    def test_out_of_range_flag_exits_1(self, capsys):
        assert run(["evolve", "--n-r", "4"]) == 1
        assert "n_r" in capsys.readouterr().err

    def test_bad_choice_exits_1(self, capsys):
        assert run(["lemmas", "--variant", "nope"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_pipeline_requires_data_keys(self, outdir, capsys):
        cfg = outdir / "short.json"
        cfg.write_text(json.dumps({"R": 1.0, "A": [1.0]}))
        assert run(["pipeline", "--config", str(cfg)]) == 1
        assert "required" in capsys.readouterr().err

    def test_shipped_schemas_are_wellformed(self):
        root = resources.files("wavechannel").joinpath("schemas")
        names = sorted(p.name for p in root.iterdir())
        assert names == [
            "basis.json",
            "energy.json",
            "evolve.json",
            "lemmas.json",
            "nlw.json",
            "pipeline.json",
            "radiation.json",
        ]
        for name in names:
            schema = json.loads(root.joinpath(name).read_text())
            jsonschema.Draft202012Validator.check_schema(schema)
            assert schema["additionalProperties"] is False


SUBCOMMANDS = ("lemmas", "basis", "evolve", "energy", "radiation", "nlw", "pipeline")
FROZEN_DEFAULTS = Path(__file__).parent / "data" / "cli_defaults.json"


class TestSchemas:
    """Each option is written once, in its schema; flags and defaults follow it.

    tests/data/cli_defaults.json holds the starting configuration of each
    subcommand as the artifacts echo it.
    """

    def test_every_default_fits_its_own_property(self):
        for sub in SUBCOMMANDS:
            for key, prop in cli._schema(sub)["properties"].items():
                if "default" in prop:
                    jsonschema.Draft202012Validator(prop).validate(prop["default"])
                assert prop["description"], (sub, key)

    @pytest.mark.parametrize("sub", [s for s in SUBCOMMANDS if s != "pipeline"])
    def test_every_property_is_a_flag(self, sub, capsys):
        assert run([sub, "--help"]) == 0
        text = capsys.readouterr().out
        for key in cli._schema(sub)["properties"]:
            assert f"--{key.replace('_', '-')} " in text, (sub, key)

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_every_property_is_read_by_its_handler(self, sub):
        # a key counts as read when it is a string in the handler or in a
        # cli function that the handler calls by name, directly or in turn;
        # `run` reads "out" for every subcommand
        source = Path(cli.__file__).read_text()
        functions = {f.name: f for f in ast.parse(source).body if isinstance(f, ast.FunctionDef)}
        seen, todo, read = set(), [cli._HANDLERS[sub].__name__], {"out"}
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
                elif isinstance(node, ast.Name) and node.id in functions:
                    todo.append(node.id)
        unread = set(cli._schema(sub)["properties"]) - read
        assert not unread, f"{sub} accepts {sorted(unread)} but never reads them"

    def test_pipeline_takes_only_config_and_out(self, capsys):
        assert run(["pipeline", "--help"]) == 0
        flags = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
        assert flags == {"--help", "--config", "--out"}
        assert run(["pipeline", "--config", "x.json", "--t-final", "2"]) == 1

    def test_starting_config_equals_the_frozen_defaults(self, outdir):
        # json.dumps tells 1 from 1.0, as the artifacts' config echo does.
        # Data comes from a config file: pipeline's and nlw's required keys,
        # and A, which the frozen file lists as null since it has no default.
        frozen = json.loads(FROZEN_DEFAULTS.read_text())
        assert sorted(frozen) == sorted(SUBCOMMANDS)
        data = {
            "pipeline": dict(PIPE_CFG),
            "nlw": {"gaussian": [0.5, 1.5]},
            **{sub: {"A": [1.0]} for sub in ("basis", "evolve", "energy", "radiation")},
        }
        for sub in SUBCOMMANDS:
            given = data.get(sub, {})
            required = [k for k in given if k not in frozen[sub]]
            assert sorted(required) == sorted(cli._schema(sub).get("required", [])), sub
            assert all(frozen[sub][k] is None for k in given if k in frozen[sub]), sub
            config = None
            if given:
                config = str(outdir / f"{sub}_data.json")
                Path(config).write_text(json.dumps(given))
            got = cli._effective_config(sub, argparse.Namespace(config=config))
            assert {k: got.pop(k) for k in given} == given, sub
            want = {k: v for k, v in frozen[sub].items() if k not in given}
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), sub

    def test_empty_probe_radii_in_a_config_exits_1(self, outdir, capsys):
        cfg = outdir / "noprobes.json"
        cfg.write_text(json.dumps({"gaussian": [0.5, 1.5], "probe_radii": []}))
        assert run(["nlw", "--config", str(cfg)]) == 1
        assert "invalid configuration at probe_radii" in capsys.readouterr().err


class TestLemmas:
    def test_small_run_is_clean(self, outdir):
        assert run(["lemmas", "--trials", "25", "--seed", "7"]) == 0
        doc = read_json(outdir, "lemmas.json")
        assert doc["version"] == "wavechannel-0.1.0"
        assert doc["report"]["violations"] == 0
        variants = doc["report"]["variants"]
        assert sorted(variants) == ["deriv_even", "deriv_odd", "sup_even", "sup_odd"]
        for stats in variants.values():
            assert stats["violations"] == 0
            assert stats["min_relative_margin"] >= 0.0

    def test_margin_is_the_smallest_over_the_draws(self, outdir):
        # min over the draws of random.Random(seed) of (rhs - lhs) / rhs, by exact lemma_check
        assert run("lemmas --variant deriv_even --trials 20 --degree-max 6 --seed 5".split()) == 0
        stats = read_json(outdir, "lemmas.json")["report"]["variants"]["deriv_even"]
        rng = random.Random(5)
        checks = [
            polylib.lemma_check(coeffs, "deriv_even", L, l)
            for coeffs, L, l in (polylib.random_lemma_case(rng, 6) for _ in range(20))
        ]
        margins = [float((c.rhs - c.lhs) / c.rhs) for c in checks if c.rhs > 0]
        assert stats["violations"] == 0
        assert stats["min_relative_margin"] == min(margins) >= 0.0

    def test_single_variant(self, outdir):
        assert run(["lemmas", "--variant", "sup_odd", "--trials", "10"]) == 0
        doc = read_json(outdir, "lemmas.json")
        assert list(doc["report"]["variants"]) == ["sup_odd"]

    def test_config_file_sets_trials(self, outdir):
        cfg = outdir / "lem.json"
        cfg.write_text(json.dumps({"trials": 6, "seed": 11}))
        assert run(["lemmas", "--config", str(cfg)]) == 0
        doc = read_json(outdir, "lemmas.json")
        assert doc["config"]["trials"] == 6 and doc["config"]["seed"] == 11

    def test_flag_overrides_config(self, outdir):
        cfg = outdir / "lem.json"
        cfg.write_text(json.dumps({"trials": 6}))
        assert run(["lemmas", "--config", str(cfg), "--trials", "3"]) == 0
        assert read_json(outdir, "lemmas.json")["config"]["trials"] == 3


class TestBasis:
    def test_monopole_norms_and_ratio(self, outdir):
        rc = run(
            "basis --d 3 --nu 0 --R 1 --A 1.0 --check part2 part3".split()
        )
        assert rc == 0
        rep = read_json(outdir, "basis.json")["report"]
        # u0 = 1/r on r > 1, u1 = 0: no angular part, int |u0'|^2 r^2 dr = 1,
        # and the R1 = 2 tail, 1/2, saturates its reference (R/R1) * 1
        assert rep["part2"] == {"angular": 0.0, "du0_norm2": 1.0, "u1_norm2": 0.0}
        assert rep["part3"] == [
            {"R1": 2.0, "tail": 0.5, "reference": 0.5, "ratio": 1.0, "trivial": False}
        ]

    def test_explicit_tail_radii(self, outdir):
        rc = run("basis --d 5 --nu 1 --R 1 --A 1 2 --B 1 --R1 2 4 8".split())
        assert rc == 0
        rows = read_json(outdir, "basis.json")["report"]["part3"]
        assert [row["R1"] for row in rows] == [2.0, 4.0, 8.0]
        tails = [row["tail"] for row in rows]
        assert tails == sorted(tails, reverse=True)


class TestEvolve:
    def test_exact_run_writes_closed_form(self, outdir):
        rc = run(
            "evolve --exact --d 3 --nu 0 --R 1 --A 1.0"
            " --r-max 8 --n-r 33 --t-final 2 --frames 3".split()
        )
        assert rc == 0
        rep = read_json(outdir, "evolve.json")["report"]
        (chain,) = rep["chains"]
        assert chain["kind"] == "position" and chain["k"] == 1 and chain["weight"] == 1.0
        (mono,) = chain["monomials"]
        assert mono == {"coeff": {"num": 1, "den": 1}, "r_power": -1, "t_power": 0}
        table = read_csv(outdir, "evolve.csv")
        assert table.shape == (rep["rows"], 4)
        # static 1/r data: u * r = 1 at every covered node and time
        assert np.allclose(table[:, 2] * table[:, 1], 1.0, rtol=1e-12)
        assert np.all(table[:, 3] == 0.0)

    def test_chain_weights_are_the_mode_coefficients(self, outdir):
        # A = (0.5, 1) weighs the position chains k = 1, 2 and B = (0.25) the velocity chain
        rc = run(
            "evolve --exact --d 7 --A 0.5 1 --B 0.25"
            " --r-max 8 --n-r 33 --t-final 1 --frames 2".split()
        )
        assert rc == 0
        chains = read_json(outdir, "evolve.json")["report"]["chains"]
        assert [(c["kind"], c["k"], c["weight"]) for c in chains] == [
            ("position", 1, 0.5), ("position", 2, 1.0), ("velocity", 1, 0.25)
        ]

    def test_exact_rejects_gaussian_data(self, capsys):
        assert run(["evolve", "--exact", "--gaussian", "1", "2"]) == 1
        assert "basis-backed" in capsys.readouterr().err

    def test_fd_run_stores_snapshots(self, outdir):
        rc = run(
            "evolve --gaussian 1.0 2.0 --r-max 12 --n-r 241"
            " --t-final 1.0 --store-every 40".split()
        )
        assert rc == 0
        rep = read_json(outdir, "evolve.json")["report"]
        assert rep["lifted_dim"] == 3
        table = read_csv(outdir, "evolve.csv")
        assert len(np.unique(table[:, 0])) == rep["stored_times"]
        assert table.shape[1] == 4

    def test_degree_nu_mode_steps_in_lifted_dimension_d_plus_2nu(self, outdir):
        assert run("evolve --d 3 --nu 1 --A 1 --B 0 --r-max 8 --n-r 81 --t-final 0.5".split()) == 0
        assert read_json(outdir, "evolve.json")["report"]["lifted_dim"] == 5

    def test_blown_up_run_exits_2_with_a_header_only_table(self, outdir, capsys):
        # lifted D = 7 blows up before t = 4 on this grid, as in TestEnergy
        rc = run(
            "evolve --d 7 --A 0 1 --B 0 --r-max 16 --n-r 1601 --t-final 4".split()
        )
        assert rc == 2
        assert "blew up" in capsys.readouterr().err
        doc = read_json(outdir, "evolve.json")
        assert "report" not in doc
        assert list(doc["failure"]) == ["reason"]
        assert doc["failure"]["reason"].startswith("the run blew up after t=")
        assert float(doc["failure"]["reason"].rpartition("=")[2]) < 4.0
        assert (outdir / "evolve.csv").read_text() == "t,r,u,ut\n"

    def test_scheme_is_no_longer_an_option(self, outdir, capsys):
        cfg = outdir / "old.json"
        cfg.write_text(json.dumps({"scheme": "leapfrog"}))
        assert run(["evolve", "--config", str(cfg)]) == 1
        assert "scheme" in capsys.readouterr().err
        assert run(["evolve", "--scheme", "leapfrog"]) == 1
        assert not (outdir / "evolve.json").exists()

    def test_csv_uses_17_significant_digits(self, outdir):
        run(
            "evolve --exact --d 3 --A 1.0 --r-max 8 --n-r 33"
            " --t-final 1 --frames 2".split()
        )
        text = (outdir / "evolve.csv").read_text()
        assert text.startswith("t,r,u,ut\n")
        assert "0.80000000000000004" in text  # repr-faithful float format


class TestEnergy:
    def test_static_mode_keeps_cone_energy(self, outdir):
        rc = run(
            "energy --d 3 --nu 0 --R 1 --A 1.0 --r-max 16 --n-r 401"
            " --t-final 2 --cone-radius 2.0".split()
        )
        assert rc == 0
        rep = read_json(outdir, "energy.json")["report"]
        table = read_csv(outdir, "energy.csv")
        assert table[0, 1] == rep["initial"]
        assert table[-1, 1] == rep["final"]
        assert table[:, 1].max() == rep["max"] == rep["initial"]  # E(t) falls as 1/(2 + t)
        # static 1/r data: the energy in r >= r0 + t is exactly 1/(r0 + t)
        t, e = table[:, 0], table[:, 1]
        assert np.allclose(e, 1.0 / (2.0 + t), rtol=1e-3)

    def test_gaussian_series_is_truncated(self, outdir):
        # no descriptor gives the energy beyond r_max, so the series counts
        # the grid alone; the report says nothing that `gaussian` does not
        assert run("energy --gaussian 1 1.5 --r-max 24 --n-r 481 --t-final 2".split()) == 0
        rep = read_json(outdir, "energy.json")["report"]
        assert sorted(rep) == ["final", "initial", "max"]
        assert read_csv(outdir, "energy.csv")[-1, 1] == rep["final"]

    def test_blown_up_run_exits_2(self, outdir, capsys):
        # lifted D = 7 blows up near t = 2.7 on this grid (ROADMAP item 1);
        # a series cut short there must not pass for one that reached t = 4
        rc = run(
            "energy --d 7 --A 0 1 --B 0 --r-max 16 --n-r 1601 --t-final 4".split()
        )
        assert rc == 2
        assert "blew up" in capsys.readouterr().err
        doc = read_json(outdir, "energy.json")
        assert "report" not in doc
        assert list(doc["failure"]) == ["reason"]
        assert doc["failure"]["reason"].startswith("the run blew up after t=")
        assert float(doc["failure"]["reason"].rpartition("=")[2]) < 4.0
        assert (outdir / "energy.csv").read_text() == "t,E_ext\n"


class TestRadiation:
    def test_gaussian_profile(self, outdir):
        rc = run("radiation --gaussian 1.0 1.5 --r-max 16 --n-r 801".split())
        assert rc == 0
        rep = read_json(outdir, "radiation.json")["report"]
        assert rep["charge"] == pytest.approx(0.0, abs=1e-9)
        assert rep["norm2"] > 0
        assert rep["isometry_ratio"] == pytest.approx(1.0, rel=1e-5)
        radii = [row["r"] for row in rep["tails"]]
        assert radii == [1.0, 2.0, 4.0, 8.0]
        tails = [row["tail"] for row in rep["tails"]]
        assert tails == sorted(tails, reverse=True)
        table = read_csv(outdir, "radiation.csv")
        assert table.shape[1] == 2

    def test_gaussian_norm_and_charge_in_closed_form(self, outdir):
        # g(+-r) = (r u0)'/2 for u0 = a exp(-(r/w)^2), u1 = 0: int g ds = [r u0] = 0,
        # and int g^2 ds = (1/2) int r^2 u0'^2 dr = 3 sqrt(pi) a^2 w / (16 sqrt 2)
        a, w = 1.0, 1.5
        assert run(f"radiation --gaussian {a} {w}".split()) == 0
        rep = read_json(outdir, "radiation.json")["report"]
        assert rep["charge"] == pytest.approx(0.0, abs=1e-12)
        norm2 = 3.0 * np.sqrt(np.pi) * a * a * w / (16.0 * np.sqrt(2.0))
        assert rep["norm2"] == pytest.approx(norm2, rel=1e-8)

    def test_monopole_mode_is_radiation_free_outside(self, outdir):
        rc = run("radiation --R 1 --A 1.0 --tail-radii 2 4 8".split())
        assert rc == 0
        rep = read_json(outdir, "radiation.json")["report"]
        assert rep["charge"] == pytest.approx(1.0, rel=1e-3)
        assert all(row["tail"] < 1e-12 for row in rep["tails"])

    def test_zero_data_has_no_isometry_ratio(self, outdir):
        assert run(["radiation", "--A", "0.0"]) == 0
        rep = read_json(outdir, "radiation.json")["report"]
        assert rep["norm2"] == 0.0
        assert rep["isometry_ratio"] is None

    def test_zero_gaussian_has_no_isometry_ratio(self, outdir):
        # zero data from either source is radiation-free and reads null
        assert run("radiation --gaussian 0 1.5".split()) == 0
        rep = read_json(outdir, "radiation.json")["report"]
        assert rep["norm2"] == 0.0 and rep["charge"] == 0.0
        assert rep["isometry_ratio"] is None

    def test_higher_mode_rejected(self, capsys):
        # radiation takes d = 3 data, so it has no flags for any other mode
        assert run("radiation --d 5 --nu 1 --R 1 --A 1 2 --B 1".split()) == 1
        assert "unrecognized arguments: --d 5 --nu 1" in capsys.readouterr().err

    def test_mode_flags_are_unknown(self, outdir, capsys):
        assert run("radiation --d 3".split()) == 1
        assert "unrecognized arguments: --d 3" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []


class TestNlw:
    def test_mode_data_is_refused(self, outdir, capsys):
        # the free chain A/r is no exact ghost for the quintic flow
        assert run("nlw --A 1".split()) == 1
        assert "unrecognized arguments: --A 1" in capsys.readouterr().err
        assert run(["nlw"]) == 1
        assert "'gaussian' is a required property" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_defocusing_run_conserves_energy(self, outdir):
        rc = run(
            "nlw --gaussian 0.5 1.5 --r-max 32 --n-r 801 --t-final 4"
            " --probe-radii 4 8".split()
        )
        assert rc == 0
        rep = read_json(outdir, "nlw.json")["report"]
        assert rep["blown_up"] is False
        assert rep["relative_drift"] < 1e-2
        assert [row["r"] for row in rep["l6_tails"]] == [4.0, 8.0]
        values = [row["value"] for row in rep["l6_tails"]]
        assert values[0] > values[1] >= 0.0
        table = read_csv(outdir, "nlw.csv")
        assert table[0, 1] == pytest.approx(rep["initial_energy"])

    def test_negative_energy_drift_is_relative_to_its_magnitude(self, outdir):
        rc = run(
            "nlw --nonlinearity focusing_quintic --gaussian 2.2 1.5 --r-max 32"
            " --t-final 0.05 --store-every 1".split()
        )
        assert rc == 0
        rep = read_json(outdir, "nlw.json")["report"]
        energy = read_csv(outdir, "nlw.csv")[:, 1]
        assert rep["initial_energy"] == energy[0] < 0
        drift = (energy.max() - energy.min()) / abs(energy[0])
        assert rep["relative_drift"] == drift
        assert drift > 1e-3

    def test_focusing_blowup_exits_2(self, outdir, capsys):
        rc = run(
            "nlw --gaussian 8.0 1.0 --nonlinearity focusing_quintic"
            " --r-max 20 --n-r 501 --t-final 3".split()
        )
        assert rc == 2
        assert "blew up" in capsys.readouterr().err
        doc = read_json(outdir, "nlw.json")
        assert "report" not in doc
        assert "blew up" in doc["failure"]["reason"]

    def test_contaminated_probe_exits_2(self, outdir, capsys):
        # r_max 20 cannot certify a probe at 8 after t = 4 of evolution
        rc = run(
            "nlw --gaussian 0.5 1.5 --r-max 20 --n-r 501 --t-final 4"
            " --probe-radii 8".split()
        )
        assert rc == 2
        assert "contamination" in read_json(outdir, "nlw.json")["failure"]["reason"]


class TestNumericalErrors:
    """Each NumericalError site reaches exit code 2 by its type, through cli.run."""

    def test_contaminated_cone_energy_exits_2(self, outdir):
        # extrapolated ghosts: r_max 12 cannot certify the cone past t of about 4
        rc = run(
            "energy --gaussian 0.5 1.5 --r-max 12 --n-r 301 --t-final 6"
            " --cone-radius 1".split()
        )
        assert rc == 2
        reason = read_json(outdir, "energy.json")["failure"]["reason"]
        assert reason.startswith("outer-edge contamination reaches the diagnostic region")

    def test_failed_energy_run_leaves_no_earlier_table(self, outdir):
        assert run("energy --gaussian 1 1.5 --r-max 40 --n-r 1001 --out e".split()) == 0
        assert len((outdir / "e.csv").read_text().splitlines()) > 1
        assert run("energy --gaussian 1 1.5 --r-max 8 --n-r 401 --out e".split()) == 2
        assert "contamination" in read_json(outdir, "e.json")["failure"]["reason"]
        assert (outdir / "e.csv").read_text() == "t,E_ext\n"

    def test_contaminated_nlw_probe_leaves_a_header_only_table(self, outdir):
        # the energy series is complete before the probe fails: neither its
        # rows nor the earlier run's may stay beside the failure
        grid = "nlw --gaussian 0.5 1.5 --r-max 20 --n-r 501 --t-final 4 --out n"
        assert run(grid.split()) == 0
        assert len((outdir / "n.csv").read_text().splitlines()) > 1
        assert run(f"{grid} --probe-radii 8".split()) == 2
        assert "contamination" in read_json(outdir, "n.json")["failure"]["reason"]
        assert (outdir / "n.csv").read_text() == "t,E_total\n"

    def test_unguarded_site_exits_2_by_its_type(self, outdir, monkeypatch, capsys):
        def refuse(traj):
            raise rs.NumericalError("energy series refused")

        monkeypatch.setattr(rs, "energy_series", refuse)
        assert run("nlw --gaussian 0.5 1.5 --r-max 8 --n-r 81 --t-final 1".split()) == 2
        assert "numerical failure: energy series refused" in capsys.readouterr().err
        assert read_json(outdir, "nlw.json")["failure"] == {"reason": "energy series refused"}
        assert (outdir / "nlw.csv").read_text() == "t,E_total\n"

    def test_failed_pipeline_run_leaves_no_earlier_tables(self, outdir):
        cfg = {
            "R": 1.0, "A": [1.0], "r_max": 16.0, "n_r": 401, "t_final": 1.0,
            "probe_radii": [2.0, 3.0, 4.0, 5.0],
        }
        (outdir / "ok.json").write_text(json.dumps(cfg))
        (outdir / "blowup.json").write_text(
            json.dumps({**cfg, "A": [5.0], "nonlinearity": "focusing_quintic"})
        )
        tables = [outdir / f"p.{ext}.csv" for ext in ("s", "dru0", "l6")]
        assert run(["pipeline", "--config", str(outdir / "ok.json"), "--out", "p"]) == 0
        assert all(len(t.read_text().splitlines()) == 5 for t in tables)
        assert run(["pipeline", "--config", str(outdir / "blowup.json"), "--out", "p"]) == 2
        assert "failure" in read_json(outdir, "p.json")
        assert [t.read_text() for t in tables] == ["r,value\n"] * 3

    def test_pipeline_blowup_exits_2(self, outdir, capsys):
        cfg = outdir / "blowup_config.json"
        cfg.write_text(json.dumps({
            "R": 1.0, "A": [5.0], "r_max": 16.0, "n_r": 401, "t_final": 1.0,
            "nonlinearity": "focusing_quintic", "probe_radii": [2.0, 3.0, 4.0, 5.0],
        }))
        assert run(["pipeline", "--config", str(cfg)]) == 2
        assert "the run blew up after t=" in capsys.readouterr().err
        doc = read_json(outdir, "pipeline.json")
        assert doc["failure"]["reason"].startswith("the run blew up after t=")

    def test_missing_snapshot_exits_2(self, outdir, monkeypatch):
        # No subcommand runs the channel identity yet, so the energy run's
        # cone stage is swapped for it on a run that the blow-up threshold
        # stops at once: the blow-up is named, not a snapshot lookup.
        def identity_on_stopped_run(traj, R):
            cfg = dataclasses.replace(traj.config, blowup_threshold=1e-3)
            data = rs.RadialGridField(
                r=traj.r, u=traj.u[0], ut=traj.ut[0], lifted_dim=3, descriptor=traj.descriptor
            )
            return rad.channel_identity_check(data, cfg, R)

        monkeypatch.setattr(rs, "cone_energy", identity_on_stopped_run)
        assert run("energy --d 3 --A 1.0 --cone-radius 2".split()) == 2
        reason = read_json(outdir, "energy.json")["failure"]["reason"]
        assert reason == "the run blew up after t=0"

    def test_sites_raise_the_typed_error(self):
        assert issubclass(rs.NumericalError, ValueError)
        cfg = rs.SolverConfig(r_max=12.0, n_r=301, t_final=6.0, store_every=10)
        traj = rs.solve_mode_linear(rs.gaussian_bump(cfg, 0.5, 1.5), cfg)
        with pytest.raises(rs.NumericalError):
            rs.cone_energy(traj, 1.0)
        with pytest.raises(rs.NumericalError):
            rad._snapshot_index(traj.times, 100.0)


PIPE_CFG = {
    "R": 1.0,
    "A": [1.0],
    "r_max": 72.0,
    "n_r": 3601,
    "probe_radii": [2.0, 4.0, 8.0, 16.0, 32.0],
}


class TestPipeline:
    def test_canonical_run(self, outdir):
        cfg = outdir / "pipe.json"
        cfg.write_text(json.dumps(PIPE_CFG))
        assert run(["pipeline", "--config", str(cfg)]) == 0
        rep = read_json(outdir, "pipeline.json")["report"]
        assert rep["radiation_tail"]["exponent"] == "inf"
        assert rep["gradient_tail"]["exponent"] == pytest.approx(1.0, abs=0.05)
        assert rep["sixth_power_tail"]["exponent"] >= 1.8
        # no DecayReport is built truncated: ROADMAP items 3 and 13
        assert rep["sixth_power_tail"]["truncated"] is False
        # the run ends on the first stored time at or past t_final 4 (a
        # stored time every 13 steps of dt 0.009), and the cutoff starts
        # beyond the last probe 32 by twice that time plus two cells (dr
        # 0.02), 4 wide
        assert 4.0 <= rep["t_end"] < 4.0 + 13 * 0.009
        c0 = 32.0 + 2.0 * rep["t_end"] + 2.0 * 0.02
        assert rep["cutoff"] == pytest.approx([c0, c0 + 4.0], abs=1e-12)
        assert rep["cutoff"] == pytest.approx([40.23, 44.23], abs=1e-12)
        for key, name in (
            ("radiation_tail", "pipeline.s.csv"),
            ("gradient_tail", "pipeline.dru0.csv"),
            ("sixth_power_tail", "pipeline.l6.csv"),
        ):
            table = read_csv(outdir, name)
            assert table.shape == (5, 2)
            assert list(table[:, 0]) == PIPE_CFG["probe_radii"]
            if key != "radiation_tail":
                # the fit through the table's (r, value) in log-log space
                x, y = np.log(table[:, 0]), np.log(table[:, 1])
                slope, intercept = np.polyfit(x, y, 1)
                resid = np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
                assert rep[key]["exponent"] == pytest.approx(-slope, rel=1e-12)
                assert rep[key]["residual"] == pytest.approx(resid, rel=1e-9, abs=1e-15)
        # all five radiation tails sit at the floor: no fit, no misfit
        assert rep["radiation_tail"]["residual"] == 0.0

    def test_artifacts_are_reproducible(self, outdir, monkeypatch):
        cfg = outdir / "pipe.json"
        cfg.write_text(json.dumps(PIPE_CFG))
        blobs = []
        for sub in ("one", "two"):
            monkeypatch.setenv("WAVECHANNEL_OUTDIR", str(outdir / sub))
            assert run(["pipeline", "--config", str(cfg)]) == 0
            blobs.append(
                {
                    name: (outdir / sub / name).read_bytes()
                    for name in (
                        "pipeline.json",
                        "pipeline.s.csv",
                        "pipeline.dru0.csv",
                        "pipeline.l6.csv",
                    )
                }
            )
        assert blobs[0] == blobs[1]

    def test_config_named_like_an_artifact_is_left_untouched(self, outdir, capsys):
        # the default out is "pipeline", so pipeline.json is its own report
        cfg = outdir / "pipeline.json"
        text = json.dumps(PIPE_CFG)
        cfg.write_text(text)
        assert run(["pipeline", "--config", str(cfg)]) == 1
        assert "overwritten" in capsys.readouterr().err
        assert cfg.read_text() == text
        assert sorted(p.name for p in outdir.iterdir()) == ["pipeline.json"]

    def test_small_grid_fails_cleanly(self, outdir, capsys):
        cfg = outdir / "pipe.json"
        cfg.write_text(
            json.dumps({**PIPE_CFG, "r_max": 40.0, "n_r": 2001})
        )
        assert run(["pipeline", "--config", str(cfg)]) == 1
        assert "grid too small" in capsys.readouterr().err


class TestOutput:
    def test_stdout_matches_artifact(self, outdir, capsys):
        assert run(["lemmas", "--trials", "5"]) == 0
        assert capsys.readouterr().out == (outdir / "lemmas.json").read_text()

    def test_json_is_sorted_and_indented(self, outdir):
        run(["lemmas", "--trials", "5"])
        text = (outdir / "lemmas.json").read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_absolute_out_ignores_env(self, outdir, tmp_path_factory):
        other = tmp_path_factory.mktemp("abs")
        rc = run(["lemmas", "--trials", "5", "--out", str(other / "deep" / "x")])
        assert rc == 0
        assert (other / "deep" / "x.json").exists()
        assert not (outdir / "x.json").exists()

    def test_identical_seed_reproduces_bytes(self, outdir):
        assert run(["lemmas", "--trials", "10", "--seed", "1", "--out", "a"]) == 0
        assert run(["lemmas", "--trials", "10", "--seed", "1", "--out", "b"]) == 0
        a = (outdir / "a.json").read_text().replace('"a"', '"x"')
        b = (outdir / "b.json").read_text().replace('"b"', '"x"')
        assert a == b


def _csv_columns(n_rows: int) -> list[np.ndarray]:
    """Four seeded columns of n_rows floats spanning 1e-300 ... 1e300, both signs."""
    rng = np.random.default_rng(7)
    signs = rng.choice([-1.0, 1.0], size=(4, n_rows))
    return list(signs * 10.0 ** rng.uniform(-300, 300, size=(4, n_rows)))


def _frame_major_columns() -> list[np.ndarray]:
    """An `evolve`-like table: 3 times of 5 radii each, a constant column,
    and a column of +-x pairs of one magnitude beside +-0."""
    t = np.repeat([0.0, 0.1, 0.30000000000000004], 5)
    r = np.tile(np.linspace(1.5, 3.5, 5), 3)
    return [t, r, np.full(15, 1 / 3), np.tile([0.1, -0.1, 0.0, -0.0, -0.1], 3)]


_ACROSS_BLOCKS = 2 * cli._CSV_BLOCK_ROWS + 3

CSV_TABLES = {
    "signed_zeros": [[0.0, -0.0], [-0.0, 0.0]],
    "frame_major": _frame_major_columns(),
    "nan_both_signs": [[np.nan, -np.nan, 1.0], [-np.nan, -1.0, np.nan]],
    "magnitudes_repeat_across_blocks": [
        np.resize([0.1, -0.1, 1 / 3, -0.0, 2.5e-300, -np.inf], _ACROSS_BLOCKS),
        np.resize(np.linspace(-1.0, 1.0, 11) / 7, _ACROSS_BLOCKS),
    ],
    "subnormal": [[5e-324, -5e-324], [np.nextafter(0.0, 1.0), 2.2250738585072014e-308]],
    "extremes": [[1e300, -1e300, 1e-300], [-1e-300, 1.7976931348623157e308, 0.1]],
    "nonfinite": [[np.nan, np.inf, -np.inf], [-np.inf, np.nan, 1.0]],
    "integer_valued": [[1.0, -3.0, 1e16, 2.0**53], [0.0, 12345678.0, -1e22, 7]],
    "empty": [[], []],
    "one_row": [[0.8], [1 / 3]],
    "three_blocks_and_one_row": _csv_columns(3 * cli._CSV_BLOCK_ROWS + 1),
}

# exit code, stdout and stderr must match the parser with every subcommand's flags
PARSER_CASES = [
    ["--help"],
    *([sub, "--help"] for sub in SUBCOMMANDS),
    [],
    ["nosuch", "--d", "3"],
    ["lemmas", "--variant", "nope"],
    ["evolve", "--n-r", "4"],
    ["pipeline"],
]


class TestFrontEnd:
    """CSV bytes and parser text against their full forms in tests/oracles.py."""

    @pytest.mark.parametrize("case", sorted(CSV_TABLES))
    def test_csv_matches_the_cell_by_cell_writer(self, outdir, case):
        columns = CSV_TABLES[case]
        header = ("a", "b", "c", "d")[: len(columns)]
        cli._write_csv(outdir / "new.csv", header, *columns)
        oracles.write_csv_reference(outdir / "old.csv", header, zip(*columns))
        assert (outdir / "new.csv").read_bytes() == (outdir / "old.csv").read_bytes()

    def test_header_only_table(self, outdir):
        cli._write_csv(outdir / "new.csv", ("t", "E_ext"))
        assert (outdir / "new.csv").read_text() == "t,E_ext\n"

    def test_csv_is_streamed_one_block_at_a_time(self, outdir, monkeypatch):
        written = []
        monkeypatch.setattr(cli, "_atomic_write", lambda path, chunks: written.extend(chunks))
        cli._write_csv(outdir / "x.csv", ("t", "r", "u", "ut"), *CSV_TABLES["three_blocks_and_one_row"])
        rows_per_chunk = [chunk.count("\n") for chunk in written]
        assert rows_per_chunk == [1] + [cli._CSV_BLOCK_ROWS] * 3 + [1]

    @pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda a: " ".join(a) or "empty")
    def test_run_matches_the_full_parser(self, argv, capsys, monkeypatch):
        got = run(argv), *capsys.readouterr()
        monkeypatch.setattr(cli, "_parser", lambda _: oracles.build_parser_reference())
        want = run(argv), *capsys.readouterr()
        assert got == want

    def test_cached_parsers_keep_no_state(self, outdir, capsys, monkeypatch):
        assert run("energy --A 1 --cone-radius 3 --out a".split()) == 0
        assert run("energy --A 1 --out b".split()) == 0
        assert read_json(outdir, "b.json")["config"]["cone_radius"] == 1.0
        for sub in SUBCOMMANDS:
            assert run([sub, "--nosuch"]) == 1
        capsys.readouterr()
        helps = [(run([sub, "--help"]), *capsys.readouterr()) for sub in SUBCOMMANDS]
        monkeypatch.setattr(cli, "_parser", lambda _: oracles.build_parser_reference())
        assert helps == [(run([sub, "--help"]), *capsys.readouterr()) for sub in SUBCOMMANDS]

    def test_refused_mode_makes_no_directory(self, outdir):
        assert run("evolve --exact --gaussian 1 1.5 --out made/by/refused/run".split()) == 1
        assert list(outdir.iterdir()) == []

    def test_refused_config_makes_no_directory(self, outdir, capsys):
        # fresh/.. resolves to outdir, so the lemmas artifacts would replace run.json
        cfg = outdir / "run.json"
        cfg.write_text(json.dumps({"trials": 5}))
        assert run(["lemmas", "--config", str(cfg), "--out", "fresh/../run"]) == 1
        assert "overwritten" in capsys.readouterr().err
        assert sorted(p.name for p in outdir.iterdir()) == ["run.json"]
