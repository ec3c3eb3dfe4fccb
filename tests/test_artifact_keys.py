"""Every key a README artifact prints names the test that pins it (ROADMAP item 13).

KEYS maps each leaf key of the seven README artifacts, and of the
stepped `evolve` report, to the node id of the test that pins its value
or its invariant.  A key is its path below the document: dict keys
joined by ".", a list of objects marked "[]" and counted once.  The
`config` echo is left out.  The runs use small grids, since the key set
does not depend on size.
"""

import ast
import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from wavechannel import __version__, cli, polylib

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "lemmas": "lemmas --trials 2",
    "basis": "basis --d 3 --nu 0 --R 1 --A 1.0 --check part2 part3",
    "evolve": "evolve --exact --d 3 --A 1.0 --r-max 8 --n-r 33 --t-final 1 --frames 2",
    "evolve_stepped": "evolve --d 3 --A 1.0 --r-max 8 --n-r 81 --t-final 0.5",
    "energy": "energy --d 3 --A 1.0 --cone-radius 2 --r-max 8 --n-r 81 --t-final 0.5",
    "radiation": "radiation --gaussian 1.0 1.5 --r-max 16 --n-r 161",
    "nlw": "nlw --gaussian 0.5 1.5 --r-max 16 --n-r 161 --t-final 0.5 --probe-radii 4 8",
    "pipeline": "pipeline --config pipeline_config.json",
}
PIPELINE = {"R": 1.0, "A": [1.0], "r_max": 16.0, "n_r": 401, "t_final": 1.0, "probe_radii": [2.0, 3.0, 4.0, 5.0]}

ENVELOPE = "tests/test_artifact_keys.py::test_every_report_names_its_subcommand_and_version"
LEMMAS = "tests/test_cli.py::TestLemmas::"
EVOLVE = "tests/test_cli.py::TestEvolve::"
CANONICAL_PIPELINE = "tests/test_cli.py::TestPipeline::test_canonical_run"
TAILS = ("radiation_tail", "gradient_tail", "sixth_power_tail")

KEYS: dict[str, dict[str, str]] = {
    "lemmas": {
        "report.violations": LEMMAS + "test_small_run_is_clean",
        **{f"report.variants.{v}.violations": LEMMAS + "test_small_run_is_clean" for v in polylib.VARIANTS},
        **{
            f"report.variants.{v}.min_relative_margin": LEMMAS + "test_margin_is_the_smallest_over_the_draws"
            for v in polylib.VARIANTS
        },
    },
    "basis": {
        f"report.{key}": "tests/test_cli.py::TestBasis::test_monopole_norms_and_ratio"
        for key in (
            "part2.angular", "part2.du0_norm2", "part2.u1_norm2",
            "part3[].R1", "part3[].tail", "part3[].reference", "part3[].ratio", "part3[].trivial",
        )
    },
    "evolve": {
        "report.chains[].k": EVOLVE + "test_chain_weights_are_the_mode_coefficients",
        "report.chains[].kind": EVOLVE + "test_chain_weights_are_the_mode_coefficients",
        "report.chains[].weight": EVOLVE + "test_chain_weights_are_the_mode_coefficients",
        "report.chains[].monomials[].coeff.num": EVOLVE + "test_exact_run_writes_closed_form",
        "report.chains[].monomials[].coeff.den": EVOLVE + "test_exact_run_writes_closed_form",
        "report.chains[].monomials[].r_power": EVOLVE + "test_exact_run_writes_closed_form",
        "report.chains[].monomials[].t_power": EVOLVE + "test_exact_run_writes_closed_form",
        "report.rows": EVOLVE + "test_exact_run_writes_closed_form",
    },
    "evolve_stepped": {
        "report.lifted_dim": EVOLVE + "test_degree_nu_mode_steps_in_lifted_dimension_d_plus_2nu",
        "report.stored_times": EVOLVE + "test_fd_run_stores_snapshots",
    },
    "energy": {
        "report.initial": "tests/test_cli.py::TestEnergy::test_static_mode_keeps_cone_energy",
        "report.final": "tests/test_cli.py::TestEnergy::test_static_mode_keeps_cone_energy",
        "report.max": "tests/test_cli.py::TestEnergy::test_static_mode_keeps_cone_energy",
    },
    "radiation": {
        "report.charge": "tests/test_cli.py::TestRadiation::test_gaussian_norm_and_charge_in_closed_form",
        "report.norm2": "tests/test_cli.py::TestRadiation::test_gaussian_norm_and_charge_in_closed_form",
        "report.isometry_ratio": "tests/test_cli.py::TestRadiation::test_gaussian_profile",
        "report.tails[].r": "tests/test_cli.py::TestRadiation::test_gaussian_profile",
        "report.tails[].tail": "tests/test_cli.py::TestRadiation::test_gaussian_profile",
    },
    "nlw": {
        "report.blown_up": "tests/test_cli.py::TestNlw::test_defocusing_run_conserves_energy",
        "report.initial_energy": "tests/test_cli.py::TestNlw::test_negative_energy_drift_is_relative_to_its_magnitude",
        "report.relative_drift": "tests/test_cli.py::TestNlw::test_negative_energy_drift_is_relative_to_its_magnitude",
        "report.l6_tails[].r": "tests/test_cli.py::TestNlw::test_defocusing_run_conserves_energy",
        "report.l6_tails[].value": "tests/test_cli.py::TestNlw::test_defocusing_run_conserves_energy",
    },
    "pipeline": {
        "report.cutoff": CANONICAL_PIPELINE,
        "report.t_end": CANONICAL_PIPELINE,
        **{f"report.{tail}.{key}": CANONICAL_PIPELINE for tail in TAILS for key in ("exponent", "residual")},
        "report.sixth_power_tail.truncated": CANONICAL_PIPELINE,
    },
}
for keys in KEYS.values():
    keys.update(subcommand=ENVELOPE, version=ENVELOPE)

# keys that read false on every run that writes a report, and what removes each
ALWAYS_FALSE = {
    ("nlw", "report.blown_up"): "ROADMAP item 8 drops perfbench's read of it, then item 13 the key",
    ("pipeline", "report.sixth_power_tail.truncated"): "ROADMAP item 8 drops perfbench's read of it, then item 3 decides it",
}

# every type a report or config echo hands to cli._plain
PLAIN_TYPES = {dict, list, str, int, float, bool, type(None), Fraction}


def leaf_keys(x, path: str = ""):
    if isinstance(x, dict):
        for key, value in x.items():
            yield from leaf_keys(value, f"{path}.{key}" if path else key)
    elif isinstance(x, list) and x and all(isinstance(v, dict) for v in x):
        for value in x:
            yield from leaf_keys(value, path + "[]")
    else:
        yield path


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """name -> (exit code, artifact JSON), and the types that reached cli._plain."""
    out = tmp_path_factory.mktemp("artifacts")
    (out / "pipeline_config.json").write_text(json.dumps(PIPELINE))
    seen: set[type] = set()
    plain = cli._plain

    def probe(x):
        seen.add(type(x))
        return plain(x)

    docs = {}
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(cli, "_plain", probe)
        mp.chdir(out)
        for name, line in RUNS.items():
            code = cli.run(line.split() + ["--out", str(out / name)])
            docs[name] = (code, json.loads((out / f"{name}.json").read_text()))
    return docs, seen


def test_every_key_is_in_the_table(artifacts):
    docs, _ = artifacts
    assert sorted(docs) == sorted(KEYS)
    for name, (code, doc) in docs.items():
        assert code == 0, name
        keys = {key for key in leaf_keys(doc) if not key.startswith("config")}
        untested, stale = sorted(keys - set(KEYS[name])), sorted(set(KEYS[name]) - keys)
        assert not untested, f"{name}: keys without a test: {untested}"
        assert not stale, f"{name}: table entries no artifact has: {stale}"


def _resolves(node_id: str) -> bool:
    """The node id names a test function, in a class or not, in a file of the repo."""
    path, *names = node_id.split("::")
    if not (ROOT / path).is_file() or not names or not names[-1].startswith("test_"):
        return False
    scope = ast.parse((ROOT / path).read_text()).body
    for name in names:
        found = [n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name]
        if not found:
            return False
        scope = found[0].body
    return isinstance(found[0], ast.FunctionDef)


def test_every_entry_names_a_test():
    unresolved = sorted({node for keys in KEYS.values() for node in keys.values() if not _resolves(node)})
    assert not unresolved, unresolved


def test_the_resolver_refuses_what_is_no_test():
    assert _resolves(ENVELOPE) and _resolves(CANONICAL_PIPELINE)
    assert not _resolves("tests/test_cli.py::TestPipeline::test_no_such_run")
    assert not _resolves("tests/test_cli.py::TestPipeline")
    assert not _resolves("tests/test_cli.py::read_json")
    assert not _resolves("tests/no_such_file.py::test_x")


def test_always_false_keys_are_entries_and_read_false(artifacts):
    docs, _ = artifacts
    for (name, key), removal in ALWAYS_FALSE.items():
        assert key in KEYS[name] and "ROADMAP item" in removal
        value = docs[name][1]
        for part in key.split("."):
            value = value[part]
        assert value is False, (name, key)


def test_every_report_names_its_subcommand_and_version(artifacts):
    docs, _ = artifacts
    for name, (_, doc) in docs.items():
        assert sorted(doc) == ["config", "report", "subcommand", "version"]
        assert doc["subcommand"] == RUNS[name].split()[0]
        assert doc["version"] == f"wavechannel-{__version__}"


def test_only_plain_types_reach_the_json_writer(artifacts):
    # cli._plain turns non-finite floats and Fractions into JSON, and
    # passes dicts, lists and JSON scalars on; no array or numpy scalar
    _, seen = artifacts
    assert seen <= PLAIN_TYPES, seen - PLAIN_TYPES
    assert {float, Fraction, type(None), bool} <= seen
