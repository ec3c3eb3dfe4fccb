"""The CLI's config checker against jsonschema's Draft 2020-12 validator, its oracle."""

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavechannel import cli

SUBCOMMANDS = ("lemmas", "basis", "evolve", "energy", "radiation", "nlw", "pipeline")

# a value each property takes, for those with no default
GOOD = {
    "gaussian": [0.5, 1.5],
    "R": 1.0,
    "A": [1.0],
    "R1": [2.0],
    "r_max": 72.0,
    "n_r": 3601,
    "probe_radii": [2.0, 4.0, 8.0, 16.0],
}

SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-10, 2000),
    st.integers(),
    st.integers(-10, 2000).map(float),  # integral floats
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, 1.0, 0.5, -0.5]),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["all", "sup_odd", "part2", "part3", "focusing_quintic", "cubic"]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.lists(SCALARS, min_size=4, max_size=9),
    st.lists(st.sampled_from([0.5, 2.0, 8, 16.0]), max_size=6),
    st.dictionaries(st.text(max_size=2), SCALARS, max_size=2),
)


@st.composite
def payloads(draw, schema: dict) -> dict:
    """Each property absent, at a value it takes, or at any value; maybe unknown keys."""
    out = {}
    for key, prop in schema["properties"].items():
        pick = draw(st.sampled_from(["absent", "good", "good", "any"]))
        if pick == "good":
            out[key] = GOOD.get(key, prop.get("default"))
        elif pick == "any":
            out[key] = draw(VALUES)
    out.update(draw(st.dictionaries(st.sampled_from(["bogus", "zz", "a"]), VALUES, max_size=2)))
    return out


@pytest.mark.parametrize("sub", SUBCOMMANDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_checker_agrees_with_jsonschema(sub, data):
    schema = cli._schema(sub)
    payload = data.draw(payloads(schema))
    got = cli._config_error(schema, payload)
    errors = [
        (tuple(e.absolute_path), e.message)
        for e in jsonschema.Draft202012Validator(schema).iter_errors(payload)
    ]
    assert (got is None) == (not errors)
    if len(errors) == 1:
        assert got == errors[0]
    elif errors:
        assert got in errors


@pytest.mark.parametrize(
    "sub,payload,path,message",
    [
        ("nlw", {"nonlinearity": "cubic"}, (), "'gaussian' is a required property"),
        ("evolve", {"n_r": 4, "r_max": 0}, ("r_max",), "0 is less than or equal to the minimum of 0"),
        ("evolve", {"n_r": 4.5}, ("n_r",), "4.5 is not of type 'integer'"),
        ("nlw", {"gaussian": [0.5, 1.5], "probe_radii": [-1, 2, "x"]}, ("probe_radii", 2), "'x' is not of type 'number'"),
    ],
)
def test_of_several_errors_the_one_best_match_picks(sub, payload, path, message):
    # the shallowest path, the greatest of those, then the first in schema
    # order: what jsonschema's best_match reported, so a bad config keeps its text
    assert cli._config_error(cli._schema(sub), payload) == (path, message)


@pytest.mark.parametrize(
    "schema,named",
    [
        ({"type": "array", "uniqueItems": True}, "uniqueItems"),
        ({"type": "object", "properties": {"A": {"type": "array", "items": {"pattern": "x"}}}}, "pattern"),
        ({"type": "object", "additionalProperties": {"type": "number"}}, "additionalProperties"),
        ({"type": ["number", "null"]}, "type"),
    ],
)
def test_an_unchecked_keyword_is_refused(schema, named):
    # a schema edit the checker would not enforce fails when the schema is loaded
    with pytest.raises(ValueError, match=named):
        cli._refuse_unchecked(schema)

