"""``cli._schema_errors`` checks a config against ``CONFIG_SCHEMA`` with
the semantics of JSON Schema Draft 2020-12, which jsonschema implements
here as the oracle: the same accept/reject decision and the same error
pointers on mutated copies of the reference config."""

import json
import pathlib
import tempfile

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from qmem import cli
from qmem.errors import ConfigError

REFERENCE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "reference_config.json").read_text()
)
# the keywords _schema_errors interprets
IMPLEMENTED = {
    "type", "properties", "additionalProperties", "required",
    "minimum", "exclusiveMinimum", "maximum", "enum", "minItems", "items",
}


def _subschemas(schema):
    yield schema
    for subschema in schema.get("properties", {}).values():
        yield from _subschemas(subschema)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def _pointers(errors):
    return sorted(cli._pointer(path) for path, _ in errors)


ORACLE = jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA)


def _oracle_pointers(document):
    return sorted(cli._pointer(e.absolute_path) for e in ORACLE.iter_errors(document))


def test_config_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(cli.CONFIG_SCHEMA)


def test_validator_implements_every_schema_keyword():
    for schema in _subschemas(cli.CONFIG_SCHEMA):
        assert set(schema) <= IMPLEMENTED, set(schema) - IMPLEMENTED
        assert schema.get("type", "object") in cli._TYPES
        assert schema.get("additionalProperties", False) is False
        # membership with `in` is exact only for strings: True == 1 in Python
        assert all(isinstance(member, str) for member in schema.get("enum", ()))


@pytest.mark.parametrize("document, pointers", [
    (REFERENCE, []),
    ({}, []),
    ([], ["/"]),
    # an integral float is an integer, a bool is no number
    ({"chain": {"mirror_cells_per_side": 5.0}}, []),
    ({"chain": {"mirror_cells_per_side": True}}, ["/chain/mirror_cells_per_side"]),
    ({"bvd": {"C0_F": False, "Cm_F": 1e-19, "Lm_H": 1.0}}, ["/bvd/C0_F"]),
    # every failing keyword: type and minimum
    ({"chain": {"mirror_cells_per_side": -1.5}}, ["/chain/mirror_cells_per_side"] * 2),
    # a keyword that does not apply to the value's type is skipped
    ({"chain": {"mirror_cells_per_side": "5"}}, ["/chain/mirror_cells_per_side"]),
    ({"loss_stack": {}}, ["/loss_stack"]),
    # two missing required keys and one unknown key at the same object
    ({"bvd": {"C0_F": 1e-15, "C0_farads": 1e-15}}, ["/bvd"] * 3),
    ({"loss_stack": []}, ["/loss_stack"]),
    ({"loss_stack": [{"type": "zener"}, {"type": "Zener"}]}, ["/loss_stack/1/type"]),
    ({"shunt": {"Cr_F": 0}, "drive": {"n_s": -0.0}}, ["/shunt/Cr_F"]),
])
def test_draft_2020_12_semantics(document, pointers):
    assert _pointers(cli._schema_errors(document, cli.CONFIG_SCHEMA)) == pointers
    assert _oracle_pointers(document) == pointers


def _names(schema):
    for subschema in _subschemas(schema):
        yield from subschema.get("properties", {})


KEYS = st.sampled_from(sorted(set(_names(cli.CONFIG_SCHEMA)))) | st.text(max_size=4)
SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    # integral floats and the bounds of the schema
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, 5.0, 1e2, 100, 100.0, 100.5, 101, -1, -1e-300]),
    st.sampled_from(["zener", "power_law", "constant", "Zener"]),
    st.text(max_size=4),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(KEYS, children, max_size=3),
    max_leaves=6,
)


def _locations(schema, path=()):
    """(path, subschema) for every place that ``schema`` describes; the
    first item of an array stands for all of them."""
    yield path, schema
    for key, subschema in schema.get("properties", {}).items():
        yield from _locations(subschema, path + (key,))
    if "items" in schema:
        yield from _locations(schema["items"], path + (0,))


LOCATIONS = list(_locations(cli.CONFIG_SCHEMA))


def _edge_values(schema):
    """Wrong types, bools, integral floats, empty containers, values at
    and around each bound of ``schema`` and its enum members."""
    values = [True, False, None, "", "Zener", [], {}, [{}], 5.0, 1e2]
    for keyword in ("minimum", "exclusiveMinimum", "maximum"):
        if keyword in schema:
            bound = schema[keyword]
            values += [bound, float(bound), bound - 1, bound + 1, bound - 0.5, bound + 0.5]
    return values + list(schema.get("enum", ()))


def _at(document, path):
    for step in path:
        document = document[step]
    return document


def test_every_single_edit_agrees_with_jsonschema():
    # each edge value, and a deletion, at each place in the reference config
    delete = object()
    disagreements = []
    for path, schema in LOCATIONS[1:]:
        for value in _edge_values(schema) + [delete]:
            document = json.loads(json.dumps(REFERENCE))
            parent = _at(document, path[:-1])
            if value is delete:
                if isinstance(parent, list) or path[-1] in parent:
                    del parent[path[-1]]
            else:
                parent[path[-1]] = value
            ours = _pointers(cli._schema_errors(document, cli.CONFIG_SCHEMA))
            if ours != _oracle_pointers(document):
                disagreements.append((path, value, ours))
    assert disagreements == []


# each place is kept with probability 5/6, else edited
ACTIONS = ("keep",) * 25 + ("edge", "edge", "random", "delete", "add")


@st.composite
def mutated_configs(draw):
    """The reference config after edits at the places the schema
    describes: a value replaced by an edge value or a random one, a key
    or item deleted (required keys among them) or an unknown key added."""
    holder = [json.loads(json.dumps(REFERENCE))]
    for path, schema in LOCATIONS:
        action = draw(st.sampled_from(ACTIONS))
        where = (0,) + path
        try:
            parent, key = _at(holder, where[:-1]), where[-1]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or replaced this place
        if isinstance(parent, list) and isinstance(key, int):
            present = key < len(parent)
        elif isinstance(parent, dict) and isinstance(key, str):
            present = key in parent
        else:
            continue
        if action == "edge" and (present or isinstance(parent, dict)):
            parent[key] = draw(st.sampled_from(_edge_values(schema)))
        elif action == "random" and (present or isinstance(parent, dict)):
            parent[key] = draw(VALUES)
        elif action == "delete" and present and parent is not holder:
            del parent[key]
        elif action == "add" and present and isinstance(parent[key], dict):
            parent[key][draw(KEYS)] = draw(VALUES)
    return holder[0]


@settings(max_examples=200, deadline=None)
@given(mutated_configs())
def test_validator_agrees_with_jsonschema(document):
    expected = _oracle_pointers(document)
    assert _pointers(cli._schema_errors(document, cli.CONFIG_SCHEMA)) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "config.json"
        path.write_text(json.dumps(document))
        if not expected:
            assert cli.load_config(str(path)) == document
            return
        with pytest.raises(ConfigError) as info:
            cli.load_config(str(path))
    message = str(info.value)
    assert "\n" not in message
    assert all(f"{pointer}: " in message for pointer in expected)
