"""The compiled schema checker against ``jsonschema``, its reference.

``repro.obs.schema`` is the only validator ``src/`` has; ``jsonschema``
is installed for the tests alone, as the oracle: on a valid document of
every schema, taken from a real run, and on mutations of it, the two
must return the same verdict.  What a failure *says* is held to
``schema_message_digests.json``: per schema, a sha256 over the
``TraceSchemaError`` text (or ``ok``) of every single edit, recorded with
the closure-tree checker the generated one replaced.  Re-record it (only
for a change that means to alter a message) with ``python -m
tests.oracles record schema`` (see :mod:`tests.oracles`).
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ckpt
import repro.mpi.faults
import repro.obs
from repro.apps.pipeline import matmul_chain
from repro.ckpt import CheckpointPolicy, MemoryStore
from repro.cli import main
from repro.core import ca3dmm_matmul
from repro.core.plan import Ca3dmmPlan
from repro.layout import DistMatrix, dense_random
from repro.machine.model import laptop
from repro.mpi import run_spmd
from repro.mpi.faults import FaultPlan, LinkFault, RankFault
from repro.obs.schema import KEYWORDS, TraceSchemaError, compile as compile_schema, json_path
from tests import oracles

SCHEMAS = {
    name: schema
    for module in (repro.obs, repro.ckpt, repro.mpi.faults)
    for name, schema in sorted(vars(module).items())
    if name.endswith("_SCHEMA") and isinstance(schema, dict)
}


@functools.cache
def checker(name: str):
    """``name``'s schema compiled once per test process (codegen takes ms)."""
    return compile_schema(SCHEMAS[name])


@functools.cache
def documents() -> dict[str, dict]:
    """One valid document per schema, each produced by running the code."""
    m = n = k = 24
    plan = Ca3dmmPlan(m, n, k, 4)

    def multiply(comm):
        a = DistMatrix.from_global(comm, plan.a_dist, dense_random(m, k, 0))
        b = DistMatrix.from_global(comm, plan.b_dist, dense_random(k, n, 1))
        ca3dmm_matmul(a, b)

    run = run_spmd(4, multiply, machine=laptop(), record_events=True)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["-np", "4", "24", "24", "24", "N", "N", "1", "1", "0", "--json"]) == 0
    store = MemoryStore()
    run_spmd(2, lambda comm: matmul_chain(comm, 8, 8, 8, calls=2, store=store,
                                          policy=CheckpointPolicy(1)), machine=laptop())
    faults = FaultPlan(
        seed=3,
        links=(LinkFault(src=0, dst=1, phase="cannon", drop_at=(0, 2), jitter_s=1e-6,
                         drop_prob=0.5),),
        ranks=(RankFault(rank=1, phase="reduce", kill=True),),
    )
    docs = {
        "CHROME_TRACE_SCHEMA": repro.obs.chrome_trace(run),
        "RUN_JSON_SCHEMA": json.loads(out.getvalue()),
        "LEDGER_RECORD_SCHEMA": repro.obs.ledger_record(run, plan, "test", audit_ok=True,
                                                        run_id="0" * 32),
        "CRITPATH_JSON_SCHEMA": repro.obs.critpath_report(run).to_dict(),
        "AUDIT_JSON_SCHEMA": repro.obs.audit_run(run, plan, machine=laptop()).to_dict(),
        "BASELINE_JSON_SCHEMA": repro.obs.capture_baseline(
            run, "t", workload={"m": m, "n": n, "k": k, "nprocs": 4}),
        "MEMPROF_JSON_SCHEMA": repro.obs.memprof_run(run, plan).to_dict(),
        "FAULTPLAN_JSON_SCHEMA": faults.to_dict(),
        "MANIFEST_JSON_SCHEMA": store.latest_manifest(),
    }
    # what a reader of the file sees: tuples are arrays, keys are strings
    return {name: thinned(json.loads(json.dumps(doc))) for name, doc in docs.items()}


def thinned(node):
    """``node`` with every array of objects cut to one object per distinct
    set of keys: the rest are the same to a schema, and ``jsonschema``
    takes 0.1 ms for each."""
    if isinstance(node, dict):
        return {key: thinned(child) for key, child in node.items()}
    if isinstance(node, list):
        if node and all(isinstance(child, dict) for child in node):
            node = {tuple(sorted(child)): child for child in reversed(node)}.values()
        return [thinned(child) for child in node]
    return node


def locations(doc, schema, here=()):
    """Every place in ``doc`` its schema says something about, and one
    level into what it leaves opaque (an unchecked object looks the same
    to both validators all the way down)."""
    yield here
    schema = schema or {}
    if isinstance(doc, dict):
        named, other = schema.get("properties", {}), schema.get("additionalProperties")
        children = [(key, child, named.get(key, other)) for key, child in doc.items()]
    elif isinstance(doc, list):
        children = [(i, child, schema.get("items")) for i, child in enumerate(doc)]
    else:
        return
    for key, child, sub in children:
        yield from locations(child, sub, (*here, key)) if schema else [(*here, key)]


#: Replacement values: every JSON type, both sides of each bound the
#: schemas set, the two spellings of one, and each ``ph`` of the if/then arms.
VALUES = [0, 1, -1, 2, 3, 99, 1.0, 1.5, -0.5, True, None, "", "x", "X", "C", "0" * 32, [], {},
          float("nan")]


def edits(doc, schema):
    """Every single edit of ``doc``: drop a key or an element, swap a
    value, add a property, make an array longer."""
    for path in locations(doc, schema):
        node = functools.reduce(lambda at, key: at[key], path, doc)
        if path:
            yield path, "drop", None
            yield from ((path, "swap", value) for value in VALUES)
        if isinstance(node, dict):
            yield from ((path, "add", value) for value in VALUES)
        elif isinstance(node, list):
            yield from ((path, "append", value) for value in [*node[:1], *VALUES])


def edit(doc, path, op, value):
    """Apply one of :func:`edits` in place."""
    *up, last = path or [None]
    parent = functools.reduce(lambda at, key: at[key], up, doc)
    if op == "drop":
        del parent[last]
    elif op == "swap":
        parent[last] = copy.deepcopy(value)
    elif op == "add":
        (parent[last] if path else doc)["zz_extra"] = copy.deepcopy(value)
    else:
        (parent[last] if path else doc).append(copy.deepcopy(value))


def verdict(check, doc) -> str:
    """``ok``, or the text of the :class:`TraceSchemaError` ``check`` raises."""
    try:
        check(doc)
    except TraceSchemaError as exc:
        return str(exc)
    return "ok"


def accepts(check, doc) -> bool:
    return verdict(check, doc) == "ok"


def message_digest(name: str, run=None) -> str:
    """sha256 over the verdict of every single edit of ``name``'s document."""
    digest, text = hashlib.sha256(), json.dumps(documents()[name])
    for path, op, value in edits(documents()[name], SCHEMAS[name]):
        doc = json.loads(text)
        edit(doc, path, op, value)
        digest.update(verdict(checker(name), doc).encode() + b"\n")
    return digest.hexdigest()


ORACLE = oracles.Oracle("schema", __file__, {
    name: (oracles.Run(functools.partial(message_digest, name)), str) for name in SCHEMAS
}, file="schema_message_digests.json")


@pytest.mark.parametrize("name", sorted(SCHEMAS))
class TestAgainstJsonschema:
    def test_the_real_document_is_valid_for_both(self, name):
        jsonschema = pytest.importorskip("jsonschema")
        assert jsonschema.Draft7Validator(SCHEMAS[name]).is_valid(documents()[name])
        checker(name)(documents()[name])

    def test_every_single_edit_gets_the_same_verdict(self, name):
        jsonschema = pytest.importorskip("jsonschema")
        reference = jsonschema.Draft7Validator(SCHEMAS[name])
        check = checker(name)
        text, verdicts = json.dumps(documents()[name]), set()
        for path, op, value in edits(documents()[name], SCHEMAS[name]):
            doc = json.loads(text)  # a fresh copy, faster than deepcopy
            edit(doc, path, op, value)
            expected = reference.is_valid(doc)
            assert accepts(check, doc) == expected, (path, op, value)
            verdicts.add(expected)
        assert verdicts == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_edits_on_top_of_each_other_get_the_same_verdict(self, name, data):
        jsonschema = pytest.importorskip("jsonschema")
        doc = copy.deepcopy(documents()[name])
        done = []
        for _ in range(data.draw(st.integers(2, 4))):
            done.append(data.draw(st.sampled_from(list(edits(doc, SCHEMAS[name])))))
            edit(doc, *done[-1])
        expected = jsonschema.Draft7Validator(SCHEMAS[name]).is_valid(doc)
        assert accepts(checker(name), doc) == expected, done

    @ORACLE.takes(lambda params: [params["name"]])
    def test_every_single_edit_fails_with_the_recorded_message(self, name):
        ORACLE.check(name)


class TestCompile:
    def test_there_are_nine_schemas_and_each_has_a_document(self):
        assert len(SCHEMAS) == 9 and set(documents()) == set(SCHEMAS)
        assert set(ORACLE.recorded) == set(SCHEMAS)

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_every_schema_of_the_package_compiles(self, name):
        compile_schema(SCHEMAS[name])

    def test_the_schemas_use_every_keyword_and_no_other(self):
        used = {key for schema in SCHEMAS.values() for key in _keywords(schema)}
        assert used - {"$schema", "title", "description", "then"} == set(KEYWORDS)

    @pytest.mark.parametrize("schema, named", [
        ({"oneOf": [{"type": "string"}]}, "oneOf"),
        ({"type": "string", "format": "date-time"}, "format"),
        ({"properties": {"a": {"$ref": "#/definitions/a"}}}, r"#/properties/a.*\$ref"),
        ({"items": {"additionalProperties": False}}, "#/items/additionalProperties"),
        ({"items": [{"type": "integer"}]}, "#/items"),
        ({"then": {"required": ["a"]}}, "then"),
        ({"if": {"required": ["a"]}}, "#/if"),
        ({"type": "int"}, "#/type"),
        ({"enum": [[1]]}, "#/enum"),
    ])
    def test_what_it_cannot_enforce_is_a_type_error_at_compile_time(self, schema, named):
        with pytest.raises(TypeError, match=named):
            compile_schema(schema)

    def test_a_failure_names_path_keyword_and_value(self):
        doc = copy.deepcopy(documents()["CHROME_TRACE_SCHEMA"])
        doc["traceEvents"][1]["tid"] = -7
        event = r"\$\.traceEvents\[1\]"
        with pytest.raises(TraceSchemaError, match=event + r"\.tid: -7 fails 'minimum': 0"):
            repro.obs.validate_chrome_trace(doc)
        del doc["traceEvents"][1]["tid"]
        with pytest.raises(TraceSchemaError, match=event + ": .* fails 'required': 'tid'"):
            repro.obs.validate_chrome_trace(doc)

    @pytest.mark.parametrize("key", ['"); import os; ("', "'''", "\\", "{v}", "v", "c0", "\n"])
    def test_a_property_name_is_data_not_code(self, key):
        schema = {
            "type": "object",
            "required": [key],
            "properties": {key: {"type": "integer", "minimum": 0, "enum": [1, 2]}},
            "additionalProperties": {"type": "string", "pattern": re.escape(key)},
            "allOf": [{"if": {"properties": {key: {"const": 2}}}, "then": {"required": [key + "!"]}}],
        }
        check = compile_schema(schema)
        for doc in ({key: 1}, {key: 1, "x": f"a{key}"}, {key: 2, key + "!": key}):
            check(doc)
        for doc, message in [
            ({key: -1}, f"{json_path([key])}: -1 fails 'minimum': 0"),
            ({key: 3}, f"{json_path([key])}: 3 fails 'enum': [1, 2]"),
            ({}, f"$: {{}} fails 'required': {key!r}"),
            ({key: 1, "x": 3}, "$.x: 3 fails 'type': 'string'"),
            ({key: 1, "x": "a"}, "$.x: 'a' fails 'pattern'"),
            ({key: 2}, f"fails 'required': {key + '!'!r}"),
        ]:
            with pytest.raises(TraceSchemaError, match=re.escape(message)):
                check(doc)

    @pytest.mark.parametrize("value, ok", [(5, True), (50, False), (-50, True), (50.5, False),
                                           ("x", True)])
    def test_an_if_inside_the_condition_of_an_if(self, value, ok):
        """Then ``value <= 10`` holds when (not an integer or ``>= 0``)."""
        schema = {"if": {"if": {"type": "integer"}, "then": {"minimum": 0}},
                  "then": {"maximum": 10}}
        assert accepts(compile_schema(schema), value) is ok
        jsonschema = pytest.importorskip("jsonschema")
        assert jsonschema.Draft7Validator(schema).is_valid(value) is ok

    @pytest.mark.parametrize("schema, value, ok", [
        ({"const": 1}, 1, True), ({"const": 1}, 1.0, True), ({"const": 1}, True, False),
        ({"enum": ["a", 1]}, True, False), ({"enum": ["a", 1]}, "a", True),
        ({"enum": [True]}, 1, False), ({"enum": [True]}, True, True),
        ({"const": None}, None, True), ({"const": None}, 0, False),
        ({"enum": ["a"]}, ["a"], False), ({"const": 0}, False, False),
    ])
    def test_const_and_enum_tell_true_from_one(self, schema, value, ok):
        assert accepts(compile_schema(schema), value) is ok


def _keywords(schema):
    for key, value in schema.items():
        yield key
        if key == "properties":
            for sub in value.values():
                yield from _keywords(sub)
        elif key == "allOf":
            for sub in value:
                yield from _keywords(sub)
        elif key in ("items", "additionalProperties", "if", "then"):
            yield from _keywords(value)
