"""JSON Schema compiled to closures: the one validating path of ``repro``.

:func:`compile` turns a schema dict into plain Python closures, once; the
``check(doc)`` it returns raises :class:`TraceSchemaError` naming the JSON
path, the keyword and the value that failed.  It implements exactly the
assertion keywords the repo's schemas use (:data:`KEYWORDS`), with draft-07
semantics as ``jsonschema`` applies them: a bool is neither an integer nor
a number, ``1.0`` is an integer, ``const``/``enum`` tell ``True`` from
``1``, a keyword about numbers, strings, arrays or objects ignores values
of another type, ``pattern`` is ``re.search``, ``additionalProperties``
skips the keys ``properties`` names; ``$schema``/``title``/``description``
are annotations.  Anything else — ``oneOf``, ``format``, ``$ref``, a
boolean schema — is a :class:`TypeError` at compile time naming keyword
and path, so an edited schema can never check less than it says.
``tests/obs/test_schema.py`` compiles every schema of the package and
holds the verdicts against ``jsonschema``, which only the tests install.
"""

from __future__ import annotations

import re
import reprlib
from typing import Any, Callable, Iterable

#: ``check(value)`` is None when valid, else ``[keyword, expected, value,
#: *path innermost-first]``, built on failure only.  A keyword's builder
#: takes (the keyword's value, the schema it sits in, where that is).
Check = Callable[[Any], "list[Any] | None"]

_ANNOTATIONS = frozenset({"$schema", "title", "description"})
_REAL = (int, float)
_SCALAR = (str, int, float, type(None))
_CLASSES: dict[str, tuple[type, ...]] = {
    "null": (type(None),), "boolean": (bool,), "integer": (int,), "number": _REAL,
    "string": (str,), "array": (list,), "object": (dict,),
}


class TraceSchemaError(ValueError):
    """An exported document does not match its schema."""


def json_path(keys: Iterable[Any]) -> str:
    """``$.traceEvents[3].ts`` for the keys from the root down."""
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def compile(schema: dict[str, Any]) -> Callable[[Any], None]:
    """``check(doc)`` for ``schema``; TypeError for what it cannot enforce."""
    root = _compile(schema, "#")

    def check(doc: Any) -> None:
        failure = root(doc)
        if failure:
            keyword, expected, value, *path = failure
            raise TraceSchemaError(f"{json_path(reversed(path))}: {reprlib.repr(value)} "
                                   f"fails {keyword!r}: {reprlib.repr(expected)}")
    return check


def _compile(schema: Any, where: str) -> Check:
    if not isinstance(schema, dict):
        raise TypeError(f"{where}: a schema must be a dict, not {schema!r}")
    checks = []
    for keyword, arg in schema.items():
        if keyword in _ANNOTATIONS or (keyword == "then" and "if" in schema):
            continue  # `then` is compiled by its `if`
        if keyword not in KEYWORDS:
            raise TypeError(f"{where}: unsupported JSON Schema keyword {keyword!r}")
        checks.append(KEYWORDS[keyword](arg, schema, f"{where}/{keyword}"))
    return _every(checks)


def _every(checks: list[Check]) -> Check:
    def check(v):
        for one in checks:
            failure = one(v)
            if failure:
                return failure
    return checks[0] if len(checks) == 1 else check


def _type(arg, schema, where) -> Check:
    try:
        names = [arg] if isinstance(arg, str) else arg
        classes = tuple({c for name in names for c in _CLASSES[name]})
    except (KeyError, TypeError):
        raise TypeError(f"{where}: unknown type {arg!r}") from None
    exact = frozenset(classes)  # holds bool only where "boolean" is named
    whole_floats = int in exact and float not in exact  # 1.0 is an integer

    def check(v):
        if v.__class__ in exact:
            return None
        if whole_floats and isinstance(v, float):
            ok = v.is_integer()
        else:  # an instance of a subclass, which bool is of int
            ok = isinstance(v, classes) and v.__class__ is not bool
        return None if ok else ["type", arg, v]
    return check


def _one_of(keyword: str):
    """``const``/``enum`` of scalars, by JSON equality: 1 is 1.0 and is not True."""
    def build(arg, schema, where) -> Check:
        options = [arg] if keyword == "const" else arg
        if not all(isinstance(option, _SCALAR) for option in options):
            raise TypeError(f"{where}: only scalars are supported, not {arg!r}")
        allowed = {(option.__class__ is bool, option) for option in options}

        def check(v):
            if not (isinstance(v, _SCALAR) and (v.__class__ is bool, v) in allowed):
                return [keyword, arg, v]
        return check
    return build


def _limit(keyword: str, classes, broken: Callable[[Any, Any], bool]):
    """A bound on values of ``classes`` (a bool is no number); the rest pass."""
    def build(arg, schema, where) -> Check:
        def check(v):
            if isinstance(v, classes) and broken(v, arg) and v.__class__ is not bool:
                return [keyword, arg, v]
        return check
    return build


def _required(arg, schema, where) -> Check:
    def check(v):
        if isinstance(v, dict):
            for key in arg:
                if key not in v:
                    return ["required", key, v]
    return check


def _properties(arg, schema, where) -> Check:
    subs = [(key, _compile(sub, f"{where}/{key}")) for key, sub in arg.items()]

    def check(v):
        if isinstance(v, dict):
            for key, sub in subs:
                if key in v:
                    failure = sub(v[key])
                    if failure:
                        failure.append(key)
                        return failure
    return check


def _children(cls: type, pairs: Callable[[Any], Iterable[tuple[Any, Any]]]):
    """One schema for every child of an array, or of an object apart from
    the keys its ``properties`` names."""
    def build(arg, schema, where) -> Check:
        sub, named = _compile(arg, where), frozenset(schema.get("properties", ()))

        def check(v):
            if isinstance(v, cls):
                for key, child in pairs(v):
                    if key not in named:
                        failure = sub(child)
                        if failure:
                            failure.append(key)
                            return failure
        return check
    return build


def _all_of(arg, schema, where) -> Check:
    return _every([_compile(sub, f"{where}/{i}") for i, sub in enumerate(arg)])


def _if(arg, schema, where) -> Check:
    if "then" not in schema:
        raise TypeError(f"{where}: 'if' without 'then' asserts nothing")
    cond = _compile(arg, where)
    then = _compile(schema["then"], where.removesuffix("if") + "then")
    return lambda v: then(v) if cond(v) is None else None


#: Every assertion keyword :func:`compile` enforces.
KEYWORDS: dict[str, Callable[[Any, dict[str, Any], str], Check]] = {
    "type": _type,
    "const": _one_of("const"),
    "enum": _one_of("enum"),
    "minimum": _limit("minimum", _REAL, lambda v, bound: v < bound),
    "maximum": _limit("maximum", _REAL, lambda v, bound: v > bound),
    "exclusiveMinimum": _limit("exclusiveMinimum", _REAL, lambda v, bound: v <= bound),
    "minLength": _limit("minLength", str, lambda v, n: len(v) < n),
    "pattern": _limit("pattern", str, lambda v, rx: re.search(rx, v) is None),
    "required": _required,
    "properties": _properties,
    "additionalProperties": _children(dict, dict.items),
    "items": _children(list, enumerate),
    "minItems": _limit("minItems", list, lambda v, n: len(v) < n),
    "maxItems": _limit("maxItems", list, lambda v, n: len(v) > n),
    "allOf": _all_of,
    "if": _if,  # together with its `then`
}
