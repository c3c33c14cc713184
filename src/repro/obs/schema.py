"""JSON Schema compiled to Python source: the one validating path of ``repro``.

:func:`compile` turns a schema dict into the source of one function and
runs it through ``exec``, once; the ``check(doc)`` it returns raises
:class:`TraceSchemaError` naming the JSON path, the keyword and the value
that failed.  It implements exactly the assertion keywords the repo's
schemas use (:data:`KEYWORDS`), with draft-07 semantics as ``jsonschema``
applies them: a bool is neither an integer nor a number, ``1.0`` is an
integer, ``const``/``enum`` tell ``True`` from ``1``, a keyword about
numbers, strings, arrays or objects ignores values of another type,
``pattern`` is ``re.search``, ``additionalProperties`` skips the keys
``properties`` names; ``$schema``/``title``/``description`` are
annotations.  Anything else — ``oneOf``, ``format``, ``$ref``, a boolean
schema — is a :class:`TypeError` at compile time naming keyword and path,
so an edited schema can never check less than it says.

Every keyword's test is inlined: nested ``properties``, ``items`` and
``additionalProperties`` are nested blocks and loops, and an ``if`` is
computed into a local flag, so checking a value calls no Python function.
The source holds only names the compiler made up — every schema key and
value reaches it through the function's namespace, so no schema can
inject code — and the first failure is the first in schema order.
``tests/obs/test_schema.py`` compiles every schema of the package and
holds the verdicts against ``jsonschema``, which only the tests install.
"""

from __future__ import annotations

import itertools
import re
import reprlib
from typing import Any, Callable, Iterable

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


def _error(keyword: str, expected: Any, value: Any, path: tuple[Any, ...]) -> TraceSchemaError:
    return TraceSchemaError(f"{json_path(path)}: {reprlib.repr(value)} "
                            f"fails {keyword!r}: {reprlib.repr(expected)}")


def compile(schema: dict[str, Any]) -> Callable[[Any], None]:
    """``check(doc)`` for ``schema``; TypeError for what it cannot enforce."""
    source = _Source()
    body = source.schema(schema, "#", "v", (), None) or ["pass"]
    exec("def check(v):\n" + "".join(f"    {line}\n" for line in body), source.names)
    return source.names["check"]


class _Source:
    """The lines of one check function and the namespace they run in."""

    def __init__(self) -> None:
        self.names: dict[str, Any] = {"_error": _error, "_SCALAR": _SCALAR, "_search": re.search}
        self._ids = itertools.count()

    def fresh(self, stem: str) -> str:
        return f"{stem}{next(self._ids)}"

    def const(self, value: Any) -> str:
        """The name the source reads ``value`` by."""
        name = self.fresh("c")
        self.names[name] = value
        return name

    def check(self, flag: str | None, cond: str, keyword: str, expected: str, v: str,
              path: tuple[str, ...]) -> list[str]:
        """``cond`` on ``v`` is a failure of ``keyword`` (``expected`` is a
        name): raised, or, inside the condition of an ``if``, clearing its
        ``flag`` (no test has a side effect, so the rest may run)."""
        if flag is not None:
            return [f"if {cond}:", f"    {flag} = False"]
        keys = "".join(key + ", " for key in path)
        return [f"if {cond}:", f"    raise _error({self.const(keyword)}, {expected}, {v}, ({keys}))"]

    def schema(self, schema: Any, where: str, v: str, path: tuple[str, ...],
               flag: str | None) -> list[str]:
        """The lines checking the value named ``v`` against ``schema``;
        ``path`` names the keys from the document's root down to it."""
        if not isinstance(schema, dict):
            raise TypeError(f"{where}: a schema must be a dict, not {schema!r}")
        lines = []
        for keyword, arg in schema.items():
            if keyword in _ANNOTATIONS or (keyword == "then" and "if" in schema):
                continue  # `then` is compiled by its `if`
            if keyword not in KEYWORDS:
                raise TypeError(f"{where}: unsupported JSON Schema keyword {keyword!r}")
            lines += KEYWORDS[keyword](self, arg, schema, f"{where}/{keyword}", v, path, flag)
        return lines


def _block(header: str, lines: list[str]) -> list[str]:
    return [header, *("    " + line for line in lines)] if lines else []


def _type(source, arg, schema, where, v, path, flag) -> list[str]:
    try:
        names = [arg] if isinstance(arg, str) else arg
        classes = tuple({c for name in names for c in _CLASSES[name]})
    except (KeyError, TypeError):
        raise TypeError(f"{where}: unknown type {arg!r}") from None
    exact = frozenset(classes)  # holds bool only where "boolean" is named
    ok = f"isinstance({v}, {source.const(classes)}) and {v}.__class__ is not bool"
    if int in exact and float not in exact:  # 1.0 is an integer
        ok = f"{v}.is_integer() if isinstance({v}, float) else {ok}"
    return source.check(flag, f"{v}.__class__ not in {source.const(exact)} and not ({ok})",
                        "type", source.const(arg), v, path)


def _one_of(keyword: str):
    """``const``/``enum`` of scalars, by JSON equality: 1 is 1.0 and is not True."""
    def build(source, arg, schema, where, v, path, flag) -> list[str]:
        options = [arg] if keyword == "const" else arg
        if not all(isinstance(option, _SCALAR) for option in options):
            raise TypeError(f"{where}: only scalars are supported, not {arg!r}")
        allowed = source.const({(option.__class__ is bool, option) for option in options})
        return source.check(flag, f"not (isinstance({v}, _SCALAR) and "
                                  f"({v}.__class__ is bool, {v}) in {allowed})",
                            keyword, source.const(arg), v, path)
    return build


def _limit(keyword: str, classes, broken: str):
    """A bound on values of ``classes`` (a bool is no number); the rest
    pass.  ``broken`` tests the value ``{v}`` against the bound ``{a}``."""
    def build(source, arg, schema, where, v, path, flag) -> list[str]:
        a = source.const(arg)
        return source.check(flag, f"isinstance({v}, {source.const(classes)}) and "
                                  f"{broken.format(v=v, a=a)} and {v}.__class__ is not bool",
                            keyword, a, v, path)
    return build


def _required(source, arg, schema, where, v, path, flag) -> list[str]:
    lines = []
    for key in arg:
        k = source.const(key)
        lines += source.check(flag, f"{k} not in {v}", "required", k, v, path)
    return _block(f"if isinstance({v}, dict):", lines)


def _properties(source, arg, schema, where, v, path, flag) -> list[str]:
    lines = []
    for key, sub in arg.items():
        k, child = source.const(key), source.fresh("v")
        body = source.schema(sub, f"{where}/{key}", child, (*path, k), flag)
        lines += _block(f"if {k} in {v}:", [f"{child} = {v}[{k}]", *body] if body else [])
    return _block(f"if isinstance({v}, dict):", lines)


def _children(cls: str, pairs: str):
    """One schema for every child of an array, or of an object apart from
    the keys its ``properties`` names; ``pairs`` yields (key, child) of ``{v}``."""
    def build(source, arg, schema, where, v, path, flag) -> list[str]:
        key, child = source.fresh("k"), source.fresh("v")
        body = source.schema(arg, where, child, (*path, key), flag)
        named = frozenset(schema.get("properties", ()))
        if named:
            body = _block(f"if {key} not in {source.const(named)}:", body)
        return _block(f"if isinstance({v}, {cls}):",
                      _block(f"for {key}, {child} in {pairs.format(v=v)}:", body))
    return build


def _all_of(source, arg, schema, where, v, path, flag) -> list[str]:
    return [line for i, sub in enumerate(arg)
            for line in source.schema(sub, f"{where}/{i}", v, path, flag)]


def _if(source, arg, schema, where, v, path, flag) -> list[str]:
    if "then" not in schema:
        raise TypeError(f"{where}: 'if' without 'then' asserts nothing")
    ok = source.fresh("ok")
    cond = source.schema(arg, where, v, path, ok)
    then = source.schema(schema["then"], where.removesuffix("if") + "then", v, path, flag)
    return [f"{ok} = True", *cond, *_block(f"if {ok}:", then)] if then else []


#: Every assertion keyword :func:`compile` enforces.  A builder takes the
#: source, the keyword's value, the schema it sits in, where that is, the
#: checked value's name, the names of its path and the flag of the ``if``
#: it is computing (None: a failure is raised); it returns lines.
KEYWORDS: dict[str, Callable[..., list[str]]] = {
    "type": _type,
    "const": _one_of("const"),
    "enum": _one_of("enum"),
    "minimum": _limit("minimum", _REAL, "{v} < {a}"),
    "maximum": _limit("maximum", _REAL, "{v} > {a}"),
    "exclusiveMinimum": _limit("exclusiveMinimum", _REAL, "{v} <= {a}"),
    "minLength": _limit("minLength", str, "len({v}) < {a}"),
    "pattern": _limit("pattern", str, "_search({a}, {v}) is None"),
    "required": _required,
    "properties": _properties,
    "additionalProperties": _children("dict", "{v}.items()"),
    "items": _children("list", "enumerate({v})"),
    "minItems": _limit("minItems", list, "len({v}) < {a}"),
    "maxItems": _limit("maxItems", list, "len({v}) > {a}"),
    "allOf": _all_of,
    "if": _if,  # together with its `then`
}
