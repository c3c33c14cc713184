"""The documentation names what exists: every fenced command parses,
every module is on DESIGN.md's map.

Parse-only, so it costs milliseconds: a documented ``python -m repro.cli
...`` / ``python -m repro.bench ...`` line is handed to the front end's
real ``main``, which builds its real argparse tree and parses — and is
stopped there, before anything runs.  A flag that was deleted, a
mistyped subcommand or a missing operand is a failure here instead of an
exit 2 in a reader's terminal.
"""

from __future__ import annotations

import argparse
import re
import shlex
from pathlib import Path

import pytest

import repro.bench.__main__ as bench_cli
import repro.cli as cli

ROOT = Path(__file__).resolve().parents[2]
DOCUMENTS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "examples" / "README.md",
    ROOT / "benchmarks" / "history" / "README.md",
]
MAINS = {"repro.cli": cli.main, "repro.bench": bench_cli.main}
_COMMAND = re.compile(r"python3? -m (repro\.(?:cli|bench))\b(.*)")


def documented_commands() -> dict[str, tuple[str, list[str]]]:
    """``"file:line"`` -> (front end, argv) for every fenced command line:
    prompt, env-var prefix, trailing comment and redirections stripped,
    backslash continuations joined."""
    found = {}
    for doc in DOCUMENTS:
        lines = doc.read_text().splitlines()
        fenced = False
        for i, line in enumerate(lines):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            match = _COMMAND.search(line) if fenced else None
            if match is None:
                continue
            module, rest = match.groups()
            j = i
            while rest.rstrip().endswith("\\"):
                j += 1
                rest = rest.rstrip()[:-1] + " " + lines[j]
            argv = shlex.split(rest, comments=True)
            for k, word in enumerate(argv):
                if re.match(r"\d?>|[|<]", word):
                    del argv[k:]
                    break
            found[f"{doc.relative_to(ROOT)}:{i + 1}"] = (module, argv)
    return found


COMMANDS = documented_commands()


class _Parsed(Exception):
    """Raised in place of returning the parsed namespace."""


def test_the_extractor_finds_the_documented_commands():
    assert len(COMMANDS) >= 45, sorted(COMMANDS)  # a floor: the extractor must not go blind
    assert {module for module, _argv in COMMANDS.values()} == set(MAINS)


@pytest.mark.parametrize("where", sorted(COMMANDS))
def test_documented_command_parses(where, monkeypatch, capsys):
    module, argv = COMMANDS[where]
    parse_args = argparse.ArgumentParser.parse_args

    def parse_and_stop(self, args=None, namespace=None):
        raise _Parsed(parse_args(self, args, namespace))

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_and_stop)
    try:
        rc = MAINS[module](list(argv))
    except _Parsed:
        return
    except SystemExit as exc:  # argparse refused it
        rc = exc.code
    pytest.fail(f"{where}: `python -m {module} {' '.join(argv)}` exits {rc}: "
                f"{capsys.readouterr().err.strip()}")


def test_every_module_is_on_the_design_map():
    """DESIGN.md §3 names every ``src/repro/**/*.py`` (``__init__``
    aside) under its package's heading, or by its path."""
    design = (ROOT / "DESIGN.md").read_text()
    section = design[design.index("## 3. System inventory"):]
    block = section.split("```")[1]
    by_package: dict[str, str] = {}
    package = ""
    for line in block.splitlines():
        heading = re.match(r"  (\w+)/ ", line)
        if heading:
            package = heading.group(1)
        by_package[package] = by_package.get(package, "") + line + "\n"
    src = ROOT / "src" / "repro"
    missing = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src)
        if path.name == "__init__.py":
            continue
        where = by_package.get(rel.parent.as_posix(), "") if rel.parent.parts else block
        named = re.search(rf"(?<![\w/]){re.escape(path.name)}\b", where)
        if not named and rel.as_posix() not in block:
            missing.append(rel.as_posix())
    assert not missing, f"not named in DESIGN.md §3: {missing}"
