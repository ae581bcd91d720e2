"""The CLI commands the docs show must still parse.

Every ``python -m repro.cli …`` / ``repro …`` line inside a fenced block of
``README.md`` and the verify skill is collected (``\\`` continuations
joined, ``<PLACEHOLDER>`` tokens filled in) and handed to
``build_parser().parse_args`` — nothing is executed.  A flag removed from
the CLI but still documented fails here.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
COMMAND = re.compile(r"(?:^|\s)(?:python3? -m repro\.cli|^repro)\s+(.*)$")
PLACEHOLDERS = {"<PORT>": "8099"}


def documented_commands() -> list[tuple[str, list[str]]]:
    """``(doc:line, argv)`` for every CLI command in a fenced block."""
    found = []
    for doc in DOCS:
        if not doc.is_file():
            continue
        in_block = False
        pending, start = "", 0
        for number, line in enumerate(doc.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_block = not in_block
                pending = ""
                continue
            if not in_block:
                continue
            if not pending:
                start = number
            text = f"{pending} {line.strip()}".strip()
            if text.endswith("\\"):
                pending = text[:-1].rstrip()
                continue
            pending = ""
            match = COMMAND.search(text)
            if text.startswith("#") or match is None:
                continue
            args = match.group(1)
            for placeholder, value in PLACEHOLDERS.items():
                args = args.replace(placeholder, value)
            argv = shlex.split(args, comments=True)
            if argv and argv[-1] == "&":
                argv.pop()
            found.append((f"{doc.name}:{start}", argv))
    return found


def test_collector_finds_the_documented_commands():
    commands = documented_commands()
    assert len(commands) >= 15
    assert "README.md" in {where.split(":")[0] for where, _ in commands}


def test_documented_cli_commands_parse(capsys):
    parser = build_parser()
    failures = []
    for where, argv in documented_commands():
        try:
            parser.parse_args(argv)
        except SystemExit:
            error = capsys.readouterr().err.strip().splitlines()
            failures.append(f"{where}: {shlex.join(argv)} -> {error[-1:]}")
    if failures:
        pytest.fail("documented commands no longer parse:\n" + "\n".join(failures))
