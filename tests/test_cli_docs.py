"""The CLI commands and HTTP endpoints the docs show must still exist.

Every ``python -m repro.cli …`` / ``repro …`` line inside a fenced block of
``README.md`` and the verify skill is collected (``\\`` continuations
joined, ``<PLACEHOLDER>`` tokens filled in) and handed to
``build_parser().parse_args`` — nothing is executed.  A flag removed from
the CLI but still documented fails here.  README's ``### Endpoints``
table must list exactly the gateway's routes.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.gateway import LinkageGateway

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


def documented_endpoints() -> list[tuple[str, str]]:
    """``(method, path)`` of every row of README's ``### Endpoints`` table."""
    section = (ROOT / "README.md").read_text().split("### Endpoints", 1)[1]
    table = section.split("\n### ", 1)[0]
    return re.findall(r"^\| `([A-Z]+) (/[^`]*)` \|", table, re.M)


def test_endpoint_table_matches_gateway_routes():
    documented = documented_endpoints()
    assert len(documented) == len(set(documented)), "duplicate table rows"
    assert set(documented) == set(LinkageGateway(service=None)._routes)
