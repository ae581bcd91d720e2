"""Figure-benchmark infrastructure: result tables are written to the
gitignored ``benchmarks/out/`` so every figure's reproduction is inspectable
after a ``pytest benchmarks/`` run (stdout is captured by pytest, the files
are not) and a run leaves ``git status`` clean.  The committed tables in
``benchmarks/results/`` change only under ``pytest benchmarks/...
--update-baseline``, which copies the run's tables over them.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"
RESULTS_DIR = Path(__file__).parent / "results"
_written: set[Path] = set()


def pytest_addoption(parser):
    parser.addoption(
        "--update-baseline",
        action="store_true",
        help="copy the tables this run wrote to benchmarks/out/ over the "
        "committed baselines in benchmarks/results/",
    )


def pytest_sessionfinish(session):
    if session.config.getoption("--update-baseline", default=False):
        for table in sorted(_written):  # this run's tables, not stale ones
            shutil.copy(table, RESULTS_DIR / table.name)


def _write_table(name: str, title: str, headers: list[str], rows: list[list]) -> str:
    """Render an aligned text table, save it, and return it."""
    OUT_DIR.mkdir(exist_ok=True)
    widths = [
        max(len(str(h)), *(len(_fmt(row[i])) for row in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths))
        )
    text = "\n".join(lines) + "\n"
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text)
    _written.add(path)
    print(f"\n{text}")
    return text


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


@pytest.fixture(scope="session")
def write_table():
    """The table writer, as ``write_table(name, title, headers, rows)``.

    A fixture rather than an import: ``from conftest import ...`` resolves
    to whichever ``conftest`` module pytest imported first, which is
    ``tests/conftest.py`` when a run collects ``tests/`` before this
    directory.
    """
    return _write_table


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing.

    The experiments are seconds-to-minutes long; default calibration would
    re-run them dozens of times.
    """

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return _run
