"""Host fingerprint stored in every result document, so rows are comparable."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from bench import ROOT

__all__ = ["fingerprint"]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """The checkout's commit; None outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas() -> dict:
    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    return {
        kind: {key: deps.get(kind, {}).get(key)
               for key in ("name", "version", "openblas configuration")}
        for kind in ("blas", "lapack")
    }


def fingerprint() -> dict:
    nproc = os.cpu_count() or 1
    load_1m = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "load_1m": load_1m,
        # measured at the start of the run; above nproc/2 something else
        # is competing for the cores the server and the driver need
        "loaded": load_1m > nproc / 2,
    }
