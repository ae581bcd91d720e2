"""The repo's benchmark: four lifecycle workloads measured from outside.

Entry point: ``python3 bench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` (see ``bench/README.md`` and ``BENCHMARK.json``).
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"  # everything a run writes; git-ignored
