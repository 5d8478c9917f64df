"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload alpha-serial --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs a fixed amount of the workload's work twice,
untraced and then traced, and prints the per-layer metrics.  Both print a
human-readable table, run the correctness and lifecycle checks, write a
record under ``perfbench/out/`` and end with one JSON line::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed and 2 when
there is no program source to measure.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    """Import the program from ``src/`` and run the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [p for p in sys.path if p != here]
    from perfbench.bench import main as run_benchmark

    return run_benchmark(argv)


if __name__ == "__main__":
    sys.exit(main())
