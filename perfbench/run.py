"""dialectid benchmark: three workloads over a seeded synthetic corpus.

Run from the repository root:

    python3 perfbench/run.py --workload extract|train|classify \
        --seed 2025 --seconds 25 --trace 0|1

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Exit code 2 means
the dialectid sources under `src/` are missing.
"""

import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    if not (SRC / "dialectid" / "__init__.py").is_file():
        print(f"perfbench: no dialectid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(argv, ROOT)


if __name__ == "__main__":
    sys.exit(main())
