"""Time one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD

Set-up is importing `rareevent`, building the workload's model (its KL
basis) and evaluating every level the workload uses once.  Prints the
seconds it took.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import rareevent  # noqa: F401  -- the import is part of set-up
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].setup()
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
