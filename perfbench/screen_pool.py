"""Run every design of the design_sweep pool once and list the failures.

    python3 perfbench/screen_pool.py

Prints each pool design that fails its checks or raises, then the set of
failing pool indices next to workloads.EXCLUDED. Takes about a minute.
When the stroke-discovery fault is mended the failing set shrinks; the
excluded designs can then go back into the pool.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main():
    sweep = workloads.DesignSweep(HERE, seed=0, smoke=False)
    failing = set()
    for k, L1, CJ in workloads.design_pool():
        op = sweep._op(L1, CJ)
        try:
            op.check(op.run())
        except (checks.CheckError, RuntimeError, ValueError) as exc:
            failing.add(k)
            print(f"{k:3d} L1={L1} CJ={CJ}: {type(exc).__name__}: {str(exc)[:90]}")
    print(f"failing: {sorted(failing)}")
    print(f"excluded: {sorted(workloads.EXCLUDED)}")
    return 0 if failing == workloads.EXCLUDED else 1


if __name__ == "__main__":
    sys.exit(main())
