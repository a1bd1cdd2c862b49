"""Write perfbench/reference.json, the quality table the output checks compare to.

    python3 perfbench/make_reference.py        # about 5 minutes on one core

For each of the 10 toy seeds the toy_kernel workload draws from, the
acceptance-5 RMSEs and whether the seed meets the acceptance-5 rule; for each
catalog gain, the lowest and highest median held-out MSE ratio (EGM over OLS)
that linear_catalog run seeds 0-39 give.  Run it only when a change to
gainreg is meant to change these results, and say why in the change.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

LINEAR_SEEDS = range(40)


def toy_reference(out_dir: Path) -> dict:
    wl = workloads.ToyKernel(0, out_dir)
    wl.reference = None
    table = {}
    for toy_seed in range(wl.POOL):
        row = wl.describe(toy_seed)
        wl.run(toy_seed)
        if not wl.check(toy_seed, None, row):
            raise RuntimeError(f"toy seed {toy_seed} fails its output check: {row}")
        table[str(toy_seed)] = {k: v for k, v in row.items() if k.startswith(("rmse", "acceptance5"))}
        print(f"toy seed {toy_seed}: {table[str(toy_seed)]}", flush=True)
    return table


def linear_reference(out_dir: Path) -> dict:
    medians: dict[str, list[float]] = {}
    for seed in LINEAR_SEEDS:
        wl = workloads.LinearCatalog(seed, out_dir)
        wl.reference = None
        ratios: dict[str, list[float]] = {}
        for op in wl.ops:
            if op[0] != "fit":
                continue
            row = wl.describe(op)
            try:
                out = wl.run(op)
            except Exception as exc:  # a known failure leaves no ratio to record
                print(f"linear seed {seed} {row}: {type(exc).__name__}", flush=True)
                continue
            wl.check(op, out, row)
            ratios.setdefault(row["gain"], []).append(row["mse_ratio"])
        for gain, values in ratios.items():
            medians.setdefault(gain, []).append(statistics.median(values))
        print(f"linear seed {seed} done", flush=True)
    return {gain: {"lo": min(v), "hi": max(v)} for gain, v in medians.items()}


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        reference = {
            "toy_kernel": toy_reference(Path(tmp)),
            "linear_catalog": linear_reference(Path(tmp)),
        }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
