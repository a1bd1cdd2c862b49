"""gainreg benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload toy_kernel --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 0          # every workload, one process each
    python3 perfbench/run.py --write-spec            # regenerate BENCHMARK.json

One run builds one workload's inputs from ``--seed``, then issues ops one at
a time (a closed loop with one caller) in whole passes over the workload's
op list until ``--seconds`` have passed, and checks every op's output.  The
traced run (``--trace 1``) instead does a fixed list of ops once each, so
its per-op figures do not depend on how fast the ops ran; it ignores
``--seconds``.  A run prints each metric with its unit and, as the last
line, one JSON object: ``correct`` (no op failed), ``attempted``, ``failed``
(ops that raised or failed their check) and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).  The
full record, with the environment and the per-seed or per-gain tables, goes
to ``.perfbench_out/`` in the checkout.  See perfbench/README.md for what
each workload and metric is for.
"""

from __future__ import annotations

import os

# Pin BLAS before anything imports NumPy: one toy seed takes 4.7 s with one
# OpenBLAS thread against 6.0 s with two on a 2-CPU machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

RUN_SECONDS = 30
SETUP_REPEATS = 5

WORKLOAD_WHY = {
    "toy_kernel": "kernel map with p~160 under bandwidth CV and the anneal ladder; "
    "the weighted solve is ~90% of the work",
    "linear_catalog": "p=2 fits of every catalog gain: gain evaluation and per-iteration "
    "overhead dominate, solve-side changes should not move it",
    "certify": "quadrature certification, no solver: few gain calls on large arrays, "
    "against many small ones in linear_catalog",
}

# (name, unit, better, bound): the bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# Times get the widest bound allowed: on a shared 2-CPU host ten 30 s runs
# read 8-16% apart (quartile distance over median), see README.md.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# Reported in the record but not in the final JSON line: they are not
# defined on every workload, or read 0 at this commit.
EXTRA_UNITS = {
    "op_ms.p90": "ms",
    "fail_rate": "share",
    "rmse_mode.small_sigma": "1",
    "rmse_mean.large_sigma": "1",
    "acceptance5.pass_share": "share",
    "mse_ratio": "1",
}


def per_layer_specs():
    """(name, unit, better) of every per-layer metric."""
    from spans import LAYER_METRICS, TRACE_METRICS

    return [(m, unit, "lower") for m, unit, _, _ in LAYER_METRICS] + list(TRACE_METRICS)


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer_specs()
        ],
    }


def load_workloads():
    """Import gainreg from this checkout's ``src`` and the workload module."""
    sys.path.insert(0, str(ROOT / "src"))
    import gainreg

    source = Path(gainreg.__file__).resolve()
    if (ROOT / "src") not in source.parents:
        raise ImportError(f"gainreg was imported from {source}, not from {ROOT / 'src'}")
    import workloads

    return workloads


def setup(name: str, seed: int, tiny: bool):
    start = time.perf_counter()
    workloads = load_workloads()
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, OUT_DIR, tiny)
    return wl, time.perf_counter() - start


def setup_in_fresh_process(name: str, seed: int, tiny: bool) -> float:
    """One more set-up sample, from a new interpreter so the import is timed too."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"print(repr(run.setup({name!r}, {seed}, {tiny})[1]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def timed(fn, item):
    start = time.perf_counter()
    try:
        out, err = fn(item), None
    except Exception as exc:  # a raising op is a failed op, not a crashed run
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, err


def op_inputs(wl, seconds: float, traced: bool):
    """The op inputs of a run: whole passes until ``seconds`` pass (at least
    one pass), or the fixed traced list."""
    if traced:
        yield from wl.ops[: wl.trace_size]
        return
    start = time.perf_counter()
    i = 0
    while i == 0 or i % wl.pass_size or time.perf_counter() - start < seconds:
        yield wl.ops[i % len(wl.ops)]
        i += 1


def measure(wl, seconds: float, tracer=None):
    """Run the closed loop and check every op.

    Returns one row per op and the ops' untraced time.  With a tracer, each
    op runs once untraced and once traced, so the difference of the two is
    the tracing overhead on the same inputs; only the traced run is checked
    and counted.
    """
    from spans import OP_SPAN

    rows = []
    untraced = 0.0
    for i, item in enumerate(op_inputs(wl, seconds, tracer is not None)):
        if tracer is None:
            dt, out, err = timed(wl.run, item)
        else:
            # Alternate which of the pair runs first, so that warm caches
            # favour neither side of the overhead estimate.
            if not i % 2:
                untraced += timed(wl.run, item)[0]
            tracer.install()
            try:
                dt, out, err = timed(tracer.span(OP_SPAN, wl.run), item)
            finally:
                tracer.uninstall()
            if i % 2:
                untraced += timed(wl.run, item)[0]
        row = wl.describe(item)
        if err is None:
            try:
                ok = wl.check(item, out, row)
            except Exception as exc:
                ok, row["check_error"] = False, f"{type(exc).__name__}: {exc}"
        else:
            ok, row["error"] = False, err
        row.update(ok=ok, ms=1000.0 * dt, op_kind=str(wl.kind(item)))
        rows.append(row)
    wl.review(rows)
    return rows, untraced


def end_to_end(wl, rows: list[dict], setup_samples: list[float]) -> dict[str, float]:
    good = [r["ms"] for r in rows if r["ok"]]
    metrics = {
        "ops_per_s": 1000.0 * len(good) / sum(r["ms"] for r in rows),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_rate": (len(rows) - len(good)) / len(rows),
    }
    if good:
        # The geometric mean over op kinds of each kind's median latency, so
        # that neither the op mix nor one slow kind sets the figure.
        kinds: dict[str, list[float]] = {}
        for r in rows:
            if r["ok"]:
                kinds.setdefault(r["op_kind"], []).append(r["ms"])
        metrics["op_ms.p50"] = statistics.geometric_mean(
            statistics.median(v) for v in kinds.values()
        )
    if len(good) >= 100:
        metrics["op_ms.p90"] = statistics.quantiles(good, n=10)[-1]
    metrics.update(wl.quality(rows))
    return metrics


def group_table(rows: list[dict], key: str) -> dict[str, dict]:
    """Per-``key`` summary: op count, failures, median latency, medians of
    the float columns and the share of true values in the boolean ones."""
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(str(row[key]), []).append(row)
    table = {}
    for name, group in groups.items():
        entry = {"ops": len(group), "failed": sum(not r["ok"] for r in group),
                 "ms.p50": statistics.median(r["ms"] for r in group)}
        columns = {c for r in group for c, v in r.items() if isinstance(v, (bool, float))}
        for c in sorted(columns - {"ok", "ms"}):
            values = [r[c] for r in group if c in r]
            if all(isinstance(v, bool) for v in values):
                entry[c + ".share"] = sum(values) / len(values)
            else:
                entry[c] = statistics.median(values)
        table[name] = entry
    return table


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas_threads() -> int | str:
    """Ask the loaded OpenBLAS for its thread count; fall back to the pin."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads64_"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return f"unqueried (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy before 1.26 prints its config and returns nothing
        blas = {}
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def run_one(args) -> int:
    try:
        wl, own_setup = setup(args.workload, args.seed, args.tiny)
    except ImportError as exc:
        print(f"cannot load gainreg from this checkout: {exc}", file=sys.stderr)
        return 2
    samples = [own_setup] + [
        setup_in_fresh_process(args.workload, args.seed, args.tiny)
        for _ in range(SETUP_REPEATS - 1)
    ]
    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
    rows, untraced_s = measure(wl, args.seconds, tracer)
    attempted = len(rows)
    failed = sum(not r["ok"] for r in rows)

    e2e = end_to_end(wl, rows, samples)
    units = {n: u for n, u, _, _ in END_TO_END} | EXTRA_UNITS
    if tracer is None:
        reported = {n: e2e[n] for n, _, _, _ in END_TO_END if n in e2e}
    else:
        layers = layer_metrics(tracer, attempted)
        layers["trace.overhead_s"] = (sum(r["ms"] for r in rows) / 1000.0 - untraced_s) / attempted
        units |= {n: u for n, u, _ in per_layer_specs()}
        reported = {n: layers[n] for n, _, _ in per_layer_specs()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "setup_samples_s": samples,
        "end_to_end": {n: {"value": v, "unit": units[n]} for n, v in e2e.items()},
        "table": group_table(rows, wl.table_key),
        "rows": rows,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    if tracer is not None:
        record["per_layer"] = {n: {"value": v, "unit": units[n]} for n, v in reported.items()}
        record["trace_missing"] = tracer.missing
        tracer.write(OUT_DIR / f"{tag}-spans.csv")
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} attempted={attempted} failed={failed} "
          f"blas_threads={env['blas_threads']} git={env['git_sha'][:12]}")
    for name, value in e2e.items():
        sample = f"  (n={attempted - failed})" if name.startswith("op_ms") else ""
        print(f"{name:28s} {value:14.6g} {units[name]}{sample}")
    if "op_ms.p90" not in e2e:
        print("op_ms.p90 not reported: fewer than 100 ops in this run")
    if tracer is not None:
        for name, value in reported.items():
            print(f"{name:40s} {value:16.6g} {units[name]}")
        if tracer.missing:
            print(f"trace targets not found: {', '.join(tracer.missing)}")
    print(f"record: {OUT_DIR.relative_to(ROOT) / (tag + '.json')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in reported.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table of every end-to-end metric."""
    names = list(WORKLOAD_WHY)
    results = {}
    for name in names:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        argv += ["--tiny"] if args.tiny else []
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        record = json.loads((OUT_DIR / f"{name}-seed{args.seed}-trace0.json").read_text())
        results[name] = record
    metrics = sorted({m for r in results.values() for m in r["end_to_end"]})
    print(f"{'metric':26s} {'unit':6s}" + "".join(f"{n:>16s}" for n in names))
    for m in metrics:
        cells = []
        unit = ""
        for n in names:
            entry = results[n]["end_to_end"].get(m)
            cells.append(f"{entry['value']:16.6g}" if entry else f"{'-':>16s}")
            unit = entry["unit"] if entry else unit
        print(f"{m:26s} {unit:6s}" + "".join(cells))
    print(f"{'attempted/failed':33s}" + "".join(
        f"{str(r['attempted']) + '/' + str(r['failed']):>16s}" for r in results.values()))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOAD_WHY))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every op for a smoke test")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload, --all or --write-spec")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
