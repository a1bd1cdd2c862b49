"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, *argv, seconds="0.2") -> dict:
    assert run.main([*argv, "--seed", "0", "--seconds", seconds, "--tiny"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_committed_spec_matches_harness():
    assert SPEC == run.benchmark_spec()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_named_metric(capsys, workload, trace):
    result = _run(capsys, "--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("broken", ["zero_model", "raises"])
def test_broken_fits_count_as_failures(capsys, monkeypatch, broken):
    run.load_workloads()
    import gainreg.solver
    from gainreg.errors import DegenerateIterateError

    real = gainreg.solver.fit_egm

    def broken_fit(*args, **kwargs):
        if broken == "raises":
            raise DegenerateIterateError("all half-quadratic weights vanished")
        report = real(*args, **kwargs)
        zero = np.zeros_like(report.model.coefficients)
        return dataclasses.replace(
            report, model=dataclasses.replace(report.model, coefficients=zero)
        )

    monkeypatch.setattr(gainreg.solver, "fit_egm", broken_fit)
    result = _run(capsys, "--workload", "linear_catalog", "--trace", "0")
    assert result["failed"] >= 1 and not result["correct"]
    record = json.loads((run.OUT_DIR / "linear_catalog-seed0-trace0.json").read_text())
    fail_rate = record["end_to_end"]["fail_rate"]["value"]
    assert fail_rate == result["failed"] / result["attempted"] > 0


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.span("gains.inner", lambda: time.sleep(0.01))

    def outer():
        inner()
        inner()
        time.sleep(0.01)

    tracer.span(spans.OP_SPAN, tracer.span("solver.outer", outer))()
    duration, self_time = tracer.self_times()
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == [spans.OP_SPAN, "solver.outer", "gains.inner", "gains.inner"]
    assert self_time[1] == pytest.approx(duration[1] - duration[2] - duration[3])
    assert sum(self_time) == pytest.approx(duration[0])
    metrics = spans.layer_metrics(tracer, 2)
    assert metrics["gains.self_s"] == pytest.approx((duration[2] + duration[3]) / 2)
    assert metrics["trace.op_s"] == pytest.approx(duration[0] / 2)
    assert 0.9 < metrics["trace.attributed_share"] <= 1.0


@pytest.mark.parametrize("workload", ["linear_catalog", "certify"])
def test_traced_figures_do_not_depend_on_run_length(capsys, workload):
    short = _run(capsys, "--workload", workload, "--trace", "1", seconds="0.2")
    long = _run(capsys, "--workload", workload, "--trace", "1", seconds="0.4")
    assert short["attempted"] == long["attempted"]
    for name, entry in short["metrics"].items():
        if entry["unit"] in ("count/op", "flop/op"):
            assert long["metrics"][name]["value"] == entry["value"], name


def test_untraced_run_stops_at_whole_passes(capsys):
    run.load_workloads()
    import workloads

    pass_size = workloads.Certify(0, run.OUT_DIR, tiny=True).pass_size
    result = _run(capsys, "--workload", "certify", "--trace", "0", seconds="0.5")
    assert result["attempted"] % pass_size == 0


def _write_toy_csv(path, seed_reference, scale):
    header = "kind,sigma,bandwidth,rmse_mean_ref,rmse_mode_ref,train_gain,x,fhat\n"
    lines = [header]
    for tag, sigma in (("small_sigma", 0.05), ("large_sigma", 10.0)):
        mode = seed_reference[f"rmse_mode.{tag}"] * (scale if tag == "small_sigma" else 1.0)
        lines.append(f"summary,{sigma},0.2,{seed_reference[f'rmse_mean.{tag}']},{mode},1.0,,\n")
    for sigma in (0.05, 10.0):
        lines += [f"curve,{sigma},0.2,,,,{k / 100},0.5\n" for k in range(101)]
    path.write_text("".join(lines))


@pytest.mark.parametrize("scale", [1.0, 4.0])
def test_toy_check_fails_a_seed_that_drifts_from_the_reference(tmp_path, scale):
    run.load_workloads()
    import workloads

    wl = workloads.ToyKernel(0, tmp_path)
    _write_toy_csv(wl.out, wl.reference["5"], scale)
    assert wl.check(5, None, {}) == (scale == 1.0)


def test_linear_review_fails_a_gain_whose_mse_ratio_left_its_range(tmp_path):
    run.load_workloads()
    import workloads

    wl = workloads.LinearCatalog(0, tmp_path)
    band = wl.reference["gaussian"]
    rows = [
        {"gain": "gaussian", "ok": True, "mse_ratio": band["hi"]},
        {"gain": "uniform", "ok": True, "mse_ratio": wl.reference["uniform"]["lo"]},
        {"gain": "gaussian", "ok": True, "mse_ratio": 10 * band["hi"] * wl.MSE_RATIO_SLACK},
        {"gain": "gaussian", "ok": True, "mse_ratio": 10 * band["hi"] * wl.MSE_RATIO_SLACK},
    ]
    wl.review(rows)
    assert [r["ok"] for r in rows] == [False, True, False, False]
