"""Tiny-size runs of every workload, with the same checks as full-size runs."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as studybench  # noqa: E402
from spans import per_layer_units  # noqa: E402
from workloads import GAMMAS, TAU_GRID, WORKLOADS, crb_ratio_problem, write_records  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
# fig3's pooled CRB check assumes calibration noise is small next to sampling
# noise, which holds from about 20 runs per cell
TINY = {"fig3_default": 20, "estimate_reuse": 4, "drift_device": 4}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_passes_its_checks(name, tmp_path):
    workload = replace(WORKLOADS[name], repetitions=TINY[name])
    result = studybench.run(workload, seed=3, seconds=0, trace=True, root=ROOT,
                            work=tmp_path)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["absent"] == []
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["estimator.estimate_gls_calls"] == workload.analysed_runs
    quadrature = metrics["channels.quadrature_projection_probs_calls"]
    if name == "fig3_default":
        # estimation runs plus as many fresh calibration runs, one call each
        assert metrics["montecarlo.detection_rates_calls"] == 2 * workload.analysed_runs
    assert (quadrature > 0) == (name == "drift_device")
    if name == "estimate_reuse":
        assert metrics["cli.rows_read"] == 8 * workload.analysed_runs
        assert metrics["montecarlo.runs"] == 0


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    workload = replace(WORKLOADS["drift_device"], repetitions=TINY["drift_device"])
    result = studybench.run(workload, seed=5, seconds=0, trace=False, root=ROOT,
                            work=tmp_path)
    assert result["correct"]
    assert result["attempted"] == studybench.MIN_EXECUTIONS
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_names_match_the_benchmark_definition():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == studybench.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_records_generator_is_seeded_and_in_the_simulate_format(tmp_path):
    from tempres.cli import read_records

    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records(first, 9, 2)
    write_records(second, 9, 2)
    assert first.read_bytes() == second.read_bytes()
    records = read_records(first)
    assert len(records) == len(TAU_GRID) * len(GAMMAS) * 2
    assert {r.gamma for r in records} == set(GAMMAS)


def test_pooled_crb_band_trips_only_outside_the_sampling_spread():
    assert crb_ratio_problem([4.0 * 0.985] * 30, 100, "fig3") == []
    assert crb_ratio_problem([4.0 * 1.3] * 30, 100, "fig3") != []


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = studybench.main(["--workload", "fig3_default", "--seed", "1",
                            "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
