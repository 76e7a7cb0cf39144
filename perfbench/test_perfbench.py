"""Tests of the benchmark's own code: inputs, tail selection, oracle, names."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import stats
from perfbench.catalog import END_TO_END, PER_LAYER
from perfbench.workloads import (
    K,
    Recorder,
    Train,
    make_catalogue,
    make_dataset,
    run,
    verify_ranking,
)

ROOT = Path(__file__).resolve().parent.parent


def test_catalogue_is_a_function_of_the_seed():
    first = make_catalogue(3, num_items=2_000, num_users=60)
    again = make_catalogue(3, num_items=2_000, num_users=60)
    other = make_catalogue(4, num_items=2_000, num_users=60)
    for left, right in zip(first, again):
        np.testing.assert_array_equal(left, right)
    assert not np.array_equal(first[1], other[1])
    assert not np.array_equal(first[2], other[2])


def test_catalogue_shape():
    users, items, interactions = make_catalogue(0, num_items=2_000, num_users=60)
    assert users.shape == (60, 48) and items.shape == (2_000, 48)
    assert users.dtype == items.dtype == np.float32
    np.testing.assert_allclose(np.linalg.norm(items, axis=1), 1.0, rtol=1e-5)
    assert np.unique(interactions, axis=0).shape == interactions.shape
    assert set(np.unique(interactions[:, 0])) == set(range(60))


def test_dataset_is_a_function_of_the_seed():
    first = make_dataset(5, scale=0.3)
    again = make_dataset(5, scale=0.3)
    other = make_dataset(6, scale=0.3)
    np.testing.assert_array_equal(first.interactions, again.interactions)
    assert not np.array_equal(first.interactions, other.interactions)


@pytest.mark.parametrize("count", [1, 5, 19, 20, 21, 47, 100, 376, 1000, 5000])
def test_tail_keeps_ten_samples_beyond_it(count):
    values = list(np.random.default_rng(count).permutation(count).astype(float))
    value, pct = stats.tail(values)
    beyond = sum(sample > value for sample in values)
    if count >= 20:
        # the highest such percentile: one rank higher leaves fewer than ten
        assert beyond == stats.TAIL_MIN_BEYOND
    else:
        assert pct == 50.0
        assert value == stats.median(values)


def test_windowed_tail_ignores_a_stall_in_one_window():
    rng = np.random.default_rng(0)
    values = list(1.0 + 0.1 * rng.random(600))
    values[250:330] = [10.0] * 80  # a host stall inside the middle window
    assert stats.tail(values)[0] == 10.0
    value, pct = stats.windowed_tail(values)
    assert value < 1.1 and pct == pytest.approx(95.0)
    assert stats.windowed_tail(values[:59]) == stats.tail(values[:59])


def test_windows_cover_the_run_in_order():
    parts = stats.windows(range(10))
    assert parts == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]


def test_summarize_quartiles_match_statistics():
    summary = stats.summarize([4.0, 1.0, 3.0, 2.0, 10.0])
    assert summary["median"] == 3.0
    assert summary["min"] == 1.0 and summary["max"] == 10.0
    assert summary["q1"] <= summary["median"] <= summary["q3"]
    assert summary["spread"] == pytest.approx((summary["q3"] - summary["q1"]) / 3.0)


def _oracle_case():
    exact = np.array([0.9, 0.1, 0.9, 0.5, 0.7, 0.3, 0.8, 0.2, 0.6, 0.4, 0.05, 0.95])
    allowed = np.ones(exact.size, dtype=bool)
    allowed[11] = False  # seen
    return exact, allowed


def test_oracle_accepts_the_exact_ranking_with_id_tie_break():
    exact, allowed = _oracle_case()
    ids = [0, 2, 6, 4, 8, 3, 9, 5, 7, 1]
    problem, hits, want = verify_ranking(ids, exact[ids], exact, allowed, 1e-9, True)
    assert problem is None and hits == want == K


@pytest.mark.parametrize(
    "ids, expected",
    [
        ([11, 0, 2, 6, 4, 8, 3, 9, 5, 7], "seen or deleted"),
        ([0, 2, 6, 4, 8, 3, 9, 5, 7, 10], "ranking differs"),
        ([2, 0, 6, 4, 8, 3, 9, 5, 1, 7], "descending"),
        ([0, 2, 6, 4, 8, 3, 9, 5, 7], "returned 9 items"),
        ([0, 0, 6, 4, 8, 3, 9, 5, 7, 1], "duplicate"),
    ],
)
def test_oracle_rejects_wrong_rankings(ids, expected):
    exact, allowed = _oracle_case()
    problem, _, _ = verify_ranking(ids, exact[ids], exact, allowed, 1e-9, True)
    assert problem is not None and expected in problem


def test_oracle_checks_served_scores():
    exact, allowed = _oracle_case()
    ids = [0, 2, 6, 4, 8, 3, 9, 5, 7, 1]
    problem, _, _ = verify_ranking(ids, exact[ids] + 1e-3, exact, allowed, 1e-9, True)
    assert "exact scores" in problem


def test_ann_oracle_counts_recall_without_failing_misses():
    exact, allowed = _oracle_case()
    ids = [0, 2, 6, 4, 8, 3, 9, 5, 7, 10]
    problem, hits, want = verify_ranking(ids, exact[ids], exact, allowed, 1e-9, False)
    assert problem is None and (hits, want) == (9, 10)


def test_train_loss_oracle_uses_training_pairs_and_passes_on_training():
    class SmallTrain(Train):
        scale = 0.3

    workload = SmallTrain(seed=2, trace=False)
    workload.setup()
    seen = set(map(tuple, workload.split.train_interactions.tolist()))
    users, positives, negatives = (column.tolist() for column in workload.triples)
    assert all(pair in seen for pair in zip(users, positives))
    assert not any(pair in seen for pair in zip(users, negatives))
    assert workload.initial_loss == pytest.approx(np.log(2.0), abs=0.05)
    record = Recorder()
    for round_index in range(3):
        workload.write(np.random.default_rng(round_index), record)
    assert (record.attempted, record.failed) == (3, 0), record.problems


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [False, True])
def test_run_emits_every_declared_metric(trace):
    result = run("full-scan", seed=2, seconds=0.01, trace=trace)
    declared = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [name for name, *_ in declared]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(np.isfinite(value) for value in result["metrics"].values())


def test_cli_refuses_a_checkout_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
