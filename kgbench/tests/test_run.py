"""A whole run reports correct on honest outputs and incorrect on broken ones."""

import json

import numpy as np
import pytest

import instrument
import run
from kgembed import evaluation


def result_line(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, jobs", [("kinships-slcwa", 3), ("synthetic-lcwa", 1),
                                            ("nations-zoo", 20)])
def test_one_round_is_correct_and_complete(capsys, workload, jobs):
    out = result_line(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0"])
    assert out["correct"] is True
    assert (out["attempted"], out["failed"]) == (jobs, 0)
    assert set(out["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(capsys):
    out = result_line(capsys, ["--workload", "synthetic-lcwa", "--seed", "3",
                               "--seconds", "0", "--trace", "1"])
    assert out["correct"] is True and out["attempted"] == 2
    assert set(out["metrics"]) == {name for name, _ in instrument.PER_LAYER_METRICS}


def test_a_shuffled_score_matrix_makes_the_run_report_incorrect(capsys, monkeypatch):
    original = evaluation._score_matrix
    perm = np.random.default_rng(0).permutation(14)
    monkeypatch.setattr(evaluation, "_score_matrix", lambda *args: original(*args)[:, perm])
    out = result_line(capsys, ["--workload", "nations-zoo", "--seed", "3", "--seconds", "0"])
    assert out["correct"] is False and out["failed"] == 0
