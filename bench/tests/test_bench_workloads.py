"""Workload inputs depend on the seed and on nothing else.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import sys
from pathlib import Path

root = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(root / "bench"), str(root / "src")]

import workloads  # noqa: E402


def test_survey_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert workloads.SurveyFit(3).inputs_digest == workloads.SurveyFit(3).inputs_digest
    assert workloads.SurveyFit(3).inputs_digest != workloads.SurveyFit(4).inputs_digest


def test_survey_shape_matches_the_reference_model():
    data = workloads.SurveyFit(1).data
    assert (data.n, data.n_train) == (5892, 5020)


def test_prior_rows_repeat_for_a_seed_and_differ_across_seeds():
    assert workloads.PriorOnly(3).inputs_digest == workloads.PriorOnly(3).inputs_digest
    assert workloads.PriorOnly(3).inputs_digest != workloads.PriorOnly(4).inputs_digest


def test_cli_files_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    digests = []
    for i, seed in enumerate((3, 3, 4)):
        d = tmp_path / str(i)
        d.mkdir()
        digests.append(workloads.CliRoundtrip(seed, d).inputs_digest)
    assert digests[0] == digests[1] != digests[2]
