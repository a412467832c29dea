"""Golden digests of a small fixed CND-IDS run.

Speed-ups of the training and refit path (k-means, triplet mining, model
cloning, the evaluation loop) must not change a single bit of what CND-IDS
computes.  These digests were recorded before those speed-ups with NumPy 2.4
on x86-64: the SHA-256 of the F1 and PR-AUC result matrices of a three-
experience protocol run, and of the scores of a ``ContinualRefit`` candidate
trained from that run's model.

If a change alters the arithmetic on purpose, re-record the digests with
``python tests/core/test_core_golden_digest.py`` and say why in the change.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.continual.scenario import ContinualScenario
from repro.core.model import CNDIDS
from repro.datasets.registry import load_dataset
from repro.experiments.protocol import run_continual_method
from repro.serve.lifecycle.policy import ContinualRefit

GOLDEN = {
    "f1_matrix": "6c0129617ff966a07da3c9a0c76c88269140937a88e3379389f4263d9fbb0006",
    "prauc_matrix": "a24c17aef65481269fe31cbb5170a95100d21927b079786d707889e7d79f344e",
    "candidate_scores": "989896ebad3eb2f280336a6493cf9a4b0b55c3981f69fc9624011668fee385df",
    "served_scores": "d6c0a7f19932d1179d3a88c91007e48f851dc620e210fabde074ab7cc61f701c",
}


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def compute_digests() -> dict[str, str]:
    dataset = load_dataset("wustl_iiot", scale=0.002, seed=3)
    scenario = ContinualScenario.from_dataset(dataset, n_experiences=3, seed=5)
    model = CNDIDS(scenario.n_features, epochs=2, random_state=11)
    result = run_continual_method(model, scenario)
    candidate = ContinualRefit().refit(model, scenario[2].X_train)
    X_test = scenario[0].X_test
    return {
        "f1_matrix": _digest(result.f1_matrix.values),
        "prauc_matrix": _digest(result.prauc_matrix.values),
        "candidate_scores": _digest(candidate.score_samples(X_test)),
        # The refit trains a clone: the served model must score as before.
        "served_scores": _digest(model.score_samples(X_test)),
    }


def test_cndids_run_matches_the_golden_digests():
    assert compute_digests() == GOLDEN


if __name__ == "__main__":
    for name, value in compute_digests().items():
        print(f'    "{name}": "{value}",')
