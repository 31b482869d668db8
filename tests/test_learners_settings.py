"""Every model records its learner's fixed settings, with their JSON types."""

import pytest

from fusemine.learners import ALGORITHMS, model_to_json, train

from helpers import planted_dataset

RECORDED = {
    "c45": """{
    "numeric_fill": {},
    "params": {
      "confidence": 0.25,
      "min_leaf": 2
    },
    "seed": 7
  },""",
    "reptree": """{
    "numeric_fill": {},
    "params": {
      "holdout_folds": 3,
      "min_leaf": 2
    },
    "seed": 7
  },""",
    "randomtree": """{
    "numeric_fill": {},
    "params": {
      "min_leaf": 1
    },
    "seed": 7
  },""",
    "ripper": """{
    "numeric_fill": {},
    "params": {
      "dl_slack": 64.0,
      "holdout_folds": 3,
      "optimize_passes": 1
    },
    "seed": 7
  },""",
    "part": """{
    "numeric_fill": {},
    "params": {
      "confidence": 0.25,
      "min_leaf": 2
    },
    "seed": 7
  },""",
    "nnge": """{
    "numeric_fill": {},
    "order_sensitive": true,
    "params": {},
    "seed": 7
  },""",
}


def test_every_algorithm_is_pinned():
    assert set(RECORDED) == set(ALGORITHMS)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_metadata_text_is_unchanged(algorithm):
    # Compared as text: 64 == 64.0 in Python, but "64" != "64.0" in a model file.
    text = model_to_json(train(algorithm, planted_dataset(n=60, seed=1), seed=7))
    block = text.split('\n  "metadata": ')[1].split('\n  "schema": ')[0]
    assert block == RECORDED[algorithm]
