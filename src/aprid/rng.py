"""Deterministic random-stream derivation.

Every run expands a single master seed into named, non-overlapping streams
through numpy's ``SeedSequence`` spawning-by-key mechanism:

* training draws (oracle sampling) use ``(seed, TRAIN_TAG)``,
* the evaluation draw at checkpoint ``k`` uses ``(seed, EVAL_TAG, k, lane)``.

Training and evaluation therefore never share a stream, and re-running with
the same master seed reproduces every draw bit for bit. Freezing an
expectation problem into its sample-average instance is not one of these
streams: ``ExpectationQcqpProblem.freeze`` seeds ``default_rng(seed)``
directly, with ``seed`` the ``run.freeze_seed`` config value.
"""

import numpy as np

__all__ = ["TRAIN_TAG", "EVAL_TAG", "stream_seed", "training_rng", "eval_seed"]

TRAIN_TAG = 1
EVAL_TAG = 2


def stream_seed(master_seed, *tags) -> np.random.SeedSequence:
    """SeedSequence for the stream named by ``tags`` under ``master_seed``."""
    entropy = [int(master_seed)] + [int(t) for t in tags]
    if any(e < 0 for e in entropy):
        raise ValueError(f"seeds and tags must be non-negative, got {entropy}")
    return np.random.SeedSequence(entropy)


def training_rng(master_seed) -> np.random.Generator:
    """Generator consumed by a solver's per-iteration oracle draws."""
    return np.random.default_rng(stream_seed(master_seed, TRAIN_TAG))


def eval_seed(master_seed, iteration, lane=0) -> np.random.SeedSequence:
    """Seed for the fresh-sample evaluation at one checkpoint.

    ``lane`` separates multiple evaluations at the same iteration (a solver
    emitting two candidate trajectories evaluates each on its own stream).
    """
    return stream_seed(master_seed, EVAL_TAG, iteration, lane)
