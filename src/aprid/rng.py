"""Deterministic random-stream derivation.

Every run expands a single master seed into named, non-overlapping streams
through numpy's ``SeedSequence`` spawning-by-key mechanism:

* training draws (oracle sampling) use ``(seed, TRAIN_TAG)``,
* the evaluation draw at checkpoint ``k`` uses ``(seed, EVAL_TAG, k, lane)``.

The training stream is a ``TrainingStream``: the Generator on ``(seed, TRAIN_TAG)``,
which the finite-sum, NPC and bilinear oracles read, plus the expectation QCQP's
two record streams, children of that ``SeedSequence`` under spawn key
``OBJECTIVE_TAG`` ((H, c) records) and ``CONSTRAINT_TAG`` ((Q, a, b) records, each
Q stored as its upper triangle), each drawn ``RECORD_BLOCK`` records at a time and read in
order (``read_records``).

Training and evaluation therefore never share a stream, and re-running with
the same master seed reproduces every draw bit for bit. Freezing an
expectation problem into its sample-average instance is not one of these
streams: ``ExpectationQcqpProblem.freeze`` seeds ``default_rng(seed)``
directly, with ``seed`` the ``run.freeze_seed`` config value. The freeze reads
every chunk's (H, c, a, b), then every G, a block at a time. Each evaluation reads
every chunk's scalars ||Hx||^2, c.Hx, a.x and b, then every G; one whose violation the
first phase certifies to be zero draws no G.
"""

import numpy as np

__all__ = ["TRAIN_TAG", "EVAL_TAG", "TrainingStream", "stream_seed", "training_rng", "eval_seed",
           "read_records"]

TRAIN_TAG = 1
EVAL_TAG = 2
OBJECTIVE_TAG = 0
CONSTRAINT_TAG = 1
RECORD_BLOCK = 1024


def stream_seed(master_seed, *tags) -> np.random.SeedSequence:
    """SeedSequence for the stream named by ``tags`` under ``master_seed``."""
    entropy = [int(master_seed)] + [int(t) for t in tags]
    if any(e < 0 for e in entropy):
        raise ValueError(f"seeds and tags must be non-negative, got {entropy}")
    return np.random.SeedSequence(entropy)


class TrainingStream(np.random.Generator):
    """``default_rng(seq)``'s Generator, holding the state of its record streams."""

    def __init__(self, seq):
        super().__init__(np.random.PCG64(seq))
        self._seq, self._records = seq, {}  # tag -> [child Generator, block, records read]


def read_records(rng, tag, draw, count):
    """The next ``count`` records of record stream ``tag`` of ``rng``, a tuple of arrays by
    record of which ``draw(gen, RECORD_BLOCK)`` draws each block from the stream's Generator.
    A plain Generator is read as every record stream at once, ``draw(rng, count)`` per call."""
    if not isinstance(rng, TrainingStream):
        return draw(rng, count)
    state = rng._records.get(tag)
    if state is None:
        key = (*rng._seq.spawn_key, tag)
        gen = np.random.default_rng(np.random.SeedSequence(rng._seq.entropy, spawn_key=key))
        state = rng._records[tag] = [gen, draw(gen, RECORD_BLOCK), 0]
    gen, block, pos = state
    while pos + count > len(block[0]):  # the rest of the block, then a new one
        block, pos = tuple(map(np.concatenate, zip(
            (column[pos:] for column in block), draw(gen, RECORD_BLOCK)))), 0
    state[1:] = block, pos + count
    return tuple(column[pos:pos + count] for column in block)


def training_rng(master_seed) -> TrainingStream:
    """The stream consumed by a solver's per-iteration oracle draws."""
    return TrainingStream(stream_seed(master_seed, TRAIN_TAG))


def eval_seed(master_seed, iteration, lane=0) -> np.random.SeedSequence:
    """Seed for the fresh-sample evaluation at one checkpoint.

    ``lane`` separates multiple evaluations at the same iteration (a solver
    emitting two candidate trajectories evaluates each on its own stream).
    """
    return stream_seed(master_seed, EVAL_TAG, iteration, lane)
