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
order (``read_records``). A run whose index sets do not depend on the iterate declares
each step's, its ``plan``: one ``integers`` call over their bounds draws ``READ_AHEAD``
steps' sets, each row then run through numpy's ``choice`` (Floyd's values, a repeat replaced
by its bound - 1, a Fisher-Yates pass). Both draw through ``random_bounded_uint64``, so
every set, and the state after it, is ``choice``'s per call (its tail shuffle stays so).
The run driver closes each step (``end_step``), which raises unless the step drew each set of
the plan exactly once, so not even a plan of equal sets serves a set to the wrong draw.

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
READ_AHEAD = 64  # steps whose index sets a planned stream draws at once


def stream_seed(master_seed, *tags) -> np.random.SeedSequence:
    """SeedSequence for the stream named by ``tags`` under ``master_seed``."""
    entropy = [int(master_seed)] + [int(t) for t in tags]
    if any(e < 0 for e in entropy):
        raise ValueError(f"seeds and tags must be non-negative, got {entropy}")
    return np.random.SeedSequence(entropy)


class TrainingStream(np.random.Generator):
    """``default_rng(seq)``'s Generator, holding its record streams and ``plan``'s read-ahead."""

    def __init__(self, seq, plan=(), horizon=0):
        super().__init__(np.random.PCG64(seq))
        self._seq, self._records = seq, {}  # tag -> [child Generator, block, records read]
        plan = tuple((int(total), min(int(size), int(total))) for total, size in plan)
        tail = any(total > 10000 and size > total // 50 for total, size in plan)
        self._plan, self._horizon, self._served = () if tail else plan, int(horizon), 0

    def planned_choice(self, total, size):
        """The plan's next index set, with the bits of ``choice(total, size, replace=False)``;
        None without a plan (or with a set in choice's tail shuffle). Any other set raises."""
        if not self._plan:
            return None
        step, slot = divmod(self._served, len(self._plan))
        if step >= self._horizon or self._plan[slot] != (total, size):
            raise RuntimeError(f"{(total, size)} is not next in {self._plan} at step {step + 1}")
        if slot == 0 and step % READ_AHEAD == 0:
            # per step and set: Floyd's bounds total - size + 1 .. total, the shuffle's size .. 2
            highs = np.concatenate([np.r_[t - s + 1:t + 1, s:1:-1] for t, s in self._plan])
            steps = min(READ_AHEAD, self._horizon - step)
            draws = self.integers(0, np.tile(highs, steps)).reshape(steps, -1)
            cuts = np.cumsum([2 * s - 1 for _, s in self._plan])[:-1]
            self._sets = [_choice_rows(d, t - s)
                          for d, (t, s) in zip(np.split(draws, cuts, axis=1), self._plan)]
        self._served += 1
        return self._sets[slot][step % READ_AHEAD]

    def end_step(self, step):
        """Raise unless ``step`` (from 1) drew each set of the plan exactly once."""
        drawn = self._served - (step - 1) * len(self._plan)
        if drawn != len(self._plan):
            raise RuntimeError(f"step {step} drew {drawn} of the {len(self._plan)} planned sets")


def _choice_rows(draws, base):
    """Per row of ``draws`` (size Floyd values, then size - 1 swaps), ``choice``'s set."""
    size, rows = (draws.shape[1] + 1) // 2, np.arange(len(draws))
    out, ordered = draws[:, :size].copy(), np.sort(draws[:, :size], axis=1)
    dup = rows[(ordered[:, 1:] == ordered[:, :-1]).any(axis=1)]  # the rows Floyd's rule changes
    for t in range(1, size if dup.size else 0):  # a value already taken becomes base + t
        out[dup[(out[dup, :t] == out[dup, t, None]).any(axis=1)], t] = base + t
    for i, j in zip(range(size - 1, 0, -1), draws[:, size:].T):
        out[rows, i], out[rows, j] = out[rows, j], out[rows, i]
    return out


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


def training_rng(master_seed, plan=(), horizon=0) -> TrainingStream:
    """The stream of a solver's oracle draws, reading ``plan``'s sets of each step ahead."""
    return TrainingStream(stream_seed(master_seed, TRAIN_TAG), plan, horizon)


def eval_seed(master_seed, iteration, lane=0) -> np.random.SeedSequence:
    """Seed for the fresh-sample evaluation at one checkpoint.

    ``lane`` separates multiple evaluations at the same iteration (a solver
    emitting two candidate trajectories evaluates each on its own stream).
    """
    return stream_seed(master_seed, EVAL_TAG, iteration, lane)
