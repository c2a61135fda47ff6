"""Experiment problem families, dataset handling, and full evaluation.

Problems are duck-typed. Every constrained problem exposes

    n                   decision dimension
    num_constraints     number of functional constraints M
    box                 BoxSet feasible set
    kind                short string identifier
    deterministic       True when exact full evaluation needs no sampling

    sample_objective_grad(x, j0, rng)   -> (n,) unbiased subgradient of f0
    sample_constraint_block(x, j1, rng) -> (support, values, grads): sampled
        constraint indices S, per-constraint unbiased value estimates (|S|,)
        and subgradient estimates (|S|, n); all raw ndarrays (S of ints), which
        the oracle layer reweights by M/|S| as they are, with no conversion
    constraint_value_estimate(x, jg, rng) -> unbiased aggregate-violation
        estimate (single constraint: plain estimate of f1, sign kept)
    evaluate_full(x, seed=None)         -> FullEval

Finite families also expose ``draw_plan(j0, j1)``: the ``(total, size)`` index sets that
``sample_objective_grad`` and ``sample_constraint_block`` draw, in that order.
Deterministic problems additionally expose exact full quantities
(``full_objective``, ``full_objective_grad``, ``full_constraint_values``,
``full_constraint_grads``) consumed by the reference solver, and
``sample_constraint_block_exact`` (exact values, unbiased gradients) consumed
by penalty-based baselines. Saddle problems follow a different, smaller
contract (see ``BilinearSaddleProblem``), whose sampled blocks are ndarrays too.

The finite-sum QCQP stores each Q_j once, as its upper triangle, and unpacks only the
rows a computation reads. Its row certificate: ||Q_j||_F >= ||Q_j||_2, so a row whose
computed 0.5 ||Q_j||_F ||x||^2 + a_j.x - b_j lies below a rounding margin is negative
(``screened_constraint_values``). ``evaluate_full`` gives such rows violation 0.0 without
forming x'Q_j x, and the reference solver skips them while their multiplier is 0; every
value either forms has the bits that the whole (M, n, n) stack gives. The screen goes
``_EVAL_CHUNK`` rows at a time, writing f over a.x, so no O(M) temporary is formed.

Sampling determinism: each sampling method consumes its generator in a fixed documented
order (objective draws: matrices then vectors; constraint draws: quadratic terms, then linear
terms, then offsets), so one seed reproduces a run bit for bit; finite families subsample
through ``_subsample``: ``choice``'s sets, read ahead on a planned training stream. The
expectation QCQP's training oracles read the next j records of their own
stream (``rng.read_records``), (H, c) or (Q, a, b) with Q packed as in the finite sum,
drawn a block at a time by the same draw functions (a plain Generator gives j fresh records
a call); the constraint oracles evaluate once, at the records' mean Q, a and b. Its sampled
evaluation reads ||Hx||^2, then c.Hx, then a.x, then b per ``_EVAL_CHUNK`` of draws
(phase 1, ``_eval_terms``) from their one-dimensional laws: HR has H's law for every
rotation R, so Hx is ||x|| H e_1 in law and ||Hx||^2 = ||x||^2 X / (X + Y) (X ~ chi^2_p,
Y ~ chi^2_{p(n-1)}); c.Hx and a.x are ||Hx|| and ||x|| times one coordinate of an
independent uniform unit vector. The freeze, whose aggregates need them whole, reads H, c,
a, b per chunk (phase 1, ``_draws``). Both then read every G (phase 2, ``_gram_blocks``),
summing per chunk as phase 1 does: f0 and f1 are means of sums, so this pairing of Q_i with
(a_i, b_i) leaves every law as it was. An evaluation whose violation phase 1 certifies to
be zero (``_certifies_zero``) draws no G. Every Q = G'G, in every family, is drawn by
``_gram_blocks`` and scaled to unit spectral norm by ``_certified_top``, within a relative
1e-14 of ``eigvalsh`` (its fallback).

What a draw holds at once: every Gram draw one ``_GRAM_BLOCK`` each of G and Q
(``_gram_blocks``' buffers, which every block overwrites; ``_certified_top`` squares in the
dead G block), and the freeze and evaluation no more of Q; a record block and a finite-sum
build their stored arrays (Q packed); ``_unit_2norm`` one block of squared rows. A
finite-sum evaluation holds f (a.x until a chunk overwrites it), its skip mask and one
``_EVAL_CHUNK`` of rows' temporaries. Every family runs on numpy alone: the Neyman-Pearson
logistic function is ``_expit``, built on libm's ``exp``.
"""

import csv
import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import BoxSet, serial_matmul
from .rng import CONSTRAINT_TAG, OBJECTIVE_TAG, TrainingStream, read_records
from .schedules import _check_count

__all__ = [
    "Dataset",
    "FullEval",
    "NeymanPearsonProblem",
    "ExpectationQcqpProblem",
    "FrozenQcqpProblem",
    "FiniteSumQcqpProblem",
    "BilinearSaddleProblem",
    "load_dataset",
    "standardize_columns",
    "preprocess",
    "make_synthetic_dataset",
    "make_npc",
    "make_qcqp_expectation",
    "make_qcqp_finite_sum",
    "make_bilinear_saddle",
]

_EVAL_CHUNK = 4096  # draws, or finite-sum rows, that an evaluation forms at once
_GRAM_BLOCK = 512  # G matrices drawn, H rows normed and Q matrices squared at once


class FullEval(NamedTuple):
    """Exact (or fresh-sample) evaluation of a point."""

    objective: float
    violations: np.ndarray
    viol_avg: float
    viol_max: float


def _full_eval(objective, raw_constraint_values):
    """The violations overwrite ``raw_constraint_values``, which every caller forms afresh."""
    v = np.asarray(raw_constraint_values, dtype=float)
    np.maximum(v, 0.0, out=v)
    return FullEval(float(objective), v, float(v.mean()), float(v.max()))


def _check_shapes(problem, **shapes):
    """Raise ValueError naming ``problem``'s first array not of its shape, or a box of dim != n."""
    for name, shape in shapes.items():
        if getattr(problem, name).shape != shape:
            raise ValueError(f"{name} has shape {getattr(problem, name).shape}, expected {shape}")
    if problem.box.dim != problem.n:
        raise ValueError(f"box dimension {problem.box.dim} does not match n={problem.n}")


def _tau(k, slack=0.0):
    """A certificate's relative margin over terms that pass through at most ``k`` roundings
    each: 100 (slack + k eps), a hundredfold the first-order bound k eps plus a relative
    ``slack`` of the data."""
    return 100 * (slack + k * np.finfo(float).eps)


def _subsample(rng, total, size):
    """``min(size, total)`` distinct indices of ``range(total)``, uniformly at random."""
    size = min(int(size), total)
    idx = rng.planned_choice(total, size) if isinstance(rng, TrainingStream) else None
    return rng.choice(total, size=size, replace=False) if idx is None else idx


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """Binary-labeled matrix of finite features; labels are +1/-1."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
        bad = np.argwhere(~np.isfinite(self.features))
        if bad.size:
            raise ValueError(f"feature at row {bad[0, 0]}, column {bad[0, 1]} is not finite")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"{self.features.shape[0]} rows"
            )
        bad = set(np.unique(self.labels)) - {-1, 1}
        if bad:
            raise ValueError(f"labels must be +1/-1, found {sorted(int(v) for v in bad)}")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def pos_count(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def neg_count(self) -> int:
        return int(np.sum(self.labels == -1))

    def positives(self):
        return self.features[self.labels == 1]

    def negatives(self):
        return self.features[self.labels == -1]


def _parse_label(token, lineno):
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"line {lineno}: cannot parse label {token!r}") from None
    if value == 1:
        return 1
    if value == -1 or value == 0:  # {1, 0} encodings map 0 to the negative class
        return -1
    raise ValueError(f"line {lineno}: unknown label {token!r} (expected +1/-1 or 1/0)")


def _load_dense_csv(lines):
    rows, labels = [], []
    width = None
    header_skipped = False
    for lineno, line in lines:
        cells = next(csv.reader([line]))
        cells = [c.strip() for c in cells]
        if not header_skipped:
            header_skipped = True
            try:
                [float(c) for c in cells]
            except ValueError:
                continue  # first line is a header
        if width is None:
            width = len(cells)
            if width < 2:
                raise ValueError(f"line {lineno}: need at least one feature and a label")
        elif len(cells) != width:
            raise ValueError(f"line {lineno}: expected {width} columns, got {len(cells)}")
        try:
            feats = [float(c) for c in cells[:-1]]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        rows.append(feats)
        labels.append(_parse_label(cells[-1], lineno))
    return rows, labels, None


def _load_sparse(lines):
    entries, labels = [], []
    max_index = 0
    for lineno, line in lines:
        tokens = line.split()
        labels.append(_parse_label(tokens[0], lineno))
        row = {}
        for tok in tokens[1:]:
            idx, sep, val = tok.partition(":")
            if not sep:
                raise ValueError(f"line {lineno}: malformed index:value token {tok!r}")
            try:
                i = int(idx)
                v = float(val)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed index:value token {tok!r}") from None
            if i < 1:
                raise ValueError(f"line {lineno}: indices are 1-based, got {i}")
            row[i - 1] = v
        max_index = max(max_index, max(row) + 1 if row else 0)
        entries.append(row)
    return entries, labels, max_index


def load_dataset(path, fmt="auto") -> Dataset:
    """Load a labeled dataset from ``path``.

    ``fmt`` is ``dense-csv`` (comma separated, optional header, label in the
    last column), ``sparse-index-value`` (label first, then 1-based
    ``index:value`` tokens, missing indices zero), or ``auto`` to sniff from
    the first data line. Labels may be +1/-1 or 1/0 (0 maps to -1). Parse
    errors name the offending line.
    """
    if fmt not in ("auto", "dense-csv", "sparse-index-value"):
        raise ValueError(f"unknown dataset format {fmt!r}")
    with open(path, "r", encoding="utf-8") as fh:
        numbered = [(i, ln.strip()) for i, ln in enumerate(fh, start=1)]
    numbered = [(i, ln) for i, ln in numbered if ln]
    if not numbered:
        raise ValueError(f"{path}: no data lines")
    if fmt == "auto":
        fmt = "sparse-index-value" if ":" in numbered[0][1] else "dense-csv"
    if fmt == "dense-csv":
        rows, labels, _ = _load_dense_csv(numbered)
        if not rows:
            raise ValueError(f"{path}: no data rows")
        features = np.asarray(rows, dtype=float)
    else:
        entries, labels, width = _load_sparse(numbered)
        if width == 0:
            raise ValueError(f"{path}: no feature entries found")
        features = np.zeros((len(entries), width))
        for r, row in enumerate(entries):
            for c, v in row.items():
                features[r, c] = v
    return Dataset(features=features, labels=np.asarray(labels, dtype=int))


def standardize_columns(features):
    """Center columns to mean zero, scale to standard deviation one.

    Constant columns carry no information and are dropped with a warning;
    the returned matrix keeps the remaining columns in order. Applying this
    twice is a no-op up to roundoff.
    """
    x = np.asarray(features, dtype=float)
    constant = x.max(axis=0) == x.min(axis=0)
    if constant.all():
        raise ValueError("every column is constant; nothing to standardize")
    if constant.any():
        dropped = np.flatnonzero(constant)
        warnings.warn(
            f"dropping {dropped.size} constant column(s): {dropped.tolist()[:20]}",
            stacklevel=2,
        )
        x = x[:, ~constant]
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    return (x - mean) / std


def preprocess(dataset: Dataset) -> Dataset:
    """Standardize columns, then scale every row to unit 2-norm.

    Column moments hold for the intermediate matrix; the final matrix has
    exactly unit rows (an all-zero row has no direction and is an error).
    """
    x = standardize_columns(dataset.features)
    norms = np.linalg.norm(x, axis=1)
    zero_rows = np.flatnonzero(norms == 0)
    if zero_rows.size:
        raise ValueError(f"row {int(zero_rows[0])} is all zeros after standardization")
    x = x / norms[:, None]
    return Dataset(features=x, labels=dataset.labels.copy())


def make_synthetic_dataset(dim, n_pos, n_neg, seed, separation=2.0) -> Dataset:
    """Two Gaussian clouds at +/- separation/2 along a random unit direction."""
    dim, n_pos, n_neg = map(_check_count, ("dim", "n_pos", "n_neg"), (dim, n_pos, n_neg))
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    center = 0.5 * separation * direction
    pos = rng.standard_normal((n_pos, dim)) + center
    neg = rng.standard_normal((n_neg, dim)) - center
    features = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
    return Dataset(features=features, labels=labels)


# ---------------------------------------------------------------------------
# binary classification with a bound on the negative-class surrogate loss


def _libm_exp(v):
    try:
        return math.exp(v)
    except OverflowError:  # libm's exp returns inf here
        return math.inf


def _expit(t):
    """The logistic function ``1 / (1 + exp(-t))`` of a 1-D array, with libm's ``exp``
    taken one element at a time through ``math.exp``: the bits of the C expression, which
    numpy's own SIMD ``exp`` misses in the last place on about 2 % of inputs. An ``exp``
    that overflows is libm's inf, so its element is exactly 0.0."""
    neg = (-t).tolist()
    try:
        e = np.fromiter(map(math.exp, neg), float, len(neg))
    except OverflowError:
        e = np.fromiter(map(_libm_exp, neg), float, len(neg))
    return 1.0 / (1.0 + e)


def _logistic_mean(t):
    """The mean of ``log(1 + exp(t))`` over the margins ``t``."""
    return float(np.mean(np.logaddexp(0.0, t)))


def _logistic_grad(t, rows):
    """The gradient in x of ``_logistic_mean(rows @ x)``, given ``t = rows @ x``."""
    return (_expit(t) @ rows) / rows.shape[0]


class NeymanPearsonProblem:
    """Minimize the positive-class logistic loss subject to a cap on the
    negative-class logistic loss.

        f0(x) = (1/n+) sum_i log(1 + exp(-x . a_i)),   a_i positive rows
        f1(x) = (1/n-) sum_i log(1 + exp( x . a_i)) - c_hat <= 0
        x in [-halfwidth, halfwidth]^d

    Per-sample estimates are exact subgradients of the sampled terms, so
    uniform mini-batches give unbiased estimates of both functions. The
    single constraint is itself a finite sum, so its exact value is
    computable per step (used by penalty-based baselines). Every gradient's logistic
    weights are ``_expit``'s: ``1 / (1 + exp(-t))`` with libm's ``exp``, the bits of the
    C expression on every input, 0.0 where ``exp`` overflows.
    """

    kind = "npc_finite_sum"
    deterministic = True
    num_constraints = 1

    def __init__(self, dataset: Dataset, c_hat, box=None):
        if dataset.pos_count == 0 or dataset.neg_count == 0:
            raise ValueError(
                f"both classes must be non-empty, got {dataset.pos_count} positive "
                f"and {dataset.neg_count} negative samples"
            )
        self._pos = np.ascontiguousarray(dataset.positives())
        self._neg = np.ascontiguousarray(dataset.negatives())
        self.c_hat = float(c_hat)
        if not self.c_hat > 0:  # the loss is positive: no x is feasible at such a level
            raise ValueError(f"constraint level c_hat={self.c_hat!r} must be positive")
        self.n = dataset.n_features
        self.box = box if box is not None else BoxSet.symmetric(self.n, 100.0)
        if self.box.dim != self.n:
            raise ValueError(f"box dimension {self.box.dim} does not match d={self.n}")

    # exact full quantities

    def full_objective(self, x) -> float:
        return _logistic_mean(-(self._pos @ x))

    def full_objective_grad(self, x):
        return -_logistic_grad(-(self._pos @ x), self._pos)

    def full_constraint_values(self, x):
        return np.array([_logistic_mean(self._neg @ x) - self.c_hat])

    def full_constraint_grads(self, x):
        return _logistic_grad(self._neg @ x, self._neg)[None, :]

    # sampled quantities

    def draw_plan(self, j0, j1):
        return (len(self._pos), j0), (len(self._neg), j1)

    def sample_objective_grad(self, x, j0, rng):
        rows = self._pos.take(_subsample(rng, len(self._pos), j0), axis=0)
        return -_logistic_grad(-(rows @ x), rows)

    def sample_constraint_block(self, x, j1, rng):
        rows = self._neg.take(_subsample(rng, len(self._neg), j1), axis=0)
        t = rows @ x
        value = _logistic_mean(t) - self.c_hat
        return np.array([0]), np.array([value]), _logistic_grad(t, rows)[None, :]

    def sample_constraint_block_exact(self, x, j1, rng):
        rows = self._neg.take(_subsample(rng, len(self._neg), j1), axis=0)
        return np.array([0]), self.full_constraint_values(x), _logistic_grad(rows @ x, rows)[None]

    def constraint_value_estimate(self, x, jg, rng) -> float:
        rows = self._neg.take(_subsample(rng, len(self._neg), jg), axis=0)
        return _logistic_mean(rows @ x) - self.c_hat

    def evaluate_full(self, x, seed=None) -> FullEval:
        return _full_eval(self.full_objective(x), self.full_constraint_values(x))


def make_npc(dataset, c_hat=None, c_target=None, kappa=0.0, box_halfwidth=100.0):
    """Build a NeymanPearsonProblem from a dataset.

    The constraint level may be given directly (``c_hat``) or as a target
    level shrunk by a confidence margin: ``c_hat = c_target - kappa/sqrt(n-)``
    with ``n-`` the negative-class size.
    """
    if (c_hat is None) == (c_target is None):
        raise ValueError("give exactly one of c_hat or c_target")
    if c_hat is None:
        c_hat = float(c_target) - float(kappa) / np.sqrt(dataset.neg_count)
    box = BoxSet.symmetric(dataset.n_features, box_halfwidth)
    return NeymanPearsonProblem(dataset, c_hat=c_hat, box=box)


# ---------------------------------------------------------------------------
# quadratically constrained quadratic programs over normalized Gaussian data


def _unit_2norm(v):
    """``v``'s rows divided in place by their 2-norms (zero rows stay zero), a row being all
    of ``v[i]`` (H's p x n entries at once). It squares ``_GRAM_BLOCK`` rows at a time, so
    it holds one block's squares, never all of ``v``'s."""
    rows = v.reshape(len(v), -1)
    for lo in range(0, len(v), _GRAM_BLOCK):
        block = rows[lo:lo + _GRAM_BLOCK]
        norms = np.linalg.norm(block, axis=-1, keepdims=True)
        norms[norms == 0] = 1.0
        block /= norms
    return v


def _draw_objective_terms(rng, count, p, n):
    h = _unit_2norm(rng.standard_normal((count, p, n)))
    return h, _unit_2norm(rng.standard_normal((count, p)))


def _eigvalsh_top(q):
    return np.linalg.eigvalsh(q)[:, -1]


def _certified_top(q, work=None):
    """Top eigenvalues of a stack of PSD matrices, each certified to a relative 1e-14.

    ``mu = v'Qv / v'v`` at ``v = P e_k``: P is Q squared 8 times (P ~ Q^256, scaled by
    its largest diagonal before the 1st and the 5th) and k indexes P's largest diagonal.
    With ``nu = v'Pv / (v'v tr P)`` and ``r = 1 - nu``, ``(lambda_max - mu) / lambda_max
    <= r^2 / (nu (1/n - r))`` if ``r < 1/n`` (Parlett, The Symmetric Eigenvalue Problem,
    ch. 4, 10). Matrices left above 1e-14 (~3 % of Wishart draws, a repeated top
    eigenvalue, zeros) take ``eigvalsh``. A matrix's result depends on it alone. It works
    in slabs, which keep the temporaries small: P squares from one half of ``work``, a
    (2, slab, n, n) buffer, to the other (``_GRAM_BLOCK``-matrix slabs if none is given).
    """
    top = np.empty(len(q))
    n = q.shape[-1]
    if work is None:
        work = np.empty((2, min(len(q), _GRAM_BLOCK), n, n))
    for lo in range(0, len(q), work.shape[1]):
        s = q[lo:lo + work.shape[1]]
        p, spare = work[0, :len(s)], work[1, :len(s)]
        with np.errstate(divide="ignore", invalid="ignore"):  # zero matrices fall back
            np.divide(s, np.einsum("sii->si", s).max(axis=1)[:, None, None], out=p)
            for i in range(8):
                p, spare = np.matmul(p, p, out=spare), p
                if i == 3:
                    p /= np.einsum("sii->si", p).max(axis=1)[:, None, None]
            d = np.einsum("sii->si", p)
            v = p[np.arange(len(p)), d.argmax(axis=1)][:, :, None]
            vt = v.transpose(0, 2, 1)
            vv = (vt @ v)[:, 0, 0]
            mu = (vt @ s @ v)[:, 0, 0] / vv
            nu = (vt @ p @ v)[:, 0, 0] / (vv * d.sum(axis=1))
            r = 1.0 - nu
            certified = (r < 1.0 / n) & (r * r <= 1e-14 * nu * (1.0 / n - r))
        mu[~certified] = _eigvalsh_top(s[~certified])
        top[lo:lo + len(s)] = mu
    return top


def _gram_blocks(rng, count, n):
    """``(lo, Q)`` for each ``_GRAM_BLOCK`` of ``count`` Gram matrices G'G scaled by
    ``_certified_top``: ``lo`` indexes Q's first matrix, and Q is one reused (block, n, n)
    buffer, which the next block overwrites. Each block's G is drawn into a second buffer
    (the same stream as one draw), in whose two halves ``_certified_top`` squares once G is
    dead. Each Q is bitwise symmetric, which the packed stores rely on: numpy sends G'G of
    one buffer to BLAS ``syrk``, which forms one triangle and mirrors it, and the scaling
    divides both triangles alike."""
    size = min(_GRAM_BLOCK, count)
    work = np.empty((2, -(-size // 2), n, n))  # G, then the two halves P squares between
    g, q = work.reshape(-1, n, n), np.empty((size, n, n))
    for lo in range(0, count, _GRAM_BLOCK):
        gb = rng.standard_normal(out=g[:min(size, count - lo)])
        block = np.matmul(gb.transpose(0, 2, 1), gb, out=q[:len(gb)])
        block /= np.maximum(_certified_top(block, work), 1e-300)[:, None, None]
        yield lo, block


class _Triangle(NamedTuple):
    """The packed layout of a symmetric n x n matrix: its upper triangle, row by row."""

    upper: np.ndarray   # (n(n+1)/2,) flat positions i*n + k, i <= k, of the packed entries
    unpack: np.ndarray  # (n^2,) packed index of entry (min(i, k), max(i, k)), for each i*n + k
    weight: np.ndarray  # (n(n+1)/2,) 1 on the diagonal, 2 off it: each entry's count in Q


@functools.lru_cache(maxsize=None)
def _triangle(n):
    i, k = np.triu_indices(n)
    unpack = np.empty((n, n), dtype=np.intp)
    unpack[i, k] = unpack[k, i] = np.arange(i.size)
    tri = _Triangle(i * n + k, unpack.ravel(), np.where(i == k, 1.0, 2.0))
    for arr in tri:
        arr.flags.writeable = False
    return tri


def _draw_packed_grams(rng, count, n):
    """``_gram_blocks``' matrices, each stored as its upper triangle: (count, n(n+1)/2)."""
    upper = _triangle(n).upper
    packed = np.empty((count, upper.size))
    for lo, q in _gram_blocks(rng, count, n):
        q.reshape(len(q), n * n).take(upper, axis=1, out=packed[lo:lo + len(q)])
    return packed


def _unit_coordinates(rng, dim, count):
    """``count`` draws of u / sqrt(u^2 + chi^2_{dim-1}), u ~ N(0, 1): a unit vector's e_1."""
    u = rng.standard_normal(count)
    return u / np.sqrt(u * u + (rng.chisquare(dim - 1, count) if dim > 1 else 0.0))


def _draw_linear_terms(rng, count, n):
    return _unit_2norm(rng.standard_normal((count, n))), rng.uniform(0.1, 1.1, size=count)


def _draw_constraint_terms(rng, count, n):
    return (_draw_packed_grams(rng, count, n), *_draw_linear_terms(rng, count, n))  # Q, a, b


# The mean gradient of 0.5 ||h x - c||^2, per-constraint values and gradients of
# 0.5 x'Qx + a.x - b; apart, so each caller computes only what it reads.


def _objective_grad_at(h, c, x):
    r = np.einsum("spn,n->sp", h, x) - c
    return np.einsum("spn,sp->n", h, r) / h.shape[0]


def _constraint_values_at(q, a, b, x):
    """Per-row values; ``a @ x`` goes through ``serial_matmul``, which has the bits
    of one single-thread gemv, at any row count and ``OPENBLAS_NUM_THREADS``."""
    return 0.5 * np.einsum("sij,i,j->s", q, x, x) + serial_matmul(a, x) - b


def _constraint_grads_at(q, a, x):
    return np.einsum("sij,j->si", q, x) + a


class ExpectationQcqpProblem:
    """Expectation-form QCQP over freshly drawn normalized Gaussian data.

        f0(x) = E[ 0.5 ||H x - c||^2 ],    H (p x n) unit Frobenius norm, c unit
        f1(x) = E[ 0.5 x'Qx + a.x - b ],   Q = G'G scaled to unit spectral
                                            norm, a unit, b ~ U(0.1, 1.1)
        x in [-10, 10]^n

    There is no finite instance: every oracle call reads new records (see the
    module docstring), and full evaluation uses a fresh batch of ``eval_samples``
    draws per function. Evaluation reads phase 1 and stops there when ``sum_i (0.5
    ||x||^2 + a_i.x - b_i)`` certifies the violation to be zero, so a passed Generator
    ends after phase 1; otherwise it reads on through phase 2. ``freeze`` reads both.
    """

    kind = "qcqp_expectation"
    deterministic = False
    num_constraints = 1

    def __init__(self, n, p, eval_samples=100_000):
        self.n = _check_count("n", n)
        self.p = _check_count("p", p)
        self.eval_samples = _check_count("eval_samples", eval_samples)
        self.box = BoxSet.symmetric(self.n, 10.0)

    def _objective_records(self, rng, count):
        return _draw_objective_terms(rng, count, self.p, self.n)

    def _constraint_records(self, rng, count):
        return _draw_constraint_terms(rng, count, self.n)

    def _constraint_at(self, x, count, rng):
        q, a, b = read_records(rng, CONSTRAINT_TAG, self._constraint_records, int(count))
        qbar = q.sum(axis=0).take(_triangle(self.n).unpack).reshape(self.n, self.n)
        qx, abar = qbar @ x / len(b), a.sum(axis=0) / len(b)
        return 0.5 * qx @ x + abar @ x - b.sum() / len(b), qx + abar

    def sample_objective_grad(self, x, j0, rng):
        h, c = read_records(rng, OBJECTIVE_TAG, self._objective_records, int(j0))
        return _objective_grad_at(h, c, x)

    def sample_constraint_block(self, x, j1, rng):
        value, grad = self._constraint_at(x, j1, rng)
        return np.array([0]), np.array([value]), grad[None, :]

    def constraint_value_estimate(self, x, jg, rng) -> float:
        return float(self._constraint_at(x, jg, rng)[0])

    def _draws(self, rng, total):
        """Phase 1 of ``freeze``: ``(h, c, a, b)`` for each ``_EVAL_CHUNK`` of ``total``
        fresh draws."""
        for lo in range(0, total, _EVAL_CHUNK):
            take = min(_EVAL_CHUNK, total - lo)
            h, c = _draw_objective_terms(rng, take, self.p, self.n)
            yield (h, c, *_draw_linear_terms(rng, take, self.n))

    def _eval_terms(self, rng, xx, total):
        """Phase 1 of ``evaluate_full``: per ``_EVAL_CHUNK`` of ``total`` draws, the f0 terms
        0.5 ||Hx - c||^2 = 0.5 (||Hx||^2 + 1) - c.Hx, a.x and b, at ``xx = x.x``."""
        n, p = self.n, self.p
        for lo in range(0, total, _EVAL_CHUNK):
            take = min(_EVAL_CHUNK, total - lo)
            s = rng.chisquare(p, take)
            hx2 = xx * (s / (s + (rng.chisquare(p * (n - 1), take) if n > 1 else 0.0)))
            chx = np.sqrt(hx2) * _unit_coordinates(rng, p, take)
            ax = np.sqrt(xx) * _unit_coordinates(rng, n, take)
            yield 0.5 * (hx2 + 1.0) - chx, ax, rng.uniform(0.1, 1.1, size=take)

    def evaluate_full(self, x, seed=None) -> FullEval:
        x = np.asarray(x, dtype=float)
        rng = np.random.default_rng(seed)
        total, xx = self.eval_samples, x @ x
        f0_sum = lin_sum = b_sum = 0.0
        for f0, ax, b in self._eval_terms(rng, xx, total):
            f0_sum += f0.sum()
            lin_sum += (ax - b).sum()
            b_sum += b.sum()
        if self._certifies_zero(0.5 * xx * total + lin_sum, xx, b_sum):
            return _full_eval(f0_sum / total, [0.0])
        quad_sum, quad = 0.0, np.empty(min(_EVAL_CHUNK, total))
        for lo, q in _gram_blocks(rng, total, self.n):
            at, end = lo % _EVAL_CHUNK, lo + len(q)
            quad[at:at + len(q)] = np.einsum("sij,i,j->s", q, x, x)
            if end % _EVAL_CHUNK == 0 or end == total:  # each chunk's values, summed at once
                quad_sum += quad[:at + len(q)].sum()
        return _full_eval(f0_sum / total, [(0.5 * quad_sum + lin_sum) / total])

    def _certifies_zero(self, u_sum, xx, b_sum):
        """Whether the phase-1 sum U = 0.5 ||x||^2 S + sum_i (a_i.x - b_i) over S draws
        proves that phase 2 would leave the mean f1 negative, its violation exactly 0.0.

        Each scaled Q has spectral norm at most 1 + 1e-13 (its normaliser is within 1e-14
        of the top eigenvalue, the divide adds sqrt(n) eps/2), so the exact phase-2 sum
        F = 0.5 sum_i x'Q_i x + sum_i (a_i.x - b_i) <= U + 1e-13 B, with B = sum_i
        (0.5 sqrt(n) ||x||^2 + ||x|| + b_i). Every term of U and F is at most its term of B
        (|x|'|Q||x| <= ||Q||_F ||x||^2, |a_i.x| <= ||x||) and passes through at most k =
        max(n^2, n + 6) + _EVAL_CHUNK + chunks + 1 roundings (x'Q_i x n^2 + 1 or a_i.x - b_i
        n + 7, as ||x|| v / sqrt(v^2 + w) - b_i; a chunk's sum _EVAL_CHUNK - 1, the chunks'
        sum `chunks`, the final add 1). So computed F <= computed U + (1e-13 + 1.01 k eps) B,
        and U < -tau B certifies, with tau = ``_tau(k, 1e-13)`` (1.0e-10 at n = 10, 1e5 draws).
        """
        n, total = self.n, self.eval_samples
        k = max(n * n, n + 6) + _EVAL_CHUNK + -(-total // _EVAL_CHUNK) + 1
        # a NaN or infinite x makes U NaN or +inf: it certifies nothing
        return u_sum < -_tau(k, 1e-13) * (total * (0.5 * np.sqrt(n) * xx + np.sqrt(xx)) + b_sum)

    def freeze(self, n_samples=100_000, seed=0) -> "FrozenQcqpProblem":
        """Exact sample-average instance over ``n_samples`` fresh draws.

        Both sampled functions are quadratics, so their sample averages are
        captured exactly by streaming aggregate matrices; no draw is stored.
        """
        n_samples, n = _check_count("n_samples", n_samples), self.n
        amat = np.zeros((n, n))
        rvec = np.zeros(n)
        s0 = 0.0
        qbar = np.zeros((n, n))
        abar = np.zeros(n)
        bbar = 0.0
        rng = np.random.default_rng(seed)
        for h, c, a, b in self._draws(rng, n_samples):
            amat += np.einsum("spn,spm->nm", h, h)
            rvec += np.einsum("spn,sp->n", h, c)
            s0 += 0.5 * float(np.sum(c * c))
            abar += a.sum(axis=0)
            bbar += float(b.sum())
            del h, c  # not held through the next chunk's draw
        for lo, q in _gram_blocks(rng, n_samples, n):
            if lo % _EVAL_CHUNK:  # numpy's sequential axis-0 sum of the chunk, continued
                q[0] += chunk
            chunk, end = q.sum(axis=0), lo + len(q)
            if end % _EVAL_CHUNK == 0 or end == n_samples:
                qbar += chunk
        return FrozenQcqpProblem(
            amat / n_samples, rvec / n_samples, s0 / n_samples,
            qbar / n_samples, abar / n_samples, bbar / n_samples,
            box=self.box,
        )


class _AggregatedQuadratic:
    """The exact objective ``f0(x) = 0.5 x'Ax - r.x + s0`` of a QCQP that holds its
    aggregates ``amat``, ``rvec`` and ``s0``."""

    def full_objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.amat @ x - self.rvec @ x + self.s0)

    def full_objective_grad(self, x):
        return self.amat @ x - self.rvec


class FrozenQcqpProblem(_AggregatedQuadratic):
    """Deterministic aggregated QCQP: the exact sample average of an
    expectation-form instance, in closed form.

        f0(x) = 0.5 x'Ax - r.x + s0,    f1(x) = 0.5 x'Qx + a.x - b

    Used as the reference target for expectation problems; it exposes only
    the exact interface (no sampling).
    """

    kind = "qcqp_frozen"
    deterministic = True
    num_constraints = 1

    def __init__(self, amat, rvec, s0, q, a, b, box):
        self.amat = np.asarray(amat, dtype=float)
        self.rvec = np.asarray(rvec, dtype=float)
        self.s0 = float(s0)
        self.q = np.asarray(q, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = float(b)
        n = self.n = self.rvec.size
        self.box = box
        _check_shapes(self, amat=(n, n), rvec=(n,), q=(n, n), a=(n,))

    def full_constraint_values(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([0.5 * x @ self.q @ x + self.a @ x - self.b])

    def full_constraint_grads(self, x):
        return (self.q @ x + self.a)[None, :]

    def evaluate_full(self, x, seed=None) -> FullEval:
        return _full_eval(self.full_objective(x), self.full_constraint_values(x))


def make_qcqp_expectation(n, p, eval_samples=100_000):
    """Expectation-form QCQP; see ExpectationQcqpProblem."""
    return ExpectationQcqpProblem(n, p, eval_samples=eval_samples)


class FiniteSumQcqpProblem(_AggregatedQuadratic):
    """Finite-sum QCQP with N objective terms and M quadratic constraints.

        f0(x) = (1/N) sum_i 0.5 ||H_i x - c_i||^2
        f_j(x) = 0.5 x'Q_j x + a_j . x - b_j <= 0,   j = 1..M
        x in [-10, 10]^n

    Data follows the expectation form's normalized Gaussian law, Q_j scaled by its
    ``_certified_top``. The objective aggregates to a single quadratic (precomputed),
    so exact evaluation is O(n^2) regardless of N. Constraint subsampling is uniform
    without replacement; sampled values are exact, so this family supports
    penalty-based baselines directly.

    Each symmetric Q_j is stored once, as its upper triangle: ``q_upper`` is (M, n(n+1)/2),
    row j holding Q_j's entries (i, k), i <= k, row by row (``_triangle``). ``q`` may be
    given so packed or as a full (M, n, n) stack, which must be bitwise symmetric. A
    computation unpacks only the rows it reads, into C-contiguous blocks of at most
    ``_GRAM_BLOCK`` matrices, so each row gets the bits the whole stack gave it; the ``q``
    property materializes all M n^2 floats, for tests and hand-built comparisons.
    ``q_norm[j] = ||Q_j||_F``, at least Q_j's spectral norm, bounds the rows that
    ``screened_constraint_values`` skips.
    """

    kind = "qcqp_finite_sum"
    deterministic = True

    def __init__(self, h, c, q, a, b, box=None):
        self.h = np.asarray(h, dtype=float)
        self.c = np.asarray(c, dtype=float)
        q = np.asarray(q, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.h.ndim != 3 or q.ndim not in (2, 3):
            raise ValueError("h must be (N, p, n) and q must be (M, n, n) or (M, n(n+1)/2)")
        nn, p, n = self.h.shape
        m = self.num_constraints = q.shape[0]
        self.num_objective_terms, self.n = nn, n
        self.box = box if box is not None else BoxSet.symmetric(n, 10.0)
        tri = _triangle(n)
        if q.ndim == 3:
            if q.shape != (m, n, n):
                raise ValueError(f"q has shape {q.shape}, expected {(m, n, n)}")
            if not np.array_equal(q, q.transpose(0, 2, 1), equal_nan=True):
                raise ValueError("q must be a stack of symmetric matrices")
            q = q.reshape(m, n * n).take(tri.upper, axis=1)
        self.q_upper = q
        _check_shapes(self, c=(nn, p), q_upper=(m, tri.upper.size), a=(m, n), b=(m,))
        self.q_norm = np.sqrt(np.einsum("st,st,t->s", q, q, tri.weight))
        # exact aggregates: f0 is itself a quadratic
        self.amat = np.einsum("ipn,ipm->nm", self.h, self.h) / self.num_objective_terms
        self.rvec = np.einsum("ipn,ip->n", self.h, self.c) / self.num_objective_terms
        self.s0 = 0.5 * float(np.mean(np.sum(self.c * self.c, axis=1)))

    @property
    def q(self):
        """The (M, n, n) stack of constraint matrices, materialized (read-only)."""
        q = self._unpack(self.q_upper)
        q.flags.writeable = False
        return q

    def _unpack(self, upper):
        """Packed rows ``upper`` (k, n(n+1)/2) as a C-contiguous (k, n, n) stack (a strided
        one, as fancy indexing gives, would change the einsum bits)."""
        return upper.take(_triangle(self.n).unpack, axis=1).reshape(len(upper), self.n, self.n)

    def _rows(self, idx):
        """(Q_j, a_j) of the constraints ``idx``, Q unpacked."""
        return self._unpack(self.q_upper.take(idx, axis=0)), self.a.take(idx, axis=0)

    def _exact_values(self, x, ax, rows):
        """f_j(x) of the constraint indices ``rows``, given every a_j.x in ``ax``: per row the
        arithmetic of ``_constraint_values_at`` on the whole stack, with its bits. The rows
        are unpacked ``_GRAM_BLOCK`` at a time; every exact value is formed here."""
        quad = np.empty(len(rows))
        for lo in range(0, len(rows), _GRAM_BLOCK):
            q = self._unpack(self.q_upper.take(rows[lo:lo + _GRAM_BLOCK], axis=0))
            quad[lo:lo + len(q)] = np.einsum("sij,i,j->s", q, x, x)
            del q  # else it is held while the next block is unpacked
        return 0.5 * quad + ax[rows] - self.b[rows]

    # exact full quantities

    def exact_constraint_values(self, x, f, mask=None):
        """``f`` with f_j(x) written over every row, where ``f`` holds a.x on entry, or over
        the rows of ``mask``, with a.x formed here once; ``_EVAL_CHUNK`` rows at a time."""
        x = np.asarray(x, dtype=float)
        ax, m = f if mask is None else serial_matmul(self.a, x), self.num_constraints
        for lo in range(0, m, _EVAL_CHUNK):
            hi = min(lo + _EVAL_CHUNK, m)
            rows = np.arange(lo, hi) if mask is None else lo + np.flatnonzero(mask[lo:hi])
            f[rows] = self._exact_values(x, ax, rows)
        return f

    def full_constraint_values(self, x):
        x = np.asarray(x, dtype=float)
        return self.exact_constraint_values(x, serial_matmul(self.a, x))

    def full_constraint_grads(self, x):
        x = np.asarray(x, dtype=float)
        grads = np.empty((self.num_constraints, self.n))
        for lo in range(0, self.num_constraints, _GRAM_BLOCK):
            q = self._unpack(self.q_upper[lo:lo + _GRAM_BLOCK])
            grads[lo:lo + len(q)] = _constraint_grads_at(q, self.a[lo:lo + len(q)], x)
        return grads

    def screened_constraint_values(self, x, keep=None):
        """``(f, skipped)``: ``full_constraint_values(x)``, except on the rows ``skipped``,
        which the certificate below proves negative and ``keep`` (a mask) does not mark;
        each skipped f_j holds its bound u_j < 0 instead of its value.

        |x'Q_j x| <= L_j ||x||^2 with L_j = ``q_norm[j]``, so u_j = 0.5 L_j ||x||^2 + a_j.x
        - b_j bounds f_j. Every term of both is at most its term of B_j = L_j ||x||^2 +
        |a_j.x| + |b_j| (|x|'|Q_j||x| <= ||Q_j||_F ||x||^2), and both share the computed
        a_j.x. Past it, the computed f_j passes through n^2 + 3 roundings (x'Q_j x n^2 + 1,
        then + a_j.x and - b_j) and u_j through n(n+1)/2 + n + 5 (L_j's sum of squares and
        its root, ||x||^2, the product, then 2). So a computed u_j < -tau B_j, with tau =
        ``_tau(k)`` for k the sum of both counts, proves the computed f_j negative: its
        violation is exactly 0.0 (subnormal operands aside). A NaN or infinite x, or a NaN
        row, certifies nothing.
        """
        x = np.asarray(x, dtype=float)
        n, xx, f = self.n, x @ x, serial_matmul(self.a, x)
        tau = _tau(n * n + 3 + n * (n + 1) // 2 + n + 5)
        skipped = np.empty(self.num_constraints, dtype=bool)
        # f holds a.x until a chunk overwrites its rows, so it is the one M-float array:
        # per chunk u = 0.5 lxx + ax - b and margin = -tau (lxx + |ax| + |b|), in place
        for lo in range(0, self.num_constraints, _EVAL_CHUNK):
            ax, b = f[lo:lo + _EVAL_CHUNK], self.b[lo:lo + _EVAL_CHUNK]
            lxx = self.q_norm[lo:lo + _EVAL_CHUNK] * xx
            u = np.multiply(lxx, 0.5)
            u += ax
            u -= b
            margin = np.abs(ax)
            margin += lxx
            margin += np.abs(b, out=lxx)
            margin *= -tau
            skip = np.less(u, margin, out=skipped[lo:lo + _EVAL_CHUNK])
            if keep is not None:
                skip &= ~keep[lo:lo + _EVAL_CHUNK]
            kept = np.flatnonzero(~skip)
            u[kept] = self._exact_values(x, f, lo + kept)
            ax[:] = u
        return f, skipped

    # sampled quantities

    def draw_plan(self, j0, j1):
        return (self.num_objective_terms, j0), (self.num_constraints, j1)

    def sample_objective_grad(self, x, j0, rng):
        idx = _subsample(rng, self.num_objective_terms, j0)
        return _objective_grad_at(self.h.take(idx, axis=0), self.c.take(idx, axis=0), x)

    def sample_constraint_block(self, x, j1, rng):
        idx = _subsample(rng, self.num_constraints, j1)
        q, a = self._rows(idx)
        return idx, _constraint_values_at(q, a, self.b.take(idx), x), _constraint_grads_at(q, a, x)

    sample_constraint_block_exact = sample_constraint_block

    def constraint_value_estimate(self, x, jg, rng) -> float:
        idx = _subsample(rng, self.num_constraints, jg)
        values = _constraint_values_at(*self._rows(idx), self.b.take(idx), x)
        return float(np.sum(np.maximum(values, 0.0)) * (self.num_constraints / idx.size))

    def evaluate_full(self, x, seed=None) -> FullEval:
        # a skipped row's bound is negative: its violation is 0.0, as its value gives
        return _full_eval(self.full_objective(x), self.screened_constraint_values(x)[0])


def make_qcqp_finite_sum(n, p, num_objective_terms, num_constraints, seed,
                         max_elements=250_000_000):
    """Draw a finite-sum QCQP instance; generation is seed-deterministic.

    Draws H, c, then G a block at a time (each Q = G'G / ``_certified_top``, stored as its
    upper triangle), then a, b. Refuses instances whose stored arrays would exceed
    ``max_elements`` floats (M n(n+1)/2 for Q); the budget bounds peak build memory too:
    the stored arrays plus a block.
    """
    n, p = _check_count("n", n), _check_count("p", p)
    nn, mm = _check_count("N", num_objective_terms), _check_count("M", num_constraints)
    elements = nn * p * n + nn * p + mm * n * (n + 1) // 2 + mm * n + mm
    if elements > max_elements:
        raise ValueError(
            f"instance would store {elements} floats, over the {max_elements} budget")
    rng = np.random.default_rng(seed)
    h, c = _draw_objective_terms(rng, nn, p, n)
    q = _draw_packed_grams(rng, mm, n)
    return FiniteSumQcqpProblem(h, c, q, *_draw_linear_terms(rng, mm, n))


# ---------------------------------------------------------------------------
# bilinear saddle problems


class BilinearSaddleProblem:
    """Bilinear saddle game over boxes, with optional Gaussian oracle noise.

        min_{x in [-1,1]^n} max_{z in [-1,1]^m}  x'Az + b.x - c.z

    ``A`` has unit spectral norm and ``b``, ``c`` unit 2-norm (when built by
    ``make_bilinear_saddle``). The gap of a pair is available in closed form
    because inner optimization of a linear form over a box is its support
    function.
    """

    kind = "bilinear_saddle"
    deterministic = False

    def __init__(self, a_mat, b, c, noise_sigma=0.0, box_x=None, box_z=None):
        self.a_mat = np.asarray(a_mat, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        if self.a_mat.shape != (self.b.size, self.c.size):
            raise ValueError(
                f"coupling matrix shape {self.a_mat.shape} does not match "
                f"b ({self.b.size}) and c ({self.c.size})"
            )
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma!r}")
        self.noise_sigma = float(noise_sigma)
        self.n = self.b.size
        self.m = self.c.size
        self.box_x = box_x if box_x is not None else BoxSet.symmetric(self.n, 1.0)
        self.box_z = box_z if box_z is not None else BoxSet.symmetric(self.m, 1.0)

    def lagrangian(self, x, z) -> float:
        return float(x @ self.a_mat @ z + self.b @ x - self.c @ z)

    def exact_grads(self, x, z):
        return self.a_mat @ z + self.b, self.a_mat.T @ x - self.c

    def sample_grads(self, x, z, rng):
        # one noise draw for the min block, then one for the max block
        u, w = self.exact_grads(x, z)
        if self.noise_sigma > 0:
            u = u + self.noise_sigma * rng.standard_normal(self.n)
            w = w + self.noise_sigma * rng.standard_normal(self.m)
        return u, w

    def gap(self, x, z) -> float:
        """max_z' L(x, z') - min_x' L(x', z), both inner problems exact."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        best_response_max = self.b @ x + self.box_z.support(self.a_mat.T @ x - self.c)
        best_response_min = -self.c @ z - self.box_x.support(-(self.a_mat @ z + self.b))
        return float(best_response_max - best_response_min)


def make_bilinear_saddle(n, m, seed, noise_sigma=0.0) -> BilinearSaddleProblem:
    """Draw a bilinear saddle instance: A scaled to unit spectral norm,
    b and c to unit 2-norm. Generation is seed-deterministic."""
    n, m = _check_count("n", n), _check_count("m", m)
    rng = np.random.default_rng(seed)
    a_mat = rng.standard_normal((n, m))
    a_mat /= max(np.linalg.norm(a_mat, 2), 1e-300)
    b = rng.standard_normal(n)
    b /= max(np.linalg.norm(b), 1e-300)
    c = rng.standard_normal(m)
    c /= max(np.linalg.norm(c), 1e-300)
    return BilinearSaddleProblem(a_mat, b, c, noise_sigma=noise_sigma)
