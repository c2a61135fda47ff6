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
        and subgradient estimates (|S|, n); all raw, the oracle layer applies
        the M/|S| reweighting
    constraint_value_estimate(x, jg, rng) -> unbiased aggregate-violation
        estimate (single constraint: plain estimate of f1, sign kept)
    evaluate_full(x, seed=None)         -> FullEval

Deterministic problems additionally expose exact full quantities
(``full_objective``, ``full_objective_grad``, ``full_constraint_values``,
``full_constraint_grads``) consumed by the reference solver, and
``sample_constraint_block_exact`` (exact values, unbiased gradients) consumed
by penalty-based baselines. Saddle problems follow a different, smaller
contract (see ``BilinearSaddleProblem``).

Sampling determinism: each sampling method consumes its generator in a fixed
documented order (objective draws: matrices then vectors; constraint draws:
quadratic terms, then linear terms, then offsets), so one seed reproduces a
run bit for bit. The expectation QCQP's sampled evaluation and its freeze
read their draws from one chunked generator, ``ExpectationQcqpProblem._draws``,
so that order is written once; finite families subsample through
``_subsample``. The expectation QCQP's training oracles read the next j records
of their own stream (``rng.read_records``), (H, c) for the objective and
(Q, a, b) for the constraint, drawn a block at a time by the same draw
functions; a plain Generator gives j fresh records a call. The constraint
oracles evaluate once, at the records' mean Q, a and b. Each drawn Q = G'G is
scaled to unit spectral norm, by ``_certified_top`` in expectation draws and by
``eigvalsh`` in finite-sum instances. A sampled evaluation at a point whose
violation a Q-free bound certifies to be zero forms no Q at all: it draws each
G only to advance the stream (``ExpectationQcqpProblem._certified_eval``).
"""

import csv
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .kernels import BoxSet
from .rng import CONSTRAINT_TAG, OBJECTIVE_TAG, read_records

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
    "save_instance",
    "load_instance",
]

_EVAL_CHUNK = 4096


class FullEval(NamedTuple):
    """Exact (or fresh-sample) evaluation of a point."""

    objective: float
    violations: np.ndarray
    viol_avg: float
    viol_max: float


def _full_eval(objective, raw_constraint_values):
    v = np.maximum(np.asarray(raw_constraint_values, dtype=float), 0.0)
    return FullEval(float(objective), v, float(v.mean()), float(v.max()))


def _subsample(rng, total, size):
    """``min(size, total)`` distinct indices of ``range(total)``, uniformly at random."""
    return rng.choice(total, size=min(int(size), total), replace=False)


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """Binary-labeled feature matrix; labels are +1/-1."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
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
    if n_pos < 1 or n_neg < 1:
        raise ValueError("both classes need at least one sample")
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


def _softplus(t):
    return np.logaddexp(0.0, t)


class NeymanPearsonProblem:
    """Minimize the positive-class logistic loss subject to a cap on the
    negative-class logistic loss.

        f0(x) = (1/n+) sum_i log(1 + exp(-x . a_i)),   a_i positive rows
        f1(x) = (1/n-) sum_i log(1 + exp( x . a_i)) - c_hat <= 0
        x in [-halfwidth, halfwidth]^d

    Per-sample estimates are exact subgradients of the sampled terms, so
    uniform mini-batches give unbiased estimates of both functions. The
    single constraint is itself a finite sum, so its exact value is
    computable per step (used by penalty-based baselines).
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
        if self.c_hat <= 0:
            warnings.warn(
                f"constraint level c_hat={self.c_hat:.6g} is not positive; the "
                "constraint cannot be satisfied at any x with zero loss margin",
                stacklevel=2,
            )
        self.n = dataset.n_features
        self.box = box if box is not None else BoxSet.symmetric(self.n, 100.0)
        if self.box.dim != self.n:
            raise ValueError(f"box dimension {self.box.dim} does not match d={self.n}")

    # exact full quantities

    def full_objective(self, x) -> float:
        return float(np.mean(_softplus(-(self._pos @ x))))

    def full_objective_grad(self, x):
        t = self._pos @ x
        return -(expit(-t) @ self._pos) / self._pos.shape[0]

    def full_constraint_values(self, x):
        return np.array([np.mean(_softplus(self._neg @ x)) - self.c_hat])

    def full_constraint_grads(self, x):
        t = self._neg @ x
        return ((expit(t) @ self._neg) / self._neg.shape[0])[None, :]

    @property
    def dataset(self) -> Dataset:
        """The positive rows, then the negative ones, as one labelled dataset."""
        labels = np.repeat([1, -1], [len(self._pos), len(self._neg)])
        return Dataset(features=np.vstack([self._pos, self._neg]), labels=labels)

    # sampled quantities

    def sample_objective_grad(self, x, j0, rng):
        rows = self._pos[_subsample(rng, len(self._pos), j0)]
        t = rows @ x
        return -(expit(-t) @ rows) / rows.shape[0]

    def sample_constraint_block(self, x, j1, rng):
        rows = self._neg[_subsample(rng, len(self._neg), j1)]
        t = rows @ x
        value = float(np.mean(_softplus(t))) - self.c_hat
        grad = (expit(t) @ rows) / rows.shape[0]
        return np.array([0]), np.array([value]), grad[None, :]

    def sample_constraint_block_exact(self, x, j1, rng):
        support, _, grads = self.sample_constraint_block(x, j1, rng)
        return support, self.full_constraint_values(x), grads

    def constraint_value_estimate(self, x, jg, rng) -> float:
        rows = self._neg[_subsample(rng, len(self._neg), jg)]
        return float(np.mean(_softplus(rows @ x))) - self.c_hat

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


def _unit_2norm(v, axis=-1):
    norms = np.linalg.norm(v, axis=axis, keepdims=True)
    norms[norms == 0] = 1.0
    return v / norms


def _draw_objective_terms(rng, count, p, n, h_normalization):
    h = rng.standard_normal((count, p, n))
    if h_normalization == "fro":
        h = h / np.maximum(np.sqrt(np.sum(h * h, axis=(1, 2), keepdims=True)), 1e-300)
    elif h_normalization == "spectral":
        top = np.linalg.svd(h, compute_uv=False)[:, 0]
        h = h / np.maximum(top, 1e-300)[:, None, None]
    else:
        raise ValueError(f"unknown h_normalization {h_normalization!r}")
    c = _unit_2norm(rng.standard_normal((count, p)))
    return h, c


def _eigvalsh_top(q):
    return np.linalg.eigvalsh(q)[:, -1]


def _certified_top(q):
    """Top eigenvalues of a stack of PSD matrices, each certified to a relative 1e-14.

    ``mu = v'Qv / v'v`` at ``v = P e_k``: P is Q squared 8 times (P ~ Q^256, scaled by
    its largest diagonal before the 1st and the 5th) and k indexes P's largest diagonal.
    With ``nu = v'Pv / (v'v tr P)`` and ``r = 1 - nu``, ``(lambda_max - mu) / lambda_max
    <= r^2 / (nu (1/n - r))`` if ``r < 1/n`` (Parlett, The Symmetric Eigenvalue Problem,
    ch. 4, 10). Matrices left above 1e-14 (~3 % of Wishart draws, a repeated top
    eigenvalue, zeros) take ``eigvalsh``. A matrix's result depends on it alone.
    """
    top = np.empty(len(q))
    n = q.shape[-1]
    for lo in range(0, len(q), 512):
        s = q[lo:lo + 512]  # slabs keep the temporaries small
        with np.errstate(divide="ignore", invalid="ignore"):  # zero matrices fall back
            p = s / np.einsum("sii->si", s).max(axis=1)[:, None, None]
            for i in range(8):
                p = p @ p
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


def _draw_constraint_terms(rng, count, n, top=_eigvalsh_top):
    # G is drawn _EVAL_CHUNK rows at a time (the same stream as one draw) and each block's
    # Gram matrices go into q, scaled by ``top``'s eigenvalues: q plus one block live at once.
    # ``top=None`` draws G only to advance the stream and returns q as None.
    q = None
    for lo in range(0, count, _EVAL_CHUNK):
        g = rng.standard_normal((min(_EVAL_CHUNK, count - lo), n, n))
        if top is None:
            continue
        q = np.empty((count, n, n)) if q is None else q  # after the first draw: lower peak
        block = np.matmul(g.transpose(0, 2, 1), g, out=q[lo:lo + len(g)])
        del g
        block /= np.maximum(top(block), 1e-300)[:, None, None]
    a = _unit_2norm(rng.standard_normal((count, n)))
    b = rng.uniform(0.1, 1.1, size=count)
    return q, a, b


# Per-sample values of 0.5 ||h x - c||^2 and their mean gradient, per-constraint values
# and gradients of 0.5 x'Qx + a.x - b; apart, so each caller computes only what it reads.


def _objective_values_at(h, c, x):
    r = np.einsum("spn,n->sp", h, x) - c
    return 0.5 * np.einsum("sp,sp->s", r, r)


def _objective_grad_at(h, c, x):
    r = np.einsum("spn,n->sp", h, x) - c
    return np.einsum("spn,sp->n", h, r) / h.shape[0]


def _constraint_values_at(q, a, b, x):
    return 0.5 * np.einsum("sij,i,j->s", q, x, x) + a @ x - b


def _constraint_grads_at(q, a, x):
    return np.einsum("sij,j->si", q, x) + a


class ExpectationQcqpProblem:
    """Expectation-form QCQP over freshly drawn normalized Gaussian data.

        f0(x) = E[ 0.5 ||H x - c||^2 ],    H (p x n) unit Frobenius norm
                                            (or unit spectral norm), c unit
        f1(x) = E[ 0.5 x'Qx + a.x - b ],   Q = G'G scaled to unit spectral
                                            norm, a unit, b ~ U(0.1, 1.1)
        x in [-10, 10]^n

    There is no finite instance: every oracle call reads new records (see the
    module docstring), and full evaluation uses a fresh batch of ``eval_samples``
    draws per function. Every draw scales its Q by ``_certified_top`` (within a
    relative 1e-14 of ``eigvalsh``, faster in bulk).
    Evaluation reads its draws without forming Q first, and stops there when
    ``sum_i (0.5 ||x||^2 + a_i.x - b_i)`` certifies the violation to be zero;
    otherwise it rewinds the generator and reads the same draws with Q.
    """

    kind = "qcqp_expectation"
    deterministic = False
    num_constraints = 1

    def __init__(self, n, p, eval_samples=100_000, h_normalization="fro"):
        if n < 1 or p < 1:
            raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
        if h_normalization not in ("fro", "spectral"):
            raise ValueError(f"unknown h_normalization {h_normalization!r}")
        if eval_samples < 1:
            raise ValueError(f"eval_samples must be positive, got {eval_samples!r}")
        self.n = int(n)
        self.p = int(p)
        self.eval_samples = int(eval_samples)
        self.h_normalization = h_normalization
        self.box = BoxSet.symmetric(self.n, 10.0)

    def _objective_records(self, rng, count):
        return _draw_objective_terms(rng, count, self.p, self.n, self.h_normalization)

    def _constraint_records(self, rng, count):
        return _draw_constraint_terms(rng, count, self.n, top=_certified_top)

    def _constraint_at(self, x, count, rng):
        q, a, b = read_records(rng, CONSTRAINT_TAG, self._constraint_records, int(count))
        qx, abar = q.sum(axis=0) @ x / len(b), a.sum(axis=0) / len(b)
        return 0.5 * qx @ x + abar @ x - b.sum() / len(b), qx + abar

    def sample_objective_grad(self, x, j0, rng):
        h, c = read_records(rng, OBJECTIVE_TAG, self._objective_records, int(j0))
        return _objective_grad_at(h, c, x)

    def sample_constraint_block(self, x, j1, rng):
        value, grad = self._constraint_at(x, j1, rng)
        return np.array([0]), np.array([value]), grad[None, :]

    def constraint_value_estimate(self, x, jg, rng) -> float:
        return float(self._constraint_at(x, jg, rng)[0])

    def _draws(self, rng, total, gram=True):
        """``(h, c, q, a, b)`` for ``total`` fresh draws, ``_EVAL_CHUNK`` at a time: the
        one draw order that ``evaluate_full`` and ``freeze`` share, Q by ``_certified_top``.
        ``gram=False`` reads the same stream but forms no Q (q is None)."""
        for lo in range(0, total, _EVAL_CHUNK):
            take = min(_EVAL_CHUNK, total - lo)
            h, c = _draw_objective_terms(rng, take, self.p, self.n, self.h_normalization)
            top = _certified_top if gram else None
            yield (h, c, *_draw_constraint_terms(rng, take, self.n, top=top))

    def evaluate_full(self, x, seed=None) -> FullEval:
        x = np.asarray(x, dtype=float)
        rng = np.random.default_rng(seed)
        start = rng.bit_generator.state
        certified = self._certified_eval(x, rng)
        if certified is not None:
            return certified
        rng.bit_generator.state = start  # rewound, not re-seeded: a passed Generator too
        return self._sampled_eval(x, rng)

    def _sampled_eval(self, x, rng) -> FullEval:
        f0_sum = 0.0
        f1_sum = 0.0
        total = self.eval_samples
        for h, c, q, a, b in self._draws(rng, total):
            f0_sum += _objective_values_at(h, c, x).sum()
            f1_sum += _constraint_values_at(q, a, b, x).sum()
            del h, c  # not held through the next chunk's constraint draw
        return _full_eval(f0_sum / total, np.array([f1_sum / total]))

    def _certified_eval(self, x, rng):
        """``_sampled_eval``'s result, read from the same draws without forming Q, when
        their mean f1 is certified negative; None otherwise.

        Each scaled Q has spectral norm at most 1 + 1e-13 (its normaliser is within 1e-14
        of the top eigenvalue, the divide adds sqrt(n) eps/2), so the sum of f1 is at most
        U + 1e-13 S, where U = sum_i (0.5 ||x||^2 + a_i.x - b_i) needs no Q and
        S = sum_i (0.5 sqrt(n) ||x||^2 + ||x|| + b_i). Each term of either sum has size at
        most its term of S (|x|'|Q||x| <= ||Q||_F ||x||^2) and passes through at most
        k = n^2 + n + _EVAL_CHUNK + chunks + 4 roundings, so each computed sum lies within
        k eps/2 S of its exact value. A computed U < -tau S, tau = 100 (1e-13 + k eps)
        (1.0e-10 at n = 10 and 1e5 draws), so leaves the full pass's mean f1 negative and
        its violation max(f1, 0) exactly 0.0.
        """
        n, total = self.n, self.eval_samples
        xx = x @ x
        # E[f1] <= 0.5 ||x||^2 - E[b] with E[b] = 0.6, so no other point tries (and draws
        # nothing). A NaN or infinite x fails this `<` too
        if not 0.5 * xx < 0.6:
            return None
        f0_sum = u_sum = b_sum = 0.0
        for h, c, _, a, b in self._draws(rng, total, gram=False):
            f0_sum += _objective_values_at(h, c, x).sum()
            u_sum += (0.5 * xx + a @ x - b).sum()
            b_sum += b.sum()
            del h, c
        k = n * n + n + _EVAL_CHUNK + -(-total // _EVAL_CHUNK) + 4
        tau = 100 * (1e-13 + k * np.finfo(float).eps)
        if not u_sum < -tau * (total * (0.5 * np.sqrt(n) * xx + np.sqrt(xx)) + b_sum):
            return None  # a NaN bound certifies nothing
        return _full_eval(f0_sum / total, np.array([u_sum / total]))  # its max(., 0) is 0.0

    def freeze(self, n_samples=100_000, seed=0) -> "FrozenQcqpProblem":
        """Exact sample-average instance over ``n_samples`` fresh draws.

        Both sampled functions are quadratics, so their sample averages are
        captured exactly by streaming aggregate matrices; no draw is stored.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be positive, got {n_samples!r}")
        n = self.n
        amat = np.zeros((n, n))
        rvec = np.zeros(n)
        s0 = 0.0
        qbar = np.zeros((n, n))
        abar = np.zeros(n)
        bbar = 0.0
        for h, c, q, a, b in self._draws(np.random.default_rng(seed), n_samples):
            amat += np.einsum("spn,spm->nm", h, h)
            rvec += np.einsum("spn,sp->n", h, c)
            s0 += 0.5 * float(np.sum(c * c))
            qbar += q.sum(axis=0)
            abar += a.sum(axis=0)
            bbar += float(b.sum())
            del h, c  # not held through the next chunk's constraint draw
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
        self.n = self.rvec.size
        self.box = box

    def full_constraint_values(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([0.5 * x @ self.q @ x + self.a @ x - self.b])

    def full_constraint_grads(self, x):
        return (self.q @ x + self.a)[None, :]

    def evaluate_full(self, x, seed=None) -> FullEval:
        return _full_eval(self.full_objective(x), self.full_constraint_values(x))


def make_qcqp_expectation(n, p, eval_samples=100_000, h_normalization="fro"):
    """Expectation-form QCQP; see ExpectationQcqpProblem."""
    return ExpectationQcqpProblem(n, p, eval_samples=eval_samples, h_normalization=h_normalization)


class FiniteSumQcqpProblem(_AggregatedQuadratic):
    """Finite-sum QCQP with N objective terms and M quadratic constraints.

        f0(x) = (1/N) sum_i 0.5 ||H_i x - c_i||^2
        f_j(x) = 0.5 x'Q_j x + a_j . x - b_j <= 0,   j = 1..M
        x in [-10, 10]^n

    Data follows the same normalized Gaussian law as the expectation form.
    The objective aggregates to a single quadratic (precomputed), so exact
    evaluation is O(n^2) regardless of N. Constraint subsampling is uniform
    without replacement; sampled values are exact, so this family supports
    penalty-based baselines directly.
    """

    kind = "qcqp_finite_sum"
    deterministic = True

    def __init__(self, h, c, q, a, b, box=None):
        self.h = np.asarray(h, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.h.ndim != 3 or self.q.ndim != 3:
            raise ValueError("h must be (N, p, n) and q must be (M, n, n)")
        self.num_objective_terms = self.h.shape[0]
        self.num_constraints = self.q.shape[0]
        self.n = self.h.shape[2]
        self.box = box if box is not None else BoxSet.symmetric(self.n, 10.0)
        # exact aggregates: f0 is itself a quadratic
        self.amat = np.einsum("ipn,ipm->nm", self.h, self.h) / self.num_objective_terms
        self.rvec = np.einsum("ipn,ip->n", self.h, self.c) / self.num_objective_terms
        self.s0 = 0.5 * float(np.mean(np.sum(self.c * self.c, axis=1)))

    # exact full quantities

    def full_constraint_values(self, x):
        return _constraint_values_at(self.q, self.a, self.b, np.asarray(x, dtype=float))

    def full_constraint_grads(self, x):
        return _constraint_grads_at(self.q, self.a, np.asarray(x, dtype=float))

    # sampled quantities

    def sample_objective_grad(self, x, j0, rng):
        idx = _subsample(rng, self.num_objective_terms, j0)
        return _objective_grad_at(self.h[idx], self.c[idx], x)

    def sample_constraint_block(self, x, j1, rng):
        idx = _subsample(rng, self.num_constraints, j1)
        q, a = self.q[idx], self.a[idx]
        return idx, _constraint_values_at(q, a, self.b[idx], x), _constraint_grads_at(q, a, x)

    sample_constraint_block_exact = sample_constraint_block

    def constraint_value_estimate(self, x, jg, rng) -> float:
        idx = _subsample(rng, self.num_constraints, jg)
        values = _constraint_values_at(self.q[idx], self.a[idx], self.b[idx], x)
        return float(np.sum(np.maximum(values, 0.0)) * (self.num_constraints / idx.size))

    def evaluate_full(self, x, seed=None) -> FullEval:
        return _full_eval(self.full_objective(x), self.full_constraint_values(x))


def make_qcqp_finite_sum(n, p, num_objective_terms, num_constraints, seed,
                         h_normalization="fro", max_elements=250_000_000):
    """Draw a finite-sum QCQP instance; generation is seed-deterministic.

    Refuses instances whose stored arrays would exceed ``max_elements`` floats (the
    constraint tensor alone is M * n^2). Constraints are drawn a block at a time, so the
    budget bounds peak build memory too: the stored arrays plus one block.
    """
    n, p = int(n), int(p)
    nn, mm = int(num_objective_terms), int(num_constraints)
    if min(n, p, nn, mm) < 1:
        raise ValueError("n, p, N, M must all be positive")
    elements = nn * p * n + nn * p + mm * n * n + mm * n + mm
    if elements > max_elements:
        raise ValueError(
            f"instance would store {elements} floats "
            f"(N*p*n + M*n^2 dominated), over the {max_elements} budget"
        )
    rng = np.random.default_rng(seed)
    h, c = _draw_objective_terms(rng, nn, p, n, h_normalization)
    q, a, b = _draw_constraint_terms(rng, mm, n)
    return FiniteSumQcqpProblem(h, c, q, a, b)


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
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    a_mat = rng.standard_normal((n, m))
    a_mat /= max(np.linalg.norm(a_mat, 2), 1e-300)
    b = rng.standard_normal(n)
    b /= max(np.linalg.norm(b), 1e-300)
    c = rng.standard_normal(m)
    c /= max(np.linalg.norm(c), 1e-300)
    return BilinearSaddleProblem(a_mat, b, c, noise_sigma=noise_sigma)


# ---------------------------------------------------------------------------
# instance snapshots


# kind -> (class, constructor arguments). Each argument is an attribute of the problem
# and an archive key, except that a box* BoxSet is stored as <name>_lower and
# <name>_upper, and the dataset as features and labels.
_SNAPSHOT = {
    "qcqp_finite_sum": (FiniteSumQcqpProblem, ("h", "c", "q", "a", "b", "box")),
    "bilinear_saddle": (BilinearSaddleProblem,
                        ("a_mat", "b", "c", "noise_sigma", "box_x", "box_z")),
    "npc_finite_sum": (NeymanPearsonProblem, ("dataset", "c_hat", "box")),
    "qcqp_frozen": (FrozenQcqpProblem, ("amat", "rvec", "s0", "q", "a", "b", "box")),
    "qcqp_expectation": (ExpectationQcqpProblem, ("n", "p", "eval_samples", "h_normalization")),
}


def save_instance(problem, path):
    """Dump a problem instance to a .npz archive for exact replay."""
    if problem.kind not in _SNAPSHOT:
        raise ValueError(f"cannot snapshot problem kind {problem.kind!r}")
    fields = {"kind": problem.kind}
    for name in _SNAPSHOT[problem.kind][1]:
        value = getattr(problem, name)
        if name.startswith("box"):
            fields.update({f"{name}_lower": value.lower, f"{name}_upper": value.upper})
        elif name == "dataset":
            fields.update(features=value.features, labels=value.labels)
        else:
            fields[name] = value
    np.savez(path, **fields)


def load_instance(path):
    """Rebuild a problem from a snapshot written by save_instance."""
    with np.load(path, allow_pickle=False) as data:
        kind = str(data["kind"])
        if kind not in _SNAPSHOT:
            raise ValueError(f"unknown snapshot kind {kind!r}")
        cls, names = _SNAPSHOT[kind]
        args = {}
        for name in names:
            if name.startswith("box"):
                args[name] = BoxSet(data[f"{name}_lower"], data[f"{name}_upper"])
            elif name == "dataset":
                args[name] = Dataset(features=data["features"], labels=data["labels"])
            else:
                value = data[name]
                args[name] = value.item() if value.ndim == 0 else value
        return cls(**args)
