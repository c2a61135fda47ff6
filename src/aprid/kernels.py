"""Coordinate-wise kernels shared by every solver.

Gradient norm clipping, axis-aligned box feasible sets, the diagonally
weighted projection used by the adaptive methods, and ``serial_matmul``,
which every product over an operand that grows with M goes through.

Each runs once or twice per solver step on a short vector, so its checks are
the cheapest that decide: ``clip_gradient`` tests only its norm for
finiteness and scans for NaN/inf only when that fails, which tells a
non-finite input (raises) from a finite one whose squared norm overflows
(scaled to zero). ``project_box_weighted`` checks shapes, the least weight
and one ``isfinite`` pass. The clamp ``minimum(maximum(y, lower), upper)``
has the bits of ``np.clip``, NaN and signed zeros included, at less call
overhead.

``serial_matmul(a, b)`` is ``a @ b`` cut into products that OpenBLAS runs on
the calling thread. With OpenBLAS 0.3.31, a dot of more than 10,000 elements
or a gemv of 460,800 or more hands work to a second thread. That worker then
spin-waits for about 0.12 CPU seconds after the call returns, and a threaded
gemv splits the rows at a point that can change the last bit of some of
them. A block here holds about ``_BLOCK`` = 4096 elements at most (but at
least 64 rows, so more where a row is longer than 64), well below both
thresholds, so no call wakes a worker and no result depends on
``OPENBLAS_NUM_THREADS``:

* ``mat @ vec`` fills its output a block of rows at a time, in one batched
  ``np.matmul``. Each block starts at a multiple of 64 rows, where the gemv
  kernel's row unroll restarts as it does in one call over all rows, and has
  two rows or more (numpy computes a single row with dot, not gemv). So it
  has the bits of one single-thread ``mat @ vec`` at any size.
* ``vec @ mat`` and ``vec @ vec`` add per-block partial products in block
  order: a fixed order, within rounding of one call but not its bits.
* An operand of at most ``_BLOCK`` elements takes the one call ``a @ b``, so
  small products (the training oracle's) keep their bits and their cost.
"""

import math

import numpy as np

from .errors import DivergenceError

__all__ = ["clip_gradient", "BoxSet", "project_box_weighted", "serial_matmul"]

# elements per product in serial_matmul (see the module docstring)
_BLOCK = 4096


def clip_gradient(u, theta):
    """Rescale ``u`` to 2-norm at most ``theta``.

    Returns ``u / max(1, ||u||_2 / theta)``: the direction is preserved, and
    vectors already within the threshold come back unchanged (as a copy).

    Parameters
    ----------
    u : array_like
        Vector to clip.
    theta : float
        Positive norm threshold.

    Raises
    ------
    ValueError
        If ``theta`` is not positive.
    DivergenceError
        If ``u`` has non-finite entries; a NaN or infinite stochastic
        gradient signals an oracle blow-up, not a clippable vector.
    """
    u = np.asarray(u, dtype=float)
    if not theta > 0:
        raise ValueError(f"clip threshold must be positive, got {theta!r}")
    flat = u.ravel(order="K")
    norm = math.sqrt(flat.dot(flat))  # the bits of np.linalg.norm(u)
    if not math.isfinite(norm) and not np.isfinite(u).all():
        raise DivergenceError("non-finite gradient passed to clip_gradient")
    return u / max(1.0, norm / theta)


class BoxSet:
    """Axis-aligned box ``{x : lower <= x <= upper}`` with finite bounds.

    Bounds must be finite (the solvers rely on a compact feasible set) and
    are stored read-only so a box can be shared across concurrent runs.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower, upper):
        lower = np.array(lower, dtype=float, copy=True).reshape(-1)
        upper = np.array(upper, dtype=float, copy=True).reshape(-1)
        if lower.shape != upper.shape:
            raise ValueError(f"bound shapes differ: {lower.shape} vs {upper.shape}")
        if lower.size == 0:
            raise ValueError("box must have at least one coordinate")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box bounds must be finite")
        if np.any(lower > upper):
            bad = int(np.argmax(lower > upper))
            raise ValueError(f"lower bound exceeds upper bound at coordinate {bad}")
        lower.flags.writeable = False
        upper.flags.writeable = False
        self.lower = lower
        self.upper = upper

    @classmethod
    def symmetric(cls, dim, halfwidth):
        """The cube ``[-halfwidth, halfwidth]^dim``."""
        if not halfwidth > 0:
            raise ValueError(f"halfwidth must be positive, got {halfwidth!r}")
        return cls(np.full(dim, -float(halfwidth)), np.full(dim, float(halfwidth)))

    @property
    def dim(self) -> int:
        return self.lower.size

    def project(self, y):
        """Euclidean projection: the coordinate-wise clamp."""
        return np.minimum(np.maximum(y, self.lower), self.upper)

    def contains(self, x, atol=0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))

    def support(self, coef) -> float:
        """Maximum of the linear form ``coef @ x`` over the box."""
        coef = np.asarray(coef, dtype=float)
        return float(np.sum(np.where(coef >= 0, coef * self.upper, coef * self.lower)))

    def __repr__(self):
        return f"BoxSet(dim={self.dim})"


def project_box_weighted(y, box, weights):
    """Projection of ``y`` onto ``box`` in the seminorm ``sum_i w_i (x_i - y_i)^2``.

    For a diagonal non-negative weight over a box the problem separates per
    coordinate and the minimizer is the plain clamp wherever ``w_i > 0``.
    Coordinates with ``w_i == 0`` (which occur before any gradient energy has
    reached them, while the second-moment accumulator is still zero) have a
    constant objective term; the clamped value is returned there as well, the
    canonical choice among the minimizers.

    Parameters
    ----------
    y : array_like
        Point to project.
    box : BoxSet
        Feasible set.
    weights : array_like
        Non-negative diagonal weights, same shape as ``y``.
    """
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if y.shape != weights.shape or y.shape != box.lower.shape:
        raise ValueError(
            f"shape mismatch: point {y.shape}, weights {weights.shape}, box ({box.dim},)")
    if weights.min() < 0:
        raise ValueError("projection weights must be non-negative")
    if not np.isfinite(y).all():
        raise DivergenceError("non-finite point passed to project_box_weighted")
    return box.project(y)


def serial_matmul(a, b):
    """``a @ b`` for a float matrix and vector (either order) or two float vectors,
    computed in blocks that OpenBLAS runs on the calling thread (see the module
    docstring)."""
    mat = a if a.ndim == 2 else b
    if mat.size <= _BLOCK:
        return a @ b
    m = a.shape[0]
    n = mat.size // m
    rows = max(64, _BLOCK // n // 64 * 64)
    if a.ndim == 2:
        head = (m - 2) // rows * rows  # so the last block has 2 to rows + 1 rows
        out = np.empty(m)
        np.matmul(a[:head].reshape(-1, rows, n), b, out=out[:head].reshape(-1, rows))
        np.matmul(a[head:], b, out=out[head:])
        return out
    cols = b.reshape(m, n)
    head = (m - 1) // rows * rows
    parts = a[:head].reshape(-1, 1, rows) @ cols[:head].reshape(-1, rows, n)
    total = np.add.reduce(parts[:, 0], axis=0) + a[head:] @ cols[head:]
    return total if b.ndim == 2 else total[0]
