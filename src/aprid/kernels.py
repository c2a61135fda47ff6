"""Coordinate-wise kernels shared by every solver.

Gradient norm clipping, axis-aligned box feasible sets, and the diagonally
weighted projection used by the adaptive methods.

Each runs once or twice per solver step on a short vector, so its checks are
the cheapest that decide: ``clip_gradient`` tests only its norm for
finiteness and scans for NaN/inf only when that fails, which tells a
non-finite input (raises) from a finite one whose squared norm overflows
(scaled to zero). ``project_box_weighted`` checks shapes, the least weight
and one ``isfinite`` pass. The clamp ``minimum(maximum(y, lower), upper)``
has the bits of ``np.clip``, NaN and signed zeros included, at less call
overhead.
"""

import math

import numpy as np

from .errors import DivergenceError

__all__ = ["clip_gradient", "BoxSet", "project_box_weighted"]


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
