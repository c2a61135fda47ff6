"""Primal/dual step-size schedules and the streaming ergodic averager.

A schedule emits, for ``k = 1..horizon``, a primal step ``alpha_k`` and a dual
step ``rho_k``. The dual step is coupled to the primal sequence through the
recursion

    eta_k = (eta_{k-1} - alpha_{k-1}) / beta1,
    rho_k = rho_{k-1} / (beta1 + alpha_{k-1} / eta_k),        k >= 2,

seeded with ``eta_1 = alpha_1 / (1 - beta1)`` for constant steps (where the
recursion is stationary and ``rho_k`` stays exactly ``rho_1``) and with the
finite sum ``eta_1 = sum_i alpha_i beta1^(i-1)`` otherwise. The recursion is
evaluated here through the algebraically identical tail sums

    eta_k = sum_{i=k}^{horizon} alpha_i beta1^(i-k),

accumulated backwards, because the forward form divides accumulated rounding
error by ``beta1`` at every step and turns to noise after a few hundred
iterations. Within the horizon every ``eta_k`` is a sum of positive terms, so
the recursion's division stays well defined; stepping past the horizon is the
state where it would not be, and raises.
"""

import copy

import numpy as np

from .errors import ScheduleExhaustedError
from .kernels import serial_matmul

__all__ = ["StepSchedule", "ErgodicAverager", "LazyErgodicAverager"]


def _tail_sums(alphas, beta1):
    # eta_k = alpha_k + beta1 * eta_{k+1}, accumulated from the horizon down.
    etas = np.empty_like(alphas)
    acc = 0.0
    for i in range(alphas.size - 1, -1, -1):
        acc = alphas[i] + beta1 * acc
        etas[i] = acc
    return etas


def _recursion_rhos(alphas, etas, rho1, beta1):
    rhos = np.empty_like(alphas)
    rhos[0] = rho1
    for i in range(1, alphas.size):
        rhos[i] = rhos[i - 1] / (beta1 + alphas[i - 1] / etas[i])
    return rhos


class StepSchedule:
    """Precomputed (alpha_k, rho_k) sequence with a step cursor.

    Instances are single-use state machines: ``next()`` emits the pair for
    the current ``step_index`` and advances; asking for more steps than
    ``horizon`` raises. ``fresh()`` returns a rewound copy so one parameter
    object can drive many runs.

    Construct through the classmethods:

    * ``constant(alpha, rho, horizon, beta1)``:
      ``alpha_k = alpha/sqrt(horizon)``, ``rho_k = rho/sqrt(horizon)``.
    * ``sqrt_log(alpha, rho, horizon, beta1)``:
      ``alpha_k = alpha / (sqrt(k+1) log(k+1))``, ``rho_1 = rho/(sqrt(2) log 2)``
      and the recursion above for later ``rho_k``.
    * ``sqrt(alpha, rho, horizon, beta1)`` (minimax solver):
      ``alpha_k = alpha/sqrt(k+1)`` and ``rho_k = rho/sqrt(k+1)`` directly,
      proportional steps with no recursion.
    * ``from_sequence(alphas, rho1, beta1)``: any positive non-increasing
      primal sequence, dual steps from the recursion.
    """

    CLOSED_FORMS = ("constant", "sqrt_log", "sqrt")  # (alpha, rho, horizon, beta1) constructors
    KINDS = CLOSED_FORMS + ("custom",)

    def __init__(self, kind, beta1, alphas, rhos, etas):
        if kind not in self.KINDS:
            raise ValueError(f"unknown schedule kind {kind!r}")
        self.beta1 = _check_beta1(beta1)
        alphas = _check_alphas(alphas)
        if np.any(etas <= 0):
            raise ValueError("dual-step recursion seed must stay positive")
        self.kind = kind
        self._alphas = alphas
        self._rhos = np.asarray(rhos, dtype=float)
        self._etas = np.asarray(etas, dtype=float)
        self._emit = (alphas.tolist(), self._rhos.tolist())  # next()'s floats, boxed once
        self.step_index = 1

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, alpha, rho, horizon, beta1):
        horizon, beta1 = _check_closed_form(alpha, rho, horizon, beta1)
        a = float(alpha) / np.sqrt(horizon)
        r = float(rho) / np.sqrt(horizon)
        alphas = np.full(horizon, a)
        rhos = np.full(horizon, r)
        # Stationary point of the recursion: eta_k = alpha/(1-beta1) for all k.
        etas = np.full(horizon, a / (1.0 - beta1))
        return cls("constant", beta1, alphas, rhos, etas)

    @classmethod
    def sqrt_log(cls, alpha, rho, horizon, beta1):
        horizon, beta1 = _check_closed_form(alpha, rho, horizon, beta1)
        k = np.arange(1, horizon + 1, dtype=float)
        alphas = float(alpha) / (np.sqrt(k + 1.0) * np.log(k + 1.0))
        etas = _tail_sums(alphas, beta1)
        rho1 = float(rho) / (np.sqrt(2.0) * np.log(2.0))
        rhos = _recursion_rhos(alphas, etas, rho1, beta1)
        return cls("sqrt_log", beta1, alphas, rhos, etas)

    @classmethod
    def sqrt(cls, alpha, rho, horizon, beta1):
        horizon, beta1 = _check_closed_form(alpha, rho, horizon, beta1)
        k = np.arange(1, horizon + 1, dtype=float)
        alphas = float(alpha) / np.sqrt(k + 1.0)
        rhos = float(rho) / np.sqrt(k + 1.0)
        etas = _tail_sums(alphas, beta1)
        return cls("sqrt", beta1, alphas, rhos, etas)

    @classmethod
    def from_sequence(cls, alphas, rho1, beta1):
        alphas = _check_alphas(alphas)
        beta1 = _check_beta1(beta1)
        _check_positive(rho1=rho1)
        etas = _tail_sums(alphas, beta1)
        rhos = _recursion_rhos(alphas, etas, float(rho1), beta1)
        return cls("custom", beta1, alphas, rhos, etas)

    # -- state machine ----------------------------------------------------

    @property
    def horizon(self) -> int:
        return self._alphas.size

    @property
    def eta_current(self) -> float:
        """eta at the step the next ``next()`` call will emit."""
        self._check_live()
        return float(self._etas[self.step_index - 1])

    @property
    def rho_current(self) -> float:
        self._check_live()
        return float(self._rhos[self.step_index - 1])

    @property
    def alpha_current(self) -> float:
        self._check_live()
        return float(self._alphas[self.step_index - 1])

    def next(self):
        """Emit ``(alpha_k, rho_k)`` for the current step and advance."""
        i = self.step_index - 1
        alphas, rhos = self._emit
        if i >= len(alphas):
            self._check_live()
        self.step_index = i + 2
        return alphas[i], rhos[i]

    def _check_live(self):
        if self.step_index > self.horizon:
            raise ScheduleExhaustedError(
                f"schedule of horizon {self.horizon} has no step {self.step_index}")

    def fresh(self):
        """A rewound copy sharing the precomputed sequences."""
        twin = copy.copy(self)
        twin.step_index = 1
        return twin

    # Copies of the full sequences, mainly for tests and reports.

    def alpha_sequence(self):
        return self._alphas.copy()

    def rho_sequence(self):
        return self._rhos.copy()

    def eta_sequence(self):
        return self._etas.copy()

    def __repr__(self):
        return (
            f"StepSchedule(kind={self.kind!r}, horizon={self.horizon}, "
            f"beta1={self.beta1}, step_index={self.step_index})"
        )


def _check_positive(**values):
    """Raise ValueError naming the first of ``values`` that is not positive."""
    for name, v in values.items():
        if not v > 0:
            raise ValueError(f"{name} must be positive, got {v!r}")


def _check_count(label, v):
    """``v`` as an int; raise ValueError naming ``label`` unless it is a positive integer
    (NaN, an infinity, a bool or a non-number included)."""
    try:
        ok = not isinstance(v, (bool, np.bool_)) and int(v) == v and v >= 1
    except (TypeError, ValueError, OverflowError):  # None, NaN, an infinity
        ok = False
    if not ok:
        raise ValueError(f"{label} must be a positive integer, got {v!r}")
    return int(v)


def _check_beta1(beta1):
    if not 0 <= beta1 < 1:
        raise ValueError(f"beta1 must lie in [0, 1), got {beta1!r}")
    return float(beta1)


def _check_alphas(alphas):
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ValueError("schedule needs a non-empty 1-d step sequence")
    if np.any(alphas <= 0) or not np.all(np.isfinite(alphas)):
        raise ValueError("primal steps must be positive and finite")
    if np.any(np.diff(alphas) > 0):
        raise ValueError("primal step sequence must be non-increasing")
    return alphas


def _check_closed_form(alpha, rho, horizon, beta1):
    horizon = _check_count("horizon", horizon)
    _check_positive(alpha=alpha, rho=rho)
    return horizon, _check_beta1(beta1)


class ErgodicAverager:
    """Streaming weighted average with geometrically fading inner weights.

    After pushing ``(x_1, alpha_1), ..., (x_t, alpha_t)`` the average is

        xbar_t = sum_j ( sum_{k=j}^t alpha_k beta1^(k-j) ) x_j
                 / sum_j ( sum_{k=j}^t alpha_k beta1^(k-j) ),

    maintained in O(dim) per push: the inner sums over k shift by one power
    of beta1 whenever t grows, so a running geometric accumulator of the
    iterates (``geo_vec``, with scalar counterpart ``geo_scalar``) folds the
    double sum into single updates. With ``beta1 = 0`` this degenerates to
    the plain alpha-weighted running average.

    ``finalize`` is non-destructive: pushing may continue afterwards, which
    is how solvers report every checkpoint from one accumulator. For a vector
    changing only on small supports, ``LazyErgodicAverager`` is O(support).
    """

    def __init__(self, beta1):
        self.beta1 = _check_beta1(beta1)
        self.weighted_sum = None
        self.geo_vec = None
        self.normalizer = 0.0
        self.geo_scalar = 0.0
        self.count = 0

    def push(self, x, alpha):
        if not alpha > 0:
            raise ValueError(f"step weight must be positive, got {alpha!r}")
        x = np.asarray(x, dtype=float)
        if self.weighted_sum is None:
            self.weighted_sum = np.zeros_like(x)
            self.geo_vec = np.zeros_like(x)
        elif x.shape != self.geo_vec.shape:
            raise ValueError(f"iterate shape changed: {self.geo_vec.shape} -> {x.shape}")
        self.geo_vec *= self.beta1
        self.geo_vec += x
        self.geo_scalar = self.beta1 * self.geo_scalar + 1.0
        self.weighted_sum += alpha * self.geo_vec
        self.normalizer += alpha * self.geo_scalar
        self.count += 1

    def finalize(self):
        if self.count == 0:
            raise ValueError("cannot average before any iterate was pushed")
        return self.weighted_sum / self.normalizer


class LazyErgodicAverager:
    """``ErgodicAverager``'s average, under ``schedule``'s weights, of a vector
    that changes only on supports: ``push()`` is O(1), ``change(support,
    delta)`` (adding ``delta`` on ``support``) O(|support|), ``finalize()`` O(dim).

    Since ``sum_{k=s}^t alpha_k beta1^(k-s) = eta_s - beta1^(t-s+1) eta_{t+1}``
    for the schedule's eta, a change ``delta_m`` after push ``m`` (``x0`` is
    the change at 0) weighs (A_t - A_m - beta1 eta_{m+1} + beta1^(t+1-m)
    eta_{t+1}) / (1 - beta1) at push ``t``, where ``A_t = sum_{k<=t} alpha_k``.
    So each coordinate keeps the sums of ``delta_m`` times 1, ``A_m + beta1
    eta_{m+1}`` and ``beta1^-m``, the last relative to a step moved up every
    ``period`` pushes so that no power of beta1 applied to it leaves [1e-100, 1e100].
    """

    def __init__(self, x0, schedule):
        b = self._beta1 = schedule.beta1
        alphas, etas = schedule.alpha_sequence(), schedule.eta_sequence()
        # eta_{horizon+1} by the recursion eta_k = alpha_k + beta1 eta_{k+1}
        self._eta = np.append(etas, (etas[-1] - alphas[-1]) / b if b > 0 else 0.0)
        self._prefix = np.concatenate(([0.0], np.cumsum(alphas)))
        steps = np.arange(self._prefix.size)
        base = b or 0.5  # any base will do for beta1 = 0: the third sum is never read
        self._period = max(1, int(230.0 / -np.log(base)))
        self._coef = np.stack([np.ones(steps.size), self._prefix + b * self._eta,
                               base ** -(steps % self._period)], 1)
        self._sums = np.multiply.outer(np.asarray(x0, dtype=float), self._coef[0])
        self.count = 0

    def push(self):
        self.count += 1
        if self.count % self._period == 0:
            self._sums[:, 2] *= self._beta1 ** self._period

    def change(self, support, delta):
        np.add.at(self._sums, support, np.multiply.outer(delta, self._coef[self.count]))

    def finalize(self):
        """The average after the latest push: one ``serial_matmul`` over the (dim, 3)
        sums, so its bits are one single-thread gemv's at any dim and thread count."""
        t = self.count
        if t == 0:
            raise ValueError("cannot average before any iterate was pushed")
        b, a_t, tail = self._beta1, self._prefix[t], self._eta[t]
        recent = b ** (t + 1 - t // self._period * self._period) * tail
        weighted = serial_matmul(self._sums, np.array([a_t, -1.0, recent]))
        weighted /= a_t - self._coef[0, 1] + b ** (t + 1) * tail
        return weighted
