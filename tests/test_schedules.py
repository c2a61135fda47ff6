import numpy as np
import pytest

from aprid import ErgodicAverager, ScheduleExhaustedError, StepSchedule
from aprid.schedules import LazyErgodicAverager

from brute import double_sum_average, geometric_tail_weights


def random_schedule(rng, max_horizon=200):
    """A custom schedule with random non-increasing steps, like the ones the
    dual-step recursion has to cope with in the wild."""
    k = int(rng.integers(2, max_horizon + 1))
    beta1 = float(rng.uniform(0.05, 0.98))
    increments = rng.uniform(0.0, 1.0, k)
    alphas = np.flip(np.sort(10 ** rng.uniform(-3, 1) * (0.1 + np.cumsum(increments))))
    rho1 = float(10 ** rng.uniform(-2, 1))
    return StepSchedule.from_sequence(alphas, rho1, beta1)


def test_constant_schedule_values():
    sch = StepSchedule.constant(10.0, 2.0, horizon=400, beta1=0.9)
    a = 10.0 / np.sqrt(400)
    r = 2.0 / np.sqrt(400)
    assert np.all(sch.alpha_sequence() == a)
    assert np.all(sch.rho_sequence() == r)  # exactly constant, not just close
    assert np.all(sch.eta_sequence() == pytest.approx(a / 0.1))


def test_sqrt_log_first_steps():
    sch = StepSchedule.sqrt_log(3.0, 5.0, horizon=50, beta1=0.9)
    alphas = sch.alpha_sequence()
    assert alphas[0] == pytest.approx(3.0 / (np.sqrt(2.0) * np.log(2.0)))
    assert alphas[4] == pytest.approx(3.0 / (np.sqrt(6.0) * np.log(6.0)))
    assert sch.rho_sequence()[0] == pytest.approx(5.0 / (np.sqrt(2.0) * np.log(2.0)))


def test_sqrt_schedule_tracks_alpha():
    sch = StepSchedule.sqrt(2.0, 6.0, horizon=80, beta1=0.9)
    alphas, rhos = sch.alpha_sequence(), sch.rho_sequence()
    assert alphas[9] == pytest.approx(2.0 / np.sqrt(11.0))
    # rho stays proportional to alpha for the minimax variant
    assert np.allclose(rhos / alphas, rhos[0] / alphas[0])
    assert np.all(np.diff(rhos) <= 0)


def test_next_walks_the_sequence_and_exhausts():
    sch = StepSchedule.constant(1.0, 1.0, horizon=3, beta1=0.5)
    seen = [sch.next() for _ in range(3)]
    assert seen == [(0.5773502691896258, 0.5773502691896258)] * 3
    with pytest.raises(ScheduleExhaustedError):
        sch.next()
    fresh = sch.fresh()
    assert fresh.step_index == 1
    assert fresh.next() == seen[0]
    assert sch.step_index == 4  # the copy does not disturb the original


def test_current_properties_follow_step_index():
    sch = StepSchedule.sqrt_log(1.0, 1.0, horizon=10, beta1=0.8)
    assert sch.alpha_current == sch.alpha_sequence()[0]
    sch.next()
    assert sch.alpha_current == sch.alpha_sequence()[1]
    assert sch.rho_current == sch.rho_sequence()[1]
    assert sch.eta_current == sch.eta_sequence()[1]


def test_validation_errors():
    with pytest.raises(ValueError):
        StepSchedule.constant(0.0, 1.0, horizon=5, beta1=0.9)
    with pytest.raises(ValueError):
        StepSchedule.constant(1.0, -1.0, horizon=5, beta1=0.9)
    with pytest.raises(ValueError):
        StepSchedule.constant(1.0, 1.0, horizon=0, beta1=0.9)
    with pytest.raises(ValueError):
        StepSchedule.constant(1.0, 1.0, horizon=5, beta1=1.0)
    with pytest.raises(ValueError):
        StepSchedule.constant(1.0, 1.0, horizon=5, beta1=-0.1)
    with pytest.raises(ValueError):
        StepSchedule.from_sequence([1.0, 2.0], 1.0, 0.9)  # increasing
    with pytest.raises(ValueError):
        StepSchedule.from_sequence([1.0, 0.0], 1.0, 0.9)  # non-positive
    with pytest.raises(ValueError):
        StepSchedule.from_sequence([1.0, np.inf], 1.0, 0.9)
    with pytest.raises(ValueError):
        StepSchedule.from_sequence([1.0, 0.5], 0.0, 0.9)


def test_beta1_zero_degenerates_cleanly():
    sch = StepSchedule.sqrt_log(1.0, 1.0, horizon=20, beta1=0.0)
    assert np.allclose(sch.eta_sequence(), sch.alpha_sequence())


def test_tail_sum_identity():
    # eta_k = alpha_k + beta1 * eta_{k+1}, the stable form of the recursion
    rng = np.random.default_rng(7)
    for _ in range(20):
        sch = random_schedule(rng)
        alphas, etas = sch.alpha_sequence(), sch.eta_sequence()
        b = sch.beta1
        assert np.allclose(etas[:-1], alphas[:-1] + b * etas[1:], rtol=1e-13)
        assert etas[-1] == alphas[-1]


def test_forward_recursion_identity_near_start():
    # the published forward form eta_k = (eta_{k-1} - alpha_{k-1}) / beta1
    # holds for the tail-sum construction while roundoff is still small
    sch = StepSchedule.sqrt_log(1.0, 1.0, horizon=120, beta1=0.9)
    alphas, etas = sch.alpha_sequence(), sch.eta_sequence()
    for k in range(1, 30):
        want = (etas[k - 1] - alphas[k - 1]) / 0.9
        assert etas[k] == pytest.approx(want, rel=1e-8)


def test_rho_recursion_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sch = random_schedule(rng)
        alphas, rhos, etas = sch.alpha_sequence(), sch.rho_sequence(), sch.eta_sequence()
        b = sch.beta1
        lhs = rhos[1:] * (b + alphas[:-1] / etas[1:])
        assert np.allclose(lhs, rhos[:-1], rtol=1e-12)


def test_eta_over_rho_is_constant_for_recursion_kinds():
    # this ratio being j-independent is what makes the weighted dual
    # telescoping sum collapse
    rng = np.random.default_rng(13)
    for _ in range(20):
        sch = random_schedule(rng)
        ratio = sch.eta_sequence() / sch.rho_sequence()
        assert np.allclose(ratio, ratio[0], rtol=1e-10)


def test_geometric_weight_two_sided_bound():
    rng = np.random.default_rng(17)
    for _ in range(30):
        sch = random_schedule(rng, max_horizon=120)
        alphas = sch.alpha_sequence()
        s = geometric_tail_weights(alphas, sch.beta1)
        k = alphas.size
        for t in range(k):
            col = s[: t + 1, t]
            assert np.all(col >= alphas[: t + 1] * (1 - 1e-12))
            assert np.all(col <= alphas[: t + 1] / (1 - sch.beta1) * (1 + 1e-12))


def test_dual_weight_telescoping_inequality():
    # S_{j-1}(t)/rho_{j-1} >= S_j(t)/rho_j for the recursion-driven kinds
    rng = np.random.default_rng(19)
    for _ in range(20):
        sch = random_schedule(rng, max_horizon=120)
        s = geometric_tail_weights(sch.alpha_sequence(), sch.beta1)
        ratio = s / sch.rho_sequence()[:, None]
        for t in range(s.shape[0]):
            col = ratio[: t + 1, t]
            scale = np.maximum(col[:-1], col[1:])
            assert np.all(col[:-1] - col[1:] >= -1e-12 * scale)


def test_rho_upper_bound_against_first_step():
    for make in (StepSchedule.sqrt_log, StepSchedule.sqrt):
        sch = make(1.0, 1.0, horizon=100, beta1=0.9)
        alphas, rhos = sch.alpha_sequence(), sch.rho_sequence()
        bound = rhos[0] * alphas / (alphas[0] * (1 - 0.9))
        assert np.all(rhos <= bound * (1 + 1e-12))
        assert np.all(np.diff(rhos) <= 1e-15)


def test_averager_matches_double_sum():
    rng = np.random.default_rng(23)
    for beta1 in (0.0, 0.5, 0.9):
        for _ in range(10):
            t = int(rng.integers(1, 60))
            xs = [rng.standard_normal(4) for _ in range(t)]
            alphas = np.flip(np.sort(rng.uniform(0.01, 1.0, t)))
            av = ErgodicAverager(beta1)
            for x, a in zip(xs, alphas):
                av.push(x, a)
            want = double_sum_average(xs, alphas, beta1)
            assert np.allclose(av.finalize(), want, rtol=1e-12, atol=1e-14)


def test_averager_finalize_is_not_destructive():
    av = ErgodicAverager(0.9)
    av.push(np.array([1.0]), 0.5)
    first = av.finalize()
    av.push(np.array([3.0]), 0.5)
    second = av.finalize()
    assert first[0] == pytest.approx(1.0)
    assert 1.0 < second[0] < 3.0
    assert av.count == 2


def test_averager_validation():
    av = ErgodicAverager(0.9)
    with pytest.raises(ValueError):
        av.finalize()
    av.push(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        av.push(np.zeros(3), 1.0)  # shape changed mid-stream
    with pytest.raises(ValueError):
        av.push(np.zeros(2), 0.0)  # weights must be positive
    with pytest.raises(ValueError):
        ErgodicAverager(1.0)


def _max_rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _sparse_walk(schedule, x0, rng, max_support, reads):
    """Drive a dense and a lazy averager over random sparse changes of one
    vector; at each step in ``reads`` yield (lazy, dense, iterates, alphas)."""
    dense, lazy = ErgodicAverager(schedule.beta1), LazyErgodicAverager(x0, schedule)
    x, xs, alphas = x0.copy(), [], []
    for t in range(1, schedule.horizon + 1):
        alpha, _ = schedule.next()
        dense.push(x, alpha)
        lazy.push()
        xs.append(x.copy())
        alphas.append(alpha)
        support = rng.choice(x.size, int(rng.integers(1, max_support + 1)), replace=False)
        old = x[support]
        x[support] = np.maximum(old + rng.standard_normal(support.size), 0.0)
        lazy.change(support, x[support] - old)
        if t in reads:
            yield lazy.finalize(), dense.finalize(), xs, alphas


SCHEDULES = {
    "constant": lambda beta1, k: StepSchedule.constant(10.0, 1.0, k, beta1),
    "sqrt_log": lambda beta1, k: StepSchedule.sqrt_log(10.0, 1.0, k, beta1),
    "from_sequence": lambda beta1, k: StepSchedule.from_sequence(
        0.5 / np.arange(1, k + 1) ** 0.3, 1.0, beta1),
}


@pytest.mark.parametrize("kind", sorted(SCHEDULES))
@pytest.mark.parametrize("beta1", [0.0, 0.05, 0.9])
def test_lazy_averager_matches_double_sum_and_dense(kind, beta1):
    # beta1 = 0.05 rescales the lazy sums every 76 pushes, inside this horizon
    rng = np.random.default_rng(41)
    x0 = rng.uniform(0.0, 2.0, 12)
    reads = {1, 2, 17, 76, 77, 150}
    seen = 0
    for lazy, dense, xs, alphas in _sparse_walk(SCHEDULES[kind](beta1, 150), x0, rng, 4, reads):
        assert _max_rel_err(lazy, dense) <= 1e-12
        assert _max_rel_err(lazy, double_sum_average(xs, alphas, beta1)) <= 1e-12
        seen += 1
    assert seen == len(reads)


@pytest.mark.parametrize("kind", ["constant", "sqrt_log"])
def test_lazy_averager_past_beta1_power_underflow(kind):
    # 0.9^k underflows past k ~ 7100; the lazy sums must not
    rng = np.random.default_rng(43)
    reads = {100, 2500, 7000, 7101, 7600}
    walk = _sparse_walk(SCHEDULES[kind](0.9, 7600), rng.uniform(0.0, 1.0, 30), rng, 3, reads)
    errors = [_max_rel_err(lazy, dense) for lazy, dense, _, _ in walk]
    assert len(errors) == len(reads) and max(errors) <= 1e-12


def test_lazy_averager_needs_a_push():
    lazy = LazyErgodicAverager(np.ones(3), StepSchedule.constant(1.0, 1.0, 5, 0.9))
    with pytest.raises(ValueError):
        lazy.finalize()
    lazy.push()
    assert np.allclose(lazy.finalize(), 1.0, rtol=1e-14)


def test_next_emits_the_sequences_as_python_floats():
    schedules = [
        StepSchedule.constant(2.0, 0.5, horizon=30, beta1=0.9),
        StepSchedule.sqrt_log(3.0, 5.0, horizon=30, beta1=0.9),
        StepSchedule.sqrt(2.0, 6.0, horizon=30, beta1=0.8),
        StepSchedule.from_sequence(np.linspace(1.0, 0.1, 30), 0.7, 0.6),
    ]
    for sch in schedules:
        for run in (sch, sch.fresh(), sch.fresh()):
            pairs = [run.next() for _ in range(sch.horizon)]
            assert all(type(a) is float and type(r) is float for a, r in pairs)
            alphas, rhos = np.array(pairs).T
            assert alphas.tobytes() == sch.alpha_sequence().tobytes()
            assert rhos.tobytes() == sch.rho_sequence().tobytes()
            with pytest.raises(ScheduleExhaustedError):
                run.next()
            assert run.step_index == sch.horizon + 1
