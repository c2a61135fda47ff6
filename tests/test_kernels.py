import numpy as np
import pytest

from aprid import BoxSet, DivergenceError, clip_gradient, project_box_weighted

from brute import box_support_corners, grid_box_projection


def test_clip_identity_inside_ball():
    u = np.array([1.0, -2.0, 0.5])
    out = clip_gradient(u, theta=100.0)
    assert np.array_equal(out, u)


def test_clip_known_rescale():
    # ||(6, 8)|| = 10, theta 5 halves it
    out = clip_gradient(np.array([6.0, 8.0]), theta=5.0)
    assert np.allclose(out, [3.0, 4.0], rtol=0, atol=1e-15)


def test_clip_zero_vector():
    out = clip_gradient(np.zeros(4), theta=2.0)
    assert np.array_equal(out, np.zeros(4))


def test_clip_norm_never_exceeds_theta():
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = rng.standard_normal(rng.integers(1, 12)) * 10 ** rng.uniform(-3, 3)
        theta = 10 ** rng.uniform(-2, 2)
        out = clip_gradient(u, theta)
        assert np.linalg.norm(out) <= theta * (1 + 1e-12)
        # direction is preserved
        if np.linalg.norm(u) > 0:
            cos = np.dot(out, u) / (np.linalg.norm(out) * np.linalg.norm(u) + 1e-300)
            assert cos == pytest.approx(1.0, abs=1e-12)


def test_clip_rejects_bad_theta():
    with pytest.raises(ValueError):
        clip_gradient(np.ones(2), theta=0.0)
    with pytest.raises(ValueError):
        clip_gradient(np.ones(2), theta=-1.0)


def test_clip_flags_non_finite_input():
    with pytest.raises(DivergenceError):
        clip_gradient(np.array([1.0, np.nan]), theta=1.0)
    with pytest.raises(DivergenceError):
        clip_gradient(np.array([np.inf, 0.0]), theta=1.0)


def test_box_symmetric_and_project():
    box = BoxSet.symmetric(3, 2.0)
    assert box.dim == 3
    assert np.array_equal(box.lower, [-2.0, -2.0, -2.0])
    assert np.array_equal(box.upper, [2.0, 2.0, 2.0])
    y = np.array([-5.0, 0.5, 3.0])
    assert np.array_equal(box.project(y), [-2.0, 0.5, 2.0])
    assert box.contains(box.project(y))
    assert not box.contains(y)


@pytest.mark.parametrize("lower, upper, message", [
    ([0.0, 0.0], [1.0], r"bound shapes differ: \(2,\) vs \(1,\)"),
    ([], [], "box must have at least one coordinate"),
    ([0.0, -np.inf], [1.0, 1.0], "box bounds must be finite"),
    ([0.0, np.nan], [1.0, 1.0], "box bounds must be finite"),
    ([0.0, 2.0], [1.0, 1.0], "lower bound exceeds upper bound at coordinate 1"),
])
def test_box_rejects_bad_bounds(lower, upper, message):
    with pytest.raises(ValueError, match=message):
        BoxSet(lower, upper)


@pytest.mark.parametrize("halfwidth", [0.0, -1.0, np.nan])
def test_symmetric_box_needs_a_positive_halfwidth(halfwidth):
    with pytest.raises(ValueError, match="halfwidth must be positive"):
        BoxSet.symmetric(2, halfwidth)


def test_box_bounds_are_read_only():
    box = BoxSet.symmetric(2, 1.0)
    with pytest.raises(ValueError):
        box.lower[0] = -3.0


def test_box_support_matches_corner_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        lower = rng.uniform(-3, 0, dim)
        upper = lower + rng.uniform(0.1, 3, dim)
        box = BoxSet(lower, upper)
        coef = rng.standard_normal(dim)
        want = box_support_corners(coef, lower, upper)
        assert box.support(coef) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_weighted_projection_is_clamp_for_positive_weights():
    # over a box the weighted projection separates per coordinate, so any
    # positive weighting gives the same clamp
    rng = np.random.default_rng(2)
    box = BoxSet.symmetric(6, 1.5)
    for _ in range(100):
        y = rng.standard_normal(6) * 3
        w = rng.uniform(0.01, 10, 6)
        assert np.array_equal(project_box_weighted(y, box, w), box.project(y))


def test_weighted_projection_matches_grid_search():
    rng = np.random.default_rng(3)
    for _ in range(25):
        lower = rng.uniform(-1, -0.2, 2)
        upper = rng.uniform(0.2, 1, 2)
        box = BoxSet(lower, upper)
        y = rng.uniform(-2, 2, 2)
        w = rng.uniform(0.0, 4.0, 2)  # zero weight allowed
        got = project_box_weighted(y, box, w)
        want = grid_box_projection(y, lower, upper, np.maximum(w, 1e-9), step=0.001)
        assert np.all(np.abs(got - want) <= 0.001 + 1e-9)


def test_weighted_projection_zero_weight_coordinate_still_clamped():
    box = BoxSet.symmetric(2, 1.0)
    out = project_box_weighted(np.array([5.0, 0.2]), box, np.array([0.0, 1.0]))
    assert np.array_equal(out, [1.0, 0.2])


def test_weighted_projection_validation():
    box = BoxSet.symmetric(2, 1.0)
    with pytest.raises(ValueError):
        project_box_weighted(np.zeros(3), box, np.ones(3))  # shape vs box
    with pytest.raises(ValueError):
        project_box_weighted(np.zeros(2), box, np.ones(3))  # weight shape
    with pytest.raises(ValueError):
        project_box_weighted(np.zeros(2), box, np.array([1.0, -1.0]))
    with pytest.raises(DivergenceError):
        project_box_weighted(np.array([np.nan, 0.0]), box, np.ones(2))


def test_clip_overflowing_finite_norm_scales_to_zero():
    # ||u||^2 overflows to inf although every entry is finite: not a
    # divergence, and the vector is divided by the infinite norm
    for u in (np.full(4, 1e300), np.array([1e300, -1e300, 2.0, -0.0])):
        theta = 3.0
        with np.errstate(over="ignore"):
            want = u / max(1.0, float(np.linalg.norm(u)) / theta)
            got = clip_gradient(u, theta)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_box_project_is_bitwise_np_clip():
    # NaN, infinities, signed zeros and points on either bound, at sizes that
    # cover vectorised bodies and their scalar tails
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 1.0, 0.5, -2.0, 3.0])
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 100):
        for _ in range(20):
            lower = rng.choice([-1.0, 0.0, -0.0, -2.0], dim)
            upper = np.maximum(lower, rng.choice([0.0, -0.0, 1.0, 3.0], dim))
            y = rng.choice(np.concatenate([specials, lower, upper]), dim)
            box = BoxSet(lower, upper)
            want = np.clip(y, box.lower, box.upper)
            assert np.array_equal(box.project(y).view(np.uint64), want.view(np.uint64))
