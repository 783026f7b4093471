import math

import numpy as np
import pytest
import scipy.linalg

from amsizer.gp import GpHyper, gp_fit, gp_predict, kernel
from amsizer.optimizer import expected_improvement


def _oracle_predict(xtr, ytr, xq, hyper):
    """Direct-inversion GP posterior, written independently of gp.py."""
    ls2 = hyper.lengthscale ** 2

    def k(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return hyper.signal_var * np.exp(-0.5 * d2 / ls2)

    prior = ytr.mean()
    kmat = k(xtr, xtr) + hyper.noise_var * np.eye(len(xtr))
    kinv = np.linalg.inv(kmat)
    ks = k(xq, xtr)
    mean = prior + ks @ kinv @ (ytr - prior)
    var = hyper.signal_var - np.einsum("ij,jk,ik->i", ks, kinv, ks)
    return mean, np.maximum(var, 0.0)


def test_gp_matches_direct_inversion_oracle():
    rng = np.random.default_rng(42)
    hyper = GpHyper()
    for _ in range(20):
        d = int(rng.integers(1, 7))
        xtr = rng.random((5, d))
        ytr = rng.normal(size=5)
        xq = rng.random((10, d))
        model = gp_fit(xtr, ytr, hyper)
        mean, var = gp_predict(model, xq)
        mean_o, var_o = _oracle_predict(xtr, ytr, xq, hyper)
        assert np.max(np.abs(mean - mean_o)) < 1e-8
        assert np.max(np.abs(var - var_o)) < 1e-8


def test_single_point_interpolation():
    model = gp_fit(np.array([[0.5]]), np.array([3.0]))
    mean, var = gp_predict(model, np.array([[0.5]]))
    assert mean[0] == pytest.approx(3.0, abs=1e-6)
    assert var[0] == pytest.approx(1e-6, rel=0.01)


def test_far_field_reverts_to_prior():
    xtr = np.random.default_rng(1).random((5, 2)) * 0.1
    ytr = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    model = gp_fit(xtr, ytr)
    # >= 10 lengthscales away from every training point
    mean, var = gp_predict(model, np.array([[3.0, 3.0]]))
    assert mean[0] == pytest.approx(ytr.mean(), abs=0.01)
    assert var[0] == pytest.approx(1.0, rel=0.01)


def test_sine_midpoint_rmse():
    xtr = np.linspace(0.0, 1.0, 5)[:, None]
    ytr = np.sin(2 * np.pi * xtr[:, 0])
    model = gp_fit(xtr, ytr)
    xq = (np.linspace(0.0, 1.0, 5)[:-1] + 0.125)[:, None]
    mean, _ = gp_predict(model, xq)
    truth = np.sin(2 * np.pi * xq[:, 0])
    rmse = float(np.sqrt(np.mean((mean - truth) ** 2)))
    assert rmse <= 0.1


def test_duplicate_points_survive_via_jitter():
    xtr = np.array([[0.3], [0.3], [0.3]])
    ytr = np.array([1.0, 1.0, 1.0])
    model = gp_fit(xtr, ytr, GpHyper(noise_var=0.0))
    mean, var = gp_predict(model, np.array([[0.3]]))
    assert mean[0] == pytest.approx(1.0, abs=1e-5)
    assert var[0] >= 0.0


def test_training_point_accuracy_many():
    rng = np.random.default_rng(7)
    xtr = rng.random((12, 3))
    ytr = rng.normal(size=12)
    model = gp_fit(xtr, ytr)
    mean, var = gp_predict(model, xtr)
    # noise 1e-6 allows small deviations from exact interpolation
    assert np.max(np.abs(mean - ytr)) < 1e-3
    assert np.all(var >= 0.0)


def _reference_predict(model, x):
    """gp_predict as it read before the row norms were cached: kernel + solve_triangular."""
    xq = np.atleast_2d(np.asarray(x, dtype=float))
    aa = np.sum(xq * xq, axis=1)[:, None]
    bb = np.sum(model.x * model.x, axis=1)[None, :]
    d2 = np.maximum(aa + bb - 2.0 * (xq @ model.x.T), 0.0)
    k_star = model.hyper.signal_var * np.exp(-0.5 * d2 / (model.hyper.lengthscale ** 2))
    mean = model.prior_mean + k_star @ model.alpha
    v = scipy.linalg.solve_triangular(model.chol, k_star.T, lower=True, check_finite=False)
    var = model.hyper.signal_var - np.sum(v * v, axis=0)
    return mean, np.maximum(var, 0.0)


def _assert_predict_bitwise(model, xq):
    mean, var = gp_predict(model, xq)
    mean_r, var_r = _reference_predict(model, xq)
    assert mean.tobytes() == mean_r.tobytes()
    assert var.tobytes() == var_r.tobytes()


def test_gp_predict_bitwise_equals_reference_form():
    rng = np.random.default_rng(2024)
    shapes = [(1, 1), (1, 15), (64, 1), (64, 15)]
    shapes += [(int(rng.integers(1, 65)), int(rng.integers(1, 16))) for _ in range(36)]
    for n, d in shapes:
        model = gp_fit(rng.random((n, d)), rng.normal(size=n))
        for row in rng.random((4, d)):
            _assert_predict_bitwise(model, row)
            _assert_predict_bitwise(model, row[None, :])
        _assert_predict_bitwise(model, model.x[0])  # on a training point
        _assert_predict_bitwise(model, rng.random((1024, d)))


def test_gp_predict_bitwise_on_jittered_duplicate_model():
    rng = np.random.default_rng(5)
    base = rng.random((6, 3))
    xtr = np.concatenate([base, base[:3]])
    hyper = GpHyper(noise_var=0.0)
    with pytest.raises(scipy.linalg.LinAlgError):  # so gp_fit must add jitter
        scipy.linalg.cholesky(kernel(xtr, xtr, hyper), lower=True)
    model = gp_fit(xtr, rng.normal(size=len(xtr)), hyper)
    for row in rng.random((8, 3)):
        _assert_predict_bitwise(model, row)
    _assert_predict_bitwise(model, rng.random((1024, 3)))


def test_kernel_basics():
    h = GpHyper()
    k = kernel(np.array([[0.0]]), np.array([[0.0]]), h)
    assert k[0, 0] == pytest.approx(1.0)
    k2 = kernel(np.array([[0.0]]), np.array([[0.2]]), h)
    assert k2[0, 0] == pytest.approx(math.exp(-0.5))


def test_gp_fit_validates():
    import amsizer.gp as gp

    with pytest.raises(gp.GpError):
        gp_fit(np.empty((0, 2)), np.array([]))
    with pytest.raises(gp.GpError):
        gp_fit(np.array([[0.0]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        GpHyper(lengthscale=0.0)


# ---------------------------------------------------------------------------
# expected improvement

def test_ei_degenerate_zero():
    assert expected_improvement(np.array([1.0]), np.array([0.0]), 1.0)[0] == 0.0
    assert expected_improvement(np.array([0.5]), np.array([0.0]), 1.0)[0] == 0.0


def test_ei_sigma_zero_positive_gain():
    assert expected_improvement(np.array([2.0]), np.array([0.0]), 1.0)[0] == pytest.approx(1.0)


def test_ei_at_the_mean():
    ei = expected_improvement(np.array([1.0]), np.array([1.0]), 1.0)[0]
    assert ei == pytest.approx(0.3989, abs=1e-4)


def test_ei_monotone_in_sigma():
    sigmas = np.linspace(0.01, 3.0, 50)
    ei = expected_improvement(
        np.full(50, 0.5), sigmas ** 2, 1.0
    )
    assert np.all(np.diff(ei) > 0)
    assert np.all(ei >= 0)


def _ei_scipy_stats_oracle(mean, var, best_so_far):
    """EI through scipy.stats.norm.cdf/pdf, kept here as the reference."""
    from scipy.stats import norm

    sigma = np.sqrt(np.maximum(var, 0.0))
    gain = mean - best_so_far
    ei = np.maximum(gain, 0.0)  # no variance: the improvement is certain
    pos = sigma > 0.0
    z = gain[pos] / sigma[pos]
    ei[pos] = gain[pos] * norm.cdf(z) + sigma[pos] * norm.pdf(z)
    return np.maximum(ei, 0.0)


def test_ei_closed_form_equals_scipy_stats_exactly():
    best = 0.7
    z = np.linspace(-40.0, 40.0, 321)
    sigma = np.logspace(-6.0, 3.0, 19)
    gain = (z[:, None] * sigma[None, :]).ravel()
    var = np.repeat(sigma[None, :] ** 2, len(z), axis=0).ravel()
    # no variance and negative (round-off) variance, with gains of both signs
    flat_gain = np.concatenate([-np.logspace(-6.0, 3.0, 10), [0.0], np.logspace(-6.0, 3.0, 10)])
    gain = np.concatenate([gain, flat_gain, flat_gain, flat_gain])
    var = np.concatenate([
        var, np.zeros(21), np.full(21, -1e-12), -np.logspace(-6.0, 3.0, 21),
    ])
    mean = best + gain
    assert (gain < 0).any() and (var == 0).any() and (var < 0).any()
    ei = expected_improvement(mean, var, best)
    oracle = _ei_scipy_stats_oracle(mean, var, best)
    assert ei.shape == oracle.shape
    assert (ei == oracle).all()


def _ei_masked(mean, var, best_so_far):
    """expected_improvement's masked path, run whatever the sigmas."""
    from scipy.special import ndtr

    sigma = np.sqrt(np.maximum(var, 0.0))
    gain = mean - best_so_far
    pos = sigma > 0.0
    ei = np.where(pos, 0.0, np.maximum(gain, 0.0))
    z = gain[pos] / sigma[pos]
    ei[pos] = gain[pos] * ndtr(z) + sigma[pos] * (np.exp(-z**2 / 2.0) / np.sqrt(2.0 * np.pi))
    return np.maximum(ei, 0.0)


@pytest.mark.parametrize("size, cases", [(1, 10_000), (3, 8_000), (1024, 2_000)])
def test_ei_without_masks_matches_masked_path_bit_for_bit(size, cases):
    # every sigma > 0, so expected_improvement takes its mask-free path
    rng = np.random.default_rng(size)
    for _ in range(cases):
        best = rng.normal()
        mean = best + rng.normal(size=size) * 10.0 ** rng.uniform(-6.0, 2.0, size)
        var = 10.0 ** rng.uniform(-14.0, 4.0, size)
        ei = expected_improvement(mean, var, best)
        assert ei.tobytes() == _ei_masked(mean, var, best).tobytes()


def test_ei_with_some_zero_sigma_matches_masked_path_bit_for_bit():
    # a zero or negative variance in the batch sends expected_improvement down
    # its masked path; the points with sigma > 0 must get the same bits either way
    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 1024) * 500:
        best = rng.normal()
        mean = best + rng.normal(size=size) * 10.0 ** rng.uniform(-6.0, 2.0, size)
        var = 10.0 ** rng.uniform(-14.0, 4.0, size)
        var[rng.random(size) < 0.3] = rng.choice([0.0, -0.0, -1e-12])
        ei = expected_improvement(mean, var, best)
        assert ei.tobytes() == _ei_masked(mean, var, best).tobytes()
        positive = var > 0.0
        if positive.any():
            one_by_one = expected_improvement(mean[positive], var[positive], best)
            assert one_by_one.tobytes() == ei[positive].tobytes()
    assert expected_improvement(np.float64(0.5), np.float64(0.0), 0.25) == 0.25
