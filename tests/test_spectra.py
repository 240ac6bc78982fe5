import os
import subprocess
import sys

import numpy as np
import pytest

from subridge import (
    NullSignalError,
    SpectralMeasure,
    ar1_covariance,
    ar1_model,
    empirical_spectrum,
    isotropic_model,
    signal_measure,
)


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        SpectralMeasure(values=np.array([1.0, 2.0]), weights=np.array([0.5, 0.4]))


def test_values_sorted_descending():
    m = SpectralMeasure(values=np.array([1.0, 3.0, 2.0]),
                        weights=np.array([0.2, 0.5, 0.3]))
    assert list(m.values) == [3.0, 2.0, 1.0]
    assert m.support == (1.0, 3.0)


def test_integrate_and_mean():
    m = SpectralMeasure(values=np.array([2.0, 4.0]), weights=np.array([0.5, 0.5]))
    assert m.mean() == pytest.approx(3.0)
    assert m.integrate(lambda r: r**2) == pytest.approx(10.0)


def test_empirical_spectrum_matches_eigvals():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    cov = A @ A.T + np.eye(6)
    H = empirical_spectrum(cov)
    np.testing.assert_allclose(
        np.sort(H.values), np.sort(np.linalg.eigvalsh(cov)), rtol=1e-12
    )
    assert H.weights.sum() == pytest.approx(1.0)


def test_signal_measure_diagonal_oracle():
    # Diagonal covariance: signal weights are squared coordinates of beta0.
    eigenvalues = np.array([3.0, 2.0, 1.0])
    eigenvectors = np.eye(3)
    beta0 = np.array([1.0, 0.0, 2.0])
    G, rho2 = signal_measure(beta0, eigenvectors, eigenvalues)
    assert rho2 == pytest.approx(5.0)
    assert G.integrate(lambda r: r) == pytest.approx((1 * 3 + 4 * 1) / 5)


def test_signal_measure_rejects_null_signal():
    with pytest.raises(NullSignalError):
        signal_measure(np.zeros(3), np.eye(3), np.ones(3))


def test_ar1_covariance_is_toeplitz_power():
    cov = ar1_covariance(0.5, 4)
    expected = np.array([[0.5 ** abs(i - j) for j in range(4)] for i in range(4)])
    np.testing.assert_allclose(cov, expected)


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("p", [1, 2, 7, 500])
def test_ar1_covariance_equals_scipy_toeplitz(rho, p):
    from scipy.linalg import toeplitz

    assert np.array_equal(ar1_covariance(rho, p), toeplitz(rho ** np.arange(p)))


def test_import_is_numpy_only():
    code = ("import sys, subridge; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_ar1_model_signal_energy():
    model, cov, beta0 = ar1_model(0.5, p_ref=100)
    # Equal weight on the top five eigenvectors gives squared norm 1/5.
    assert np.dot(beta0, beta0) == pytest.approx(0.2)
    assert model.rho2 == pytest.approx(0.2)
    e = np.linalg.eigvalsh(cov)
    assert model.G.support[0] >= e[-5] - 1e-12


def test_null_risk():
    model = isotropic_model(rho2=1.0, sigma2=2.0)
    assert model.null_risk == pytest.approx(3.0)
