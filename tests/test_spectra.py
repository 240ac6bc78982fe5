import math
import os
import subprocess
import sys

import numpy as np
import pytest

from subridge import spectra
from subridge import (
    ModelSpec,
    NullSignalError,
    SpectralMeasure,
    ar1_covariance,
    ar1_model,
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
    assert (m.values.min(), m.values.max()) == (1.0, 3.0)


def test_measures_and_models_compare_and_hash_by_identity():
    # Equal atoms print alike but make two measures, so a measure can key a
    # cache; a model compares its measures by identity and its numbers.
    a, b = (SpectralMeasure(values=np.array([1.0, 2.0]),
                            weights=np.array([0.5, 0.5])) for _ in range(2))
    assert a == a and a != b and repr(a) == repr(b)
    assert len({a, b, a}) == 2
    model = ModelSpec(H=a, G=a, rho2=1.0, sigma2=1.0)
    twin = ModelSpec(H=a, G=a, rho2=1.0, sigma2=1.0)
    assert model == twin and hash(model) == hash(twin)
    assert model != ModelSpec(H=b, G=a, rho2=1.0, sigma2=1.0)
    assert ar1_model(0.5, p_ref=20)[0] == ar1_model(0.5, p_ref=20)[0]


def test_integrate_and_mean():
    m = SpectralMeasure(values=np.array([2.0, 4.0]), weights=np.array([0.5, 0.5]))
    assert m.mean() == pytest.approx(3.0)
    assert m.integrate(lambda r: r**2) == pytest.approx(10.0)


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


def test_ar1_covariance_at_rho_zero_is_the_identity():
    np.testing.assert_array_equal(ar1_covariance(0.0, 5), np.eye(5))


@pytest.mark.parametrize("rho", [1.0, -0.1, float("nan"), float("inf")])
def test_ar1_covariance_rejects_rho_outside_unit_interval(rho):
    with pytest.raises(ValueError, match=r"rho_ar1 must lie in \[0, 1\)"):
        ar1_covariance(rho, 3)


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
    assert model.G.values.min() >= e[-5] - 1e-12


@pytest.mark.parametrize("p_ref", [5, 60, 500])
@pytest.mark.parametrize("rho", [0.0, 0.25, 0.5, 0.9])
def test_ar1_model_signal_law_is_exact(rho, p_ref):
    # By definition G is 1/5 on each of H's five largest atoms and
    # rho2 = 1/5; the squared projections of the returned beta0 onto the
    # eigenvectors agree with that law to rounding.
    model, cov, beta0 = ar1_model(rho, p_ref=p_ref)
    assert model.rho2 == 0.2
    assert model.G.values.tobytes() == model.H.values[:5].tobytes()
    assert np.all(model.G.weights == 0.2)
    eigvals, eigvecs = np.linalg.eigh(cov)
    G, rho2 = signal_measure(beta0, eigvecs, eigvals)
    np.testing.assert_allclose(G.values, model.G.values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(G.weights, model.G.weights, rtol=0, atol=1e-12)
    assert rho2 == pytest.approx(0.2, rel=1e-12)


def test_ar1_model_arrays_are_read_only_and_shared_across_sigma2():
    model1, cov1, beta1 = ar1_model(0.5, p_ref=40, sigma2=1.0)
    model2, cov2, beta2 = ar1_model(0.5, p_ref=40, sigma2=2.5)
    assert (model1.sigma2, model2.sigma2) == (1.0, 2.5)
    assert model1.H is model2.H and model1.G is model2.G
    assert cov1 is cov2 and beta1 is beta2
    for array in (cov1, beta1, model1.H.values, model1.H.weights,
                  model1.G.values, model1.G.weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_ar1_model_cache_is_bit_identical_to_a_fresh_spectrum():
    model, cov, beta0 = ar1_model(0.3, p_ref=50)
    H, G, rho2, fresh_cov, fresh_beta0 = spectra._ar1_spectrum.__wrapped__(0.3, 50)
    assert H is not model.H
    for got, want in ((model.H.values, H.values), (model.H.weights, H.weights),
                      (model.G.values, G.values), (model.G.weights, G.weights),
                      (cov, fresh_cov), (beta0, fresh_beta0)):
        assert got.tobytes() == want.tobytes()
    assert model.rho2 == rho2


def test_ar1_model_cache_is_bounded_and_keys_rho_zero_once():
    for p_ref in range(10, 10 + 2 * spectra.AR1_CACHE_SIZE):
        ar1_model(0.4, p_ref=p_ref)
    info = spectra._ar1_spectrum.cache_info()
    assert info.maxsize == spectra.AR1_CACHE_SIZE
    assert info.currsize <= spectra.AR1_CACHE_SIZE
    model, cov, _ = ar1_model(0, p_ref=12)
    assert ar1_model(-0.0, p_ref=12)[0].H is ar1_model(0.0, p_ref=12)[0].H is model.H
    assert cov.dtype == float and np.signbit(cov).sum() == 0


def test_null_risk():
    model = isotropic_model(rho2=1.0, sigma2=2.0)
    assert model.null_risk == pytest.approx(3.0)


# The Gauss rule that the fixed point's integrals read (spectra._gauss_rule).

def integrands(x):
    """The fixed point's three integrands at x: r/(1+xr), r/(1+xr)^2 and
    (xr/(1+xr))^2."""
    return (lambda r: r / (1.0 + x * r), lambda r: r / (1.0 + x * r) ** 2,
            lambda r: (x * r / (1.0 + x * r)) ** 2)


def rule_integral(measure, f):
    nodes, weights = measure._rule
    return float(np.sum(weights * f(nodes)))


@pytest.mark.parametrize("p_ref", [200, 500, 1000])
@pytest.mark.parametrize("rho", [0.1, 0.5, 0.7, 0.9])
def test_rule_integrates_moments_to_degree_2n_minus_1(rho, p_ref):
    # Moments of r/b, which stay in range up to degree 2n - 1. A node's last
    # bit moves (r/b)^j by j ulps, so above degree 112 the bound is 4 j eps
    # (3.6e-13 at rho = 0.9, where 2n - 1 = 403).
    H = ar1_model(rho, p_ref=p_ref)[0].H
    nodes, _ = H._rule
    b = H.values[0]
    for j in range(2 * nodes.size):
        exact = H.integrate(lambda r: (r / b) ** j)
        assert rule_integral(H, lambda r: (r / b) ** j) == pytest.approx(
            exact, rel=max(1e-13, 4 * j * np.finfo(float).eps), abs=0.0)


@pytest.mark.parametrize("p_ref", [5, 200, 500, 1000])
@pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, 0.7, 0.9])
def test_rule_matches_the_atom_sums_of_the_fixed_point_integrands(rho, p_ref):
    H = ar1_model(rho, p_ref=p_ref)[0].H
    nodes, weights = H._rule
    assert nodes.size == weights.size <= p_ref
    for x in np.logspace(-4, 17, 43):
        for f in integrands(x):
            assert rule_integral(H, f) == pytest.approx(
                H.integrate(f), rel=1e-13, abs=0.0)


def test_rule_compresses_the_benchmark_spectrum():
    # AR(1) rho = 0.5, p_ref = 500: Bernstein parameter rho0 = 3.0 puts the
    # 2^-60 bound at 34 nodes.
    H = ar1_model(0.5, p_ref=500)[0].H
    nodes, weights = H._rule
    assert nodes.size == 34
    assert H._rule is H._rule  # built once per measure
    assert np.all((nodes >= H.values[-1]) & (nodes <= H.values[0]))
    assert np.all(weights > 0.0)
    for array in (nodes, weights):
        assert not array.flags.writeable


@pytest.mark.parametrize("measure", [
    pytest.param(lambda: isotropic_model(1.0, 1.0).H, id="isotropic"),
    pytest.param(lambda: ar1_model(0.5, p_ref=5)[0].H, id="p_ref-5"),
    pytest.param(lambda: ar1_model(0.9, p_ref=500)[0].G, id="G"),
])
def test_a_measure_that_does_not_compress_is_its_own_rule(measure):
    m = measure()
    nodes, weights = m._rule
    assert nodes.tobytes() == m.values.tobytes()
    assert weights.tobytes() == m.weights.tobytes()


@pytest.mark.parametrize("atoms, distinct, mass", [
    ({1.0: 250, 2.0: 250}, [2.0, 1.0], [0.5, 0.5]),
    ({3.0: 100, 1.0: 100, 0.5: 300}, [3.0, 1.0, 0.5], [0.2, 0.2, 0.6]),
    # H of AR(1) at rho = 0: eigh of the identity, 500 atoms at 1 of
    # weight 1/500, is one node.
    pytest.param({1.0: 500}, [1.0], [1.0], id="rho-0"),
    # Fewer atoms than the rule's n are merged too.
    pytest.param({2.0: 2, 1.0: 1}, [2.0, 1.0], [2 / 3, 1 / 3], id="few-atoms"),
])
def test_rule_of_repeated_atoms_is_the_distinct_atoms(atoms, distinct, mass):
    values = np.repeat(list(atoms), list(atoms.values()))
    H = SpectralMeasure(values=values, weights=np.full(values.size, 1 / values.size))
    nodes, weights = H._rule
    assert list(nodes) == distinct
    np.testing.assert_allclose(weights, mass, rtol=1e-14, atol=0.0)


def test_rule_of_atoms_whose_square_roots_round_equal():
    # 0.1 and the next float up have one square root; the rule is the atoms.
    values = np.array([np.nextafter(0.1, 1.0), 0.1])
    assert math.sqrt(values[0]) == math.sqrt(values[1])
    H = SpectralMeasure(values=values, weights=np.array([0.5, 0.5]))
    nodes, weights = H._rule
    assert nodes.tobytes() == H.values.tobytes()
    assert weights.tobytes() == H.weights.tobytes()


def test_rule_stops_lanczos_when_atoms_cluster_to_rounding():
    # Two clusters of 250 distinct atoms each, a few ulps wide: the Krylov
    # space is spent after two steps, and the rule is the two clusters.
    spread = 1.0 + np.finfo(float).eps * np.arange(250)
    values = np.concatenate([spread, 2.0 * spread])
    H = SpectralMeasure(values=values, weights=np.full(500, 1 / 500))
    nodes, weights = H._rule
    assert nodes.size == 2
    assert np.all((nodes >= H.values[-1]) & (nodes <= H.values[0]))
    np.testing.assert_allclose(weights, [0.5, 0.5], rtol=1e-14, atol=0.0)
    for x in np.logspace(-4, 17, 22):
        for f in integrands(x):
            assert rule_integral(H, f) == pytest.approx(
                H.integrate(f), rel=1e-13, abs=0.0)


def test_rule_bytes_do_not_depend_on_blas_threads():
    # H from an array, not from eigh: the AR(1) symbol at rho = 0.9 on a
    # grid of 1000 angles, which compresses to some 200 nodes.
    code = (
        "import hashlib, numpy as np; from subridge import SpectralMeasure; "
        "t = np.arange(1, 1001) * np.pi / 1001; "
        "v = 0.19 / (1.81 - 1.8 * np.cos(t)); "
        "nodes, weights = SpectralMeasure(values=v, weights=np.full(1000, 1e-3))._rule; "
        "print(nodes.size, hashlib.sha256(nodes.tobytes() + weights.tobytes()).hexdigest())"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert int(outputs[0].split()[0]) < 1000
    assert outputs[0] == outputs[1]
