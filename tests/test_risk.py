import math

import numpy as np
import pytest

from subridge import (
    ar1_model,
    asymptotic_risk,
    contour_lambda_for_phis,
    equivalence_path,
    gcv_denominator_limit,
    gcv_limit,
    gcv_limit_finite_M,
    inconsistency_gap,
    isotropic_model,
    optimal_lambda,
    optimal_subsample,
    risk_surface,
    solve_v,
    training_error_limit,
)

ISO = isotropic_model(1.0, 1.0)
AR1, _, _ = ar1_model(0.5, p_ref=200)


def random_tuples(rng, count, lam_zero_prob=0.3):
    out = []
    while len(out) < count:
        phi = float(10.0 ** rng.uniform(-1.3, 0.6))
        phis = float(phi * 10.0 ** rng.uniform(0.0, 1.0))
        lam = 0.0 if rng.random() < lam_zero_prob else float(10.0 ** rng.uniform(-2, 0.5))
        if lam == 0.0 and abs(phis - 1.0) < 0.05:
            continue
        out.append((lam, phi, phis))
    return out


class TestClosedForms:
    def test_single_fit_square_aspect(self):
        assert asymptotic_risk(0.0, 2.0, 2.0, ISO, M=1).risk == pytest.approx(2.5)

    def test_full_ensemble(self):
        r = asymptotic_risk(0.0, 0.5, 2.0, ISO).risk
        assert r == pytest.approx(10.0 / 7.0, abs=1e-12)

    def test_decomposition_components(self):
        dec = asymptotic_risk(0.0, 2.0, 2.0, ISO, M=1)
        assert dec.sigma2 == 1.0
        assert dec.bias == pytest.approx(0.5)
        assert dec.variance == pytest.approx(1.0)

    def test_null_sentinels(self):
        for dec in (
            asymptotic_risk(math.inf, 0.5, 2.0, ISO),
            asymptotic_risk(0.3, 0.5, math.inf, ISO),
        ):
            assert dec.risk == pytest.approx(ISO.null_risk)
            assert dec.variance == 0.0


def test_mixture_identity():
    # R_M = R_inf + (R_1 - R_inf) / M for every M.
    rng = np.random.default_rng(1)
    for lam, phi, phis in random_tuples(rng, 25):
        r1 = asymptotic_risk(lam, phi, phis, AR1, M=1).risk
        rinf = asymptotic_risk(lam, phi, phis, AR1).risk
        for M in (2, 3, 7, 50):
            rm = asymptotic_risk(lam, phi, phis, AR1, M=M).risk
            assert rm == pytest.approx(rinf + (r1 - rinf) / M, abs=1e-12)


def test_gcv_denominator_square_aspect_is_ell_squared():
    ell = solve_v(0.7, 1.5, AR1.H).ell
    assert gcv_denominator_limit(0.7, 1.5, 1.5, AR1.H) == pytest.approx(ell**2)


def test_training_error_dual_route():
    # The full-ensemble training error equals denominator * full risk.
    rng = np.random.default_rng(2)
    for lam, phi, phis in random_tuples(rng, 25):
        t_inf = training_error_limit(lam, phi, phis, AR1, M=math.inf)
        d = gcv_denominator_limit(lam, phi, phis, AR1.H)
        rinf = asymptotic_risk(lam, phi, phis, AR1).risk
        assert t_inf == pytest.approx(d * rinf, rel=1e-10)


def test_gcv_limit_equals_full_risk():
    rng = np.random.default_rng(3)
    for lam, phi, phis in random_tuples(rng, 25):
        assert gcv_limit(lam, phi, phis, AR1) == pytest.approx(
            asymptotic_risk(lam, phi, phis, AR1).risk, rel=1e-10
        )


def test_gcv_limit_null_sentinels_give_null_risk():
    # phis = inf and lam = inf are the null predictor, as in asymptotic_risk
    # and gcv_limit_finite_M (the full-ensemble limit was nan at phis = inf).
    for lam, phis in ((0.1, math.inf), (0.0, math.inf), (math.inf, 2.0)):
        assert gcv_limit(lam, 0.5, phis, AR1) == AR1.null_risk
        assert gcv_limit_finite_M(lam, 0.5, phis, AR1, M=math.inf) == AR1.null_risk
        assert gcv_limit_finite_M(lam, 0.5, phis, AR1, M=3) == AR1.null_risk


class TestFiniteMGcv:
    def test_no_subsampling_recovers_risk(self):
        # When phis = phi the GCV limit is exact at every ensemble size.
        for M in (1, 2, 5, 40):
            got = gcv_limit_finite_M(0.4, 1.2, 1.2, AR1, M)
            want = asymptotic_risk(0.4, 1.2, 1.2, AR1, M=M).risk
            assert got == pytest.approx(want, rel=1e-10)

    def test_single_member_recovers_single_risk(self):
        got = gcv_limit_finite_M(0.0, 0.5, 2.0, ISO, 1)
        assert got == pytest.approx(2.5, abs=1e-12)

    def test_large_M_approaches_full_limit(self):
        got = gcv_limit_finite_M(0.0, 0.5, 2.0, ISO, 10**6)
        assert got == pytest.approx(gcv_limit(0.0, 0.5, 2.0, ISO), rel=1e-5)

    def test_two_member_ridgeless_value(self):
        # Frozen oracle: (2 phis - phi) / (2 (phis - phi)) * R_1 = 35/12.
        got = gcv_limit_finite_M(0.0, 0.5, 2.0, ISO, 2)
        assert got == pytest.approx(35.0 / 12.0, abs=1e-12)


def test_inconsistency_gap_positive_and_frozen_value():
    assert inconsistency_gap(0.5, 2.0, ISO) == pytest.approx(20.0 / 21.0, abs=1e-12)
    rng = np.random.default_rng(4)
    for lam, phi, phis in random_tuples(rng, 10, lam_zero_prob=0.0):
        if phis <= phi * 1.05 or abs(phis - 1.0) < 0.05:
            continue
        assert inconsistency_gap(phi, phis, AR1) > 0


class TestContour:
    def test_isotropic_spot_value(self):
        assert contour_lambda_for_phis(0.5, 2.0, ISO.H) == pytest.approx(0.75)

    def test_risk_constant_along_path(self):
        pts = equivalence_path(0.3, 3.0, AR1, num=11)
        risks = [p.risk for p in pts]
        assert max(risks) - min(risks) < 1e-10
        assert pts[0].phis == pytest.approx(0.3)
        assert pts[-1].lam == 0.0

    def test_interpolating_target_gives_zero_penalty(self):
        assert contour_lambda_for_phis(0.2, 0.8, AR1.H) == 0.0
        r_a = asymptotic_risk(0.0, 0.2, 0.2, AR1).risk
        r_b = asymptotic_risk(0.0, 0.2, 0.8, AR1).risk
        assert r_a == pytest.approx(r_b, rel=1e-12)


class TestOptimizers:
    def test_optimal_lambda_matches_dense_scan(self):
        lam_star, r_star = optimal_lambda(0.3, 0.3, AR1)
        dense = min(
            asymptotic_risk(lam, 0.3, 0.3, AR1).risk
            for lam in np.linspace(1e-4, 5.0, 4000)
        )
        assert r_star <= dense + 1e-8

    def test_optimal_subsample_matches_dense_scan(self):
        phis_star, r_star = optimal_subsample(0.0, 0.3, AR1)
        dense = min(
            asymptotic_risk(0.0, 0.3, phis, AR1).risk
            for phis in np.geomspace(0.31, 50.0, 4000)
            if abs(phis - 1.0) > 1e-3
        )
        assert r_star <= dense + 1e-8

    def test_null_wins_for_pure_noise_model(self):
        noise = isotropic_model(rho2=0.0, sigma2=1.0)
        lam_star, r_star = optimal_lambda(0.5, 0.5, noise)
        assert math.isinf(lam_star) and r_star == pytest.approx(1.0)


def test_risk_surface_marks_invalid_cells():
    lam_grid = np.array([0.0, 0.5])
    phis_grid = np.array([0.2, 0.5, 1.0, 2.0])
    surf = risk_surface(0.5, lam_grid, phis_grid, ISO)
    assert np.isnan(surf[0, 0])  # phis < phi
    assert np.isnan(surf[0, 2])  # excluded ridgeless boundary at aspect 1
    assert np.isfinite(surf[1, 2])
    assert np.isfinite(surf[0, 3])


@pytest.mark.parametrize("M", [1, 2, 7, math.inf])
def test_risk_surface_matches_scalar_risk_cell_by_cell(M):
    # 6 x 50 = 300 cells: more than one solver block. The grid holds
    # phis < phi, the excluded (0, 1) cell, interpolating ridgeless cells
    # (lam = 0, phis < 1), phis > 1 and the null limits lam, phis = inf.
    phi = 0.3
    lam_grid = np.array([0.0, 1e-6, 0.05, 0.7, 4.0, math.inf])
    phis_grid = np.concatenate(([0.1, 0.2, 1.0, math.inf],
                                np.geomspace(phi, 30.0, 46)))
    surface = risk_surface(phi, lam_grid, phis_grid, AR1, M=M)
    assert surface.shape == (lam_grid.size, phis_grid.size)
    for i, lam in enumerate(lam_grid):
        for j, phis in enumerate(phis_grid):
            try:
                want = asymptotic_risk(lam, phi, phis, AR1, M=M).risk
            except ValueError:
                assert np.isnan(surface[i, j]), (lam, phis)
                continue
            assert surface[i, j] == pytest.approx(want, rel=1e-12, abs=0.0), (lam, phis)
    assert np.isnan(surface[0, 0]) and np.isnan(surface[0, 2])
    assert np.isnan(surface).sum() == lam_grid.size * 2 + 1


def test_risk_surface_rejects_every_cell_outside_the_domain():
    grid = np.array([0.5, 1.0])
    assert np.isnan(risk_surface(0.0, grid, grid, AR1)).all()
    assert np.isnan(risk_surface(0.5, grid, grid, AR1, M=0.5)).all()
    assert np.isnan(risk_surface(0.5, -grid, grid, AR1)).all()


def _count_solves(monkeypatch):
    import subridge.risk

    calls = []

    def counting(*args):
        calls.append(args)
        return solve_v(*args)

    monkeypatch.setattr(subridge.risk, "solve_v", counting)
    return calls


@pytest.mark.parametrize("M", [1, 2, 5, math.inf])
@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_gcv_limit_finite_M_solves_once(monkeypatch, lam, M):
    calls = _count_solves(monkeypatch)
    gcv_limit_finite_M(lam, 0.2, 1.7, AR1, M)
    assert len(calls) == 1


def test_each_limit_solves_once(monkeypatch):
    calls = _count_solves(monkeypatch)
    for evaluate in (
        lambda: asymptotic_risk(0.1, 0.2, 1.7, AR1, M=3),
        lambda: training_error_limit(0.1, 0.2, 1.7, AR1, M=math.inf),
        lambda: training_error_limit(0.1, 0.2, 1.7, AR1, M=2),
        lambda: gcv_denominator_limit(0.1, 0.2, 1.7, AR1.H),
        lambda: gcv_limit(0.1, 0.2, 1.7, AR1),
    ):
        calls.clear()
        evaluate()
        assert len(calls) == 1


def test_two_member_training_error_matches_aspect_form():
    # Reference: the weights written in (phi, phis) rather than x = phi/phis.
    rng = np.random.default_rng(5)
    for lam, phi, phis in random_tuples(rng, 25):
        ell = solve_v(lam, phis, AR1.H).ell
        d = 2.0 * phis - phi
        on_r1 = 0.5 * ((phis - phi) + ell * ell * phis) / d
        on_rinf = 0.5 * (2.0 * ell * (phis - phi) + ell * ell * phi) / d
        r1 = asymptotic_risk(lam, phi, phis, AR1, M=1).risk
        rinf = asymptotic_risk(lam, phi, phis, AR1).risk
        assert training_error_limit(lam, phi, phis, AR1, M=2) == pytest.approx(
            on_r1 * r1 + on_rinf * rinf, rel=1e-12)
