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
    surface_nan_reasons,
    training_error_limit,
)
import subridge.fixed_point
from subridge.fixed_point import (
    BLOCK_BUDGET,
    DivergentVarianceError,
    newton_counts,
)
from subridge.spectra import ModelSpec, SpectralMeasure

ISO = isotropic_model(1.0, 1.0)
AR1, _, _ = ar1_model(0.5, p_ref=200)


def random_tuples(rng, count, lam_zero_prob=0.3, near_diagonal=False):
    """(lam, phi, phis) tuples with phis/phi in [1, 10], or with
    phis/phi - 1 in [1e-4, 0.03] when near_diagonal."""
    out = []
    while len(out) < count:
        phi = float(10.0 ** rng.uniform(-1.3, 0.6))
        if near_diagonal:
            phis = phi * (1.0 + float(10.0 ** rng.uniform(-4.0, math.log10(0.03))))
        else:
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
        # Full ensemble at v = 1, Ahat = 1/4, ctilde = 1/4: the cross
        # component vtilde(0; 0.5, 2) = 1/7 gives variance 1/7 and bias
        # (1 + 1/7)/4 = 2/7.
        dec = asymptotic_risk(0.0, 0.5, 2.0, ISO)
        assert dec.variance == pytest.approx(1.0 / 7.0, abs=1e-12)
        assert dec.bias == pytest.approx(2.0 / 7.0, abs=1e-12)
        # Interpolating members (v = inf) have ctilde = 0: no bias at all.
        dec = asymptotic_risk(0.0, 0.5, 0.5, ISO, M=1)
        assert dec.bias == 0.0
        assert dec.variance == pytest.approx(1.0, abs=1e-12)

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


@pytest.mark.parametrize("lam, phis", [(0.1, math.inf), (0.0, math.inf),
                                       (0.1, 1e300), (math.inf, 2.0)])
def test_gcv_denominator_of_the_null_predictor_is_one(lam, phis):
    # A predictor that fits nothing leaves the GCV denominator at 1; at
    # phis = 1e300 the members are solved and are the null predictor to
    # rounding.
    assert gcv_denominator_limit(lam, 0.5, phis, AR1.H) == 1.0


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


def test_gcv_limit_equals_full_risk_near_the_diagonal():
    # With phis within 3% of phi the union error is ~(1 - phi/phis)^2 R_inf,
    # and the union blend must not lose its digits to cancellation.
    rng = np.random.default_rng(9)
    for model in (AR1, ISO):
        for lam, phi, phis in random_tuples(rng, 25, near_diagonal=True):
            risk = asymptotic_risk(lam, phi, phis, model).risk
            assert abs(gcv_limit(lam, phi, phis, model) - risk) <= 1e-11 * risk, (
                lam, phi, phis)


@pytest.mark.parametrize("model", [ISO, AR1], ids=["isotropic", "ar1"])
@pytest.mark.parametrize("phi", [2.0, 5.0])
def test_gcv_limit_is_the_risk_at_ridgeless_full_data(model, phi):
    # At lam = 0 and phis = phi > 1 every member is the full-data ridgeless
    # fit: ell = 0, so numerator and denominator both vanish.
    risk = asymptotic_risk(0.0, phi, phi, model).risk
    assert gcv_limit(0.0, phi, phi, model) == pytest.approx(risk, rel=1e-12)
    assert gcv_limit_finite_M(0.0, phi, phi, model, M=math.inf) == pytest.approx(
        risk, rel=1e-12)


def test_gcv_limit_is_the_finite_M_formula_at_M_inf():
    rng = np.random.default_rng(10)
    for model in (AR1, ISO):
        tuples = random_tuples(rng, 25) + [(0.0, 2.0, 2.0), (0.1, 0.5, 1e17)]
        for lam, phi, phis in tuples:
            assert gcv_limit(lam, phi, phis, model) == gcv_limit_finite_M(
                lam, phi, phis, model, M=math.inf), (lam, phi, phis)


def test_full_ensemble_limits_where_the_left_out_share_rounds_to_one():
    # At phis = 1e17, 1 - phi/phis rounds to 1, yet no data is left out of
    # an infinite union; the members are near the null predictor.
    for limit in (gcv_limit, lambda *cell: training_error_limit(*cell, M=math.inf)):
        assert limit(0.1, 0.5, 1e17, ISO) == pytest.approx(ISO.null_risk, rel=1e-12)


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
        for p in pts:
            want = asymptotic_risk(p.lam, 0.3, p.phis, AR1).risk
            assert p.risk == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_interpolating_target_gives_zero_penalty(self):
        assert contour_lambda_for_phis(0.2, 0.8, AR1.H) == 0.0
        r_a = asymptotic_risk(0.0, 0.2, 0.2, AR1).risk
        r_b = asymptotic_risk(0.0, 0.2, 0.8, AR1).risk
        assert r_a == pytest.approx(r_b, rel=1e-12)

    def test_path_to_the_null_predictor(self):
        pts = equivalence_path(0.5, math.inf, ISO, num=3)
        assert [(p.lam, p.phis) for p in pts] == [
            (math.inf, 0.5), (math.inf, math.inf), (0.0, math.inf)]
        assert [p.risk for p in pts] == [ISO.null_risk] * 3


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

    @pytest.mark.parametrize("phi", [0.1, 0.5, 2.0])
    def test_optimal_lambda_is_the_contour_penalty_at_optimal_subsample(self, phi):
        # The optimal ridge penalty and the optimal ridgeless subsample lie
        # on one equivalence segment.
        phis_star, r_sub = optimal_subsample(0.0, phi, AR1)
        lam_star, r_lam = optimal_lambda(phi, phi, AR1)
        assert r_lam == pytest.approx(r_sub, rel=1e-12)
        assert contour_lambda_for_phis(phi, phis_star, AR1.H) == pytest.approx(
            lam_star, rel=1e-6)

    @pytest.mark.parametrize("evaluate, message", [
        (lambda: optimal_subsample(0.0, -1.0, AR1), "phi must be positive"),
        (lambda: optimal_subsample(0.0, math.nan, AR1), "phi must be positive"),
        (lambda: optimal_lambda(-1.0, 0.5, AR1), "phi must be positive"),
        (lambda: optimal_lambda(0.5, 0.2, AR1), "phis must be at least phi"),
        (lambda: optimal_subsample(-0.1, 0.5, AR1), "lam must be nonnegative"),
        (lambda: equivalence_path(-1.0, 3.0, AR1), "phi must be positive"),
        (lambda: contour_lambda_for_phis(-1.0, 3.0, AR1.H), "phi must be positive"),
        (lambda: equivalence_path(0.5, 0.2, AR1), "phis_bar must be at least phi"),
        (lambda: contour_lambda_for_phis(math.inf, math.inf, AR1.H),
         "phi must be positive and finite"),
        (lambda: contour_lambda_for_phis(math.nan, 3.0, AR1.H),
         "phi must be positive and finite"),
        (lambda: asymptotic_risk(0.1, 0.5, math.nan, AR1),
         "phis must be at least phi"),
        (lambda: gcv_limit_finite_M(0.1, 0.5, math.nan, AR1, M=3),
         "phis must be at least phi"),
        (lambda: training_error_limit(0.1, 0.5, math.nan, AR1, M=3),
         "phis must be at least phi"),
        (lambda: optimal_lambda(0.5, math.nan, AR1), "phis must be at least phi"),
        (lambda: asymptotic_risk(0.1, 0.5, 2.0, AR1, M=math.nan),
         "M must be a positive integer or inf"),
    ], ids=["subsample-negative-phi", "subsample-nan-phi", "lambda-negative-phi",
            "lambda-phis-below-phi", "subsample-negative-lam", "path-negative-phi",
            "contour-negative-phi", "path-phis-below-phi", "contour-inf-phi",
            "contour-nan-phi", "risk-nan-phis", "finite-M-gcv-nan-phis",
            "training-error-nan-phis", "lambda-nan-phis", "risk-nan-M"])
    def test_reject_aspects_outside_the_domain(self, evaluate, message):
        with pytest.raises(ValueError, match=message):
            evaluate()


def test_optimizers_and_path_make_no_scalar_solves(monkeypatch):
    # The segment's cells are one block; only its end lam_bar, the
    # ridgeless cell at phis_bar, is a scalar solve.
    import subridge.risk

    calls = []

    def counting(*args):
        calls.append(args)
        return solve_v(*args)

    monkeypatch.setattr(subridge.fixed_point, "solve_v", counting)
    monkeypatch.setattr(subridge.risk, "solve_v", counting)
    optimal_subsample(0.0, 0.3, AR1)
    optimal_lambda(0.3, 0.3, AR1)
    assert calls == []
    equivalence_path(0.3, 3.0, AR1)
    assert calls == [(0.0, 3.0, AR1.H)]


def test_risk_surface_marks_invalid_cells():
    lam_grid = np.array([0.0, 0.5])
    phis_grid = np.array([0.2, 0.5, 1.0, 2.0])
    surf = risk_surface(0.5, lam_grid, phis_grid, ISO)
    assert np.isnan(surf[0, 0])  # phis < phi
    assert np.isnan(surf[0, 2])  # excluded ridgeless boundary at aspect 1
    assert np.isfinite(surf[1, 2])
    assert np.isfinite(surf[0, 3])


@pytest.mark.parametrize("M", [1, 2, 7, math.inf])
def test_risk_surface_matches_scalar_risk_cell_by_cell(monkeypatch, M):
    # 6 x 50 = 300 cells in blocks of 7, which cut across lam rows; each
    # cell still equals its scalar risk bit for bit. The grid holds
    # phis < phi, the excluded (0, 1) cell, interpolating ridgeless cells
    # (lam = 0, phis < 1), phis > 1 and the null limits lam, phis = inf.
    monkeypatch.setattr(subridge.fixed_point, "BLOCK_BUDGET",
                        7 * AR1.H._rule[0].size)
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
            assert surface[i, j] == want, (lam, phis)
    assert np.isnan(surface[0, 0]) and np.isnan(surface[0, 2])
    assert np.isnan(surface).sum() == lam_grid.size * 2 + 1


def test_risk_surface_rejects_every_cell_outside_the_domain():
    grid = np.array([0.5, 1.0])
    assert np.isnan(risk_surface(0.0, grid, grid, AR1)).all()
    assert np.isnan(risk_surface(0.5, grid, grid, AR1, M=0.5)).all()
    assert np.isnan(risk_surface(0.5, grid, grid, AR1, M=2.5)).all()
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
        lambda: training_error_limit(0.1, 0.2, 1.7, AR1, M=5),
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


def test_full_ensemble_training_error_matches_aspect_form():
    # Reference: the M = inf union error in (phi, phis), expanded by hand
    # from the one- and two-member errors at cover 1. Near phis = phi the
    # error is ~(1 - phi/phis)^2 R_inf, reached by cancelling terms of size
    # R_1, so both forms carry rounding of order eps R_1.
    rng = np.random.default_rng(6)
    for model in (AR1, ISO):
        for lam, phi, phis in random_tuples(rng, 25):
            ell = solve_v(lam, phis, model.H).ell
            r1 = asymptotic_risk(lam, phi, phis, model, M=1).risk
            rinf = asymptotic_risk(lam, phi, phis, model).risk
            d = 2.0 * phis - phi
            t2 = (0.5 * ((phis - phi) + ell * ell * phis) / d * r1
                  + 0.5 * (2.0 * ell * (phis - phi) + ell * ell * phi) / d * rinf)
            want = (2.0 * phi * (2.0 * phis - phi) / phis**2 * t2
                    + (phis - phi) ** 2 / phis**2 * (r1 + rinf)
                    - phi / phis * ell * ell * r1
                    - (phis - phi) / phis * r1)
            got = training_error_limit(lam, phi, phis, model, M=math.inf)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13 * r1)


@pytest.mark.parametrize("M", [3, 5, 50])
def test_training_error_is_the_finite_M_gcv_numerator(M):
    rng = np.random.default_rng(7)
    for lam, phi, phis in random_tuples(rng, 25):
        ell = solve_v(lam, phis, AR1.H).ell
        u = (phi / phis) / (1.0 - (1.0 - phi / phis) ** M)
        denominator = (1.0 - u * (1.0 - ell)) ** 2
        assert training_error_limit(lam, phi, phis, AR1, M) == pytest.approx(
            gcv_limit_finite_M(lam, phi, phis, AR1, M) * denominator, rel=1e-12)


def test_training_error_approaches_full_limit_as_one_over_M():
    # M (T_M - T_inf) settles once the union covers the data.
    rng = np.random.default_rng(8)
    for lam, phi, phis in random_tuples(rng, 10):
        t_inf = training_error_limit(lam, phi, phis, AR1, M=math.inf)
        scaled = [M * abs(training_error_limit(lam, phi, phis, AR1, M) - t_inf)
                  for M in (500, 5000)]
        assert scaled[0] == pytest.approx(scaled[1], rel=0.01)


@pytest.mark.parametrize("M", [2.5, 0, -math.inf, math.nan])
def test_ensemble_size_must_be_a_positive_integer_or_inf(M):
    for limit in (training_error_limit, gcv_limit_finite_M, asymptotic_risk):
        with pytest.raises(ValueError, match="M must be a positive integer or inf"):
            limit(0.1, 0.2, 1.7, AR1, M)


@pytest.mark.parametrize("M", [1, 2, math.inf])
def test_surface_matches_scalar_risk_cell_by_cell(M):
    # Unsorted lam with duplicates and NaNs, lam = 0 next to interpolating
    # cells (phis < 1), and 14 x 301 cells, more than one solver block
    # (3,764 cells on this 34-node rule), so a block cuts across a lam row.
    phi = 0.3
    lam_grid = np.array([0.7, 0.0, 0.05, 0.7, 4.0, 1e-6, 0.05, math.inf,
                         np.nan, 1e-3, 0.2, 1e-4, np.nan, 0.01])
    phis_grid = np.concatenate(([0.1, 0.5, 0.8, 1.0, math.inf],
                                np.geomspace(phi, 30.0, 296)))
    surface = risk_surface(phi, lam_grid, phis_grid, AR1, M=M)
    for i, lam in enumerate(lam_grid):
        for j, phis in enumerate(phis_grid):
            try:
                want = asymptotic_risk(lam, phi, phis, AR1, M=M).risk
            except ValueError:
                assert np.isnan(surface[i, j]), (lam, phis)
                continue
            assert surface[i, j] == want, (lam, phis)
    # The NaN rows, phis = 0.1 < phi in every other row, and the excluded
    # cell at lam = 0.
    assert np.isnan(surface).sum() == 2 * phis_grid.size + lam_grid.size - 2 + 1
    np.testing.assert_array_equal(surface[0], surface[3])


def test_surface_nan_reasons_count_each_reason():
    # phis = 0.25 lies below phi = 0.5, (0, 1) is the excluded boundary,
    # and at (1e-300, 1) v ~ 1.8e16 makes Ahat round to 1, so the self
    # variance's denominator 1 - phis * Ahat is 0. A cell's bits depend
    # only on (lam, phis, model), so the surface is NaN there exactly
    # because asymptotic_risk raises there.
    lam, phis = np.linspace(0.0, 1e-300, 2), np.linspace(0.25, 1.0, 4)
    surface = risk_surface(0.5, lam, phis, ISO)
    assert surface_nan_reasons(0.5, lam, phis, surface) == {
        "phis_below_phi": 2, "excluded_boundary": 1, "divergent_variance": 1}
    with pytest.raises(DivergentVarianceError):
        asymptotic_risk(1e-300, 0.5, 1.0, ISO)
    assert np.isfinite(surface[:, 1:3]).all()


def test_surface_cell_next_to_the_excluded_point_is_its_scalar_risk():
    # At (1e-300, 1) the root is ~1e16, where F is flat to rounding and
    # 1 - phis * Ahat sits at a few ulps, so a block that rounds a row
    # unlike a one-cell solve turns the cell NaN on one path only.
    model, _, _ = ar1_model(0.5, p_ref=20)
    lam, phis = [0.0, 1e-300], [0.25, 0.5, 0.75, 1.0]
    surface = risk_surface(0.5, lam, phis, model)
    for i, j in np.ndindex(surface.shape):
        try:
            want = asymptotic_risk(lam[i], 0.5, phis[j], model).risk
        except ValueError:
            assert np.isnan(surface[i, j]), (lam[i], phis[j])
            continue
        assert surface[i, j] == want, (lam[i], phis[j])


def fresh_model(model):
    """An equal model on a new measure, so solve_v's memo starts empty."""
    H = SpectralMeasure(values=model.H.values.copy(), weights=model.H.weights.copy())
    return ModelSpec(H=H, G=model.G, rho2=model.rho2, sigma2=model.sigma2)


def test_memoized_limits_are_bit_identical_to_cold_ones():
    rng = np.random.default_rng(13)
    points = random_tuples(rng, 20)
    warm = fresh_model(AR1)
    for _ in range(2):  # the second pass reads every solve from the memo
        for lam, phi, phis in points:
            for M in (1, 2, 5, math.inf):
                cold = fresh_model(AR1)
                assert (asymptotic_risk(lam, phi, phis, warm, M=M)
                        == asymptotic_risk(lam, phi, phis, cold, M=M))
                got = gcv_limit_finite_M(lam, phi, phis, warm, M=M)
                want = gcv_limit_finite_M(lam, phi, phis, fresh_model(AR1), M=M)
                assert got.hex() == want.hex()
    assert len(warm.H._solves) == len(points)


def test_ridgeless_single_member_gcv_limit_keeps_the_recorded_zero():
    # Held defect (CHANGES.md FOUND): ell = 0 zeroes the numerator while the
    # denominator is ~1e-32, not 0, so the M = 1 limit is 0.0, not R_1. The
    # benchmark's recorded theory reference holds these zeros.
    model, _, _ = ar1_model(0.5, p_ref=500)
    phis = float(np.geomspace(0.1, 10.0, 50)[25])
    assert phis > 1.0
    for _ in range(2):
        assert gcv_limit_finite_M(0.0, 0.1, phis, model, M=1) == 0.0


def test_benchmark_surfaces_take_few_newton_steps():
    # The benchmark's three theory-surface grids: 24,300 cells, of which
    # 24,284 are solved by Newton from 0 in blocks of at most
    # BLOCK_BUDGET // nodes cells (3,764 on the 34-node rule). Each
    # surface is one call, so its Python-level Newton calls are
    # ceil(cells / (BLOCK_BUDGET // nodes)). Cold solves take 156,027 and
    # 155,997 cell-steps under one and two BLAS threads (H's eigh differs).
    model, _, _ = ar1_model(0.5, p_ref=500)
    per_block = BLOCK_BUDGET // model.H._rule[0].size
    before = newton_counts()
    blocks = 0
    for phi in (0.1, 0.5, 1.5):
        start = newton_counts()["cells"]
        risk_surface(phi, np.linspace(0.0, 2.0, 81), np.linspace(phi, 10.0, 100),
                     model)
        blocks += -(-(newton_counts()["cells"] - start) // per_block)
    after = newton_counts()
    counts = {key: after[key] - before[key] for key in after}
    assert counts["cells"] == 24_284
    assert counts["blocks"] == blocks == 9
    assert counts["cell_steps"] <= 160_000


# Isotropic (phi, SNR) sweep for the ridgeless optimum just above aspect 1.
# With rho2/sigma2 = SNR, lambda* = phi sigma2 / rho2, and the contour
# through (lambda*, phi) meets lambda = 0 at the larger root of
# phis^2 - (1 + phi + phi sigma2 / rho2) phis + phi = 0. Near a flat minimum
# the optimizer resolves a position to about sqrt(eps) relative, so phis*
# is held to 1e-6; the two optimal risks agree to 1e-12. The first five
# cases have phis* below the first grid point above 1, where the search
# used to stop.
SUBSAMPLE_SWEEP = [(0.1, 4.0), (0.01, 1.0), (0.03, 10.0), (0.05, 2.0),
                   (0.02, 4.0), (0.3, 1.0), (0.5, 4.0), (0.8, 0.5),
                   (0.1, 0.5), (1.0, 2.0), (2.0, 10.0)]


@pytest.mark.parametrize("phi, snr", SUBSAMPLE_SWEEP)
def test_optimal_subsample_matches_the_isotropic_closed_form(phi, snr):
    model = isotropic_model(2.0, 2.0 / snr)
    b = 1.0 + phi + phi / snr
    closed = 0.5 * (b + math.sqrt(b * b - 4.0 * phi))
    phis_star, r_sub = optimal_subsample(0.0, phi, model)
    lam_star, r_lam = optimal_lambda(phi, phi, model)
    assert phis_star == pytest.approx(closed, rel=1e-6)
    assert r_sub == pytest.approx(r_lam, rel=1e-12)
