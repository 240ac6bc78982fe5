import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subridge import (
    Dataset,
    UndefinedOobError,
    conditional_risk,
    ensemble_fit,
    gcv,
    oob_error,
    predict,
    sample_subsets,
    subsample_grid,
    training_error,
    tune_k,
    tune_lambda,
)
from subridge.ensemble import _lower_inverse, _RidgeSolver, solve_counts, solve_seconds


def make_data(rng, n, p, beta0=None, sigma=1.0):
    X = rng.standard_normal((n, p))
    if beta0 is None:
        beta0 = np.zeros(p)
    y = X @ beta0 + sigma * rng.standard_normal(n)
    return Dataset(X, y)


def members(data, k, M, lam, seed):
    """(indices, coef, df) of each member of ensemble_fit(data, k, M, lam,
    seed), regenerated from its subsets."""
    return [(idx, *_RidgeSolver(data, idx).solve(lam))
            for idx in sample_subsets(data.n, k, M, seed)]


class TestRidgeFit:
    """The full-data one-member ensemble is the ridge fit of (X, y)."""

    def test_identity_interpolation(self):
        y = np.array([1.0, 2.0])
        beta = ensemble_fit(Dataset(np.eye(2), y), len(y), 1, 0.0, seed=0).coef
        np.testing.assert_allclose(beta, [1.0, 2.0], atol=1e-12)

    def test_identity_half_penalty(self):
        y = np.array([1.0, 2.0])
        beta = ensemble_fit(Dataset(np.eye(2), y), len(y), 1, 0.5, seed=0).coef
        np.testing.assert_allclose(beta, [0.5, 1.0], atol=1e-12)

    def test_huge_penalty_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 4))
        y = rng.standard_normal(10)
        beta = ensemble_fit(Dataset(X, y), len(y), 1, 1e9, seed=0).coef
        assert np.linalg.norm(beta) <= 1e-6 * np.linalg.norm(X.T @ y / 10)

    def test_ridgeless_is_min_norm(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 9))  # overparameterized
        y = rng.standard_normal(5)
        beta = ensemble_fit(Dataset(X, y), len(y), 1, 0.0, seed=0).coef
        np.testing.assert_allclose(beta, np.linalg.pinv(X) @ y, atol=1e-10)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(2)
        for k, p in ((20, 7), (7, 20)):
            X = rng.standard_normal((k, p))
            y = rng.standard_normal(k)
            lam = 0.3
            beta = ensemble_fit(Dataset(X, y), len(y), 1, lam, seed=0).coef
            resid = (X.T @ X / k + lam * np.eye(p)) @ beta - X.T @ y / k
            scale = np.linalg.norm(X.T @ y / k)
            assert np.linalg.norm(resid) <= 1e-8 * max(scale, 1.0)

    def test_continuity_in_penalty(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 8))
        y = rng.standard_normal(30)
        b0 = ensemble_fit(Dataset(X, y), len(y), 1, 0.5, seed=0).coef
        b1 = ensemble_fit(Dataset(X, y), len(y), 1, 0.5 + 1e-7, seed=0).coef
        assert np.linalg.norm(b0 - b1) <= 1e-4

    def test_rejects_non_finite(self):
        y = np.array([1.0])
        with pytest.raises(ValueError):
            ensemble_fit(Dataset(np.array([[np.nan]]), y), len(y), 1, 0.1, seed=0)


def count_calls(monkeypatch, name):
    """Count calls of numpy.linalg.<name> (the solver looks it up per call)."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def count_full_grams(monkeypatch):
    """Datasets whose full gram X'X is formed, one entry per formation."""
    formed = []
    cached = Dataset.__dict__["_full_gram"]
    form = cached.func

    def counted(data):
        formed.append(data)
        return form(data)

    monkeypatch.setattr(cached, "func", counted)
    return formed


def relative(a, b):
    return np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b)


def paths_timed(before):
    """The solve paths whose `solve_seconds` grew since `before`."""
    return {key for key, s in solve_seconds().items() if s > before[key]}


# `_lower_inverse` inverts blocks of at most 32 rows directly and halves
# anything larger, so these sizes cover a single leaf (1, 2, 31, 32), the
# first split (33), two full leaves (64), a second level (65) and three or
# more levels (100, 257, 400).
@pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 64, 65, 100, 257, 400])
def test_lower_inverse_matches_inv(m):
    # The Cholesky factor of a square gram, as a near-square ridgeless
    # member forms it. Both inverses are backward stable, so they agree to
    # about cond(L) * eps relative; m bounds the growth of the rounding.
    rng = np.random.default_rng(m)
    X = rng.standard_normal((m, m))
    L = np.linalg.cholesky(X @ X.T)
    W = _lower_inverse(L)
    assert not np.triu(W, 1).any()
    bound = m * np.linalg.cond(L) * np.finfo(float).eps
    assert relative(W, np.linalg.inv(L)) <= bound


class TestRidgeSolver:
    # Grams of 70 and 100 rows: the ridgeless substitution runs over a full
    # and a partial block of 64 rows, and the ridge `_lower_inverse` splits
    # twice.
    @pytest.mark.parametrize("k, p", [(70, 200), (300, 100)], ids=["dual", "primal"])
    @pytest.mark.parametrize("lam", [0.0, 0.3], ids=["ridgeless", "ridge"])
    def test_direct_path_matches_spectral_path(self, monkeypatch, k, p, lam):
        rng = np.random.default_rng(7)
        X, y = rng.standard_normal((k, p)), rng.standard_normal(k)
        eigh = count_calls(monkeypatch, "eigh")
        before = solve_seconds()
        solver = _RidgeSolver(Dataset(X, y))
        coef, df = solver.solve(lam)
        assert eigh == []  # the direct path took it
        assert paths_timed(before) == {"cholesky"}
        coef_ref, df_ref = solver.spectral(lam)
        assert relative(coef, coef_ref) <= 1e-10
        assert abs(df - df_ref) <= 1e-10 * df_ref
        if lam == 0.0:
            assert df == min(k, p)

    # Near-square ridgeless members (|k - p| <= 0.1 p) with p = 100: the
    # gram has 95 to 105 rows, so `_lower_inverse` splits twice, down to
    # blocks of 23 to 27 rows. The complement member holds 102 of 180 rows
    # (2k > n).
    @pytest.mark.parametrize("k, n", [(100, None), (95, None), (105, None),
                                      (102, 180)],
                             ids=["square", "dual", "primal", "complement"])
    def test_near_square_ridgeless_takes_certified_path(self, monkeypatch, k, n):
        p = 100
        rng = np.random.default_rng(8)
        X_all = rng.standard_normal((n or k, p))
        y_all = rng.standard_normal(n or k)
        rows = None if n is None else np.sort(rng.permutation(n)[:k])
        X = X_all if rows is None else X_all[rows]
        y = y_all if rows is None else y_all[rows]
        eigh = count_calls(monkeypatch, "eigh")
        before, before_s = solve_counts(), solve_seconds()
        solver = _RidgeSolver(Dataset(X_all, y_all), rows)
        coef, df = solver.solve(0.0)
        assert eigh == []
        assert solve_counts()["certified"] == before["certified"] + 1
        assert paths_timed(before_s) == {"certified"}
        assert df == min(k, p)
        # The min-norm solution of a full-rank gram A is A^-1 rhs mapped to
        # beta. Both the certified path and pinv compute it to about
        # cond(A) * eps relative; m = min(k, p) bounds the growth of the
        # rounding in the factorizations and substitutions.
        bound = min(k, p) * np.linalg.cond(solver.gram) * np.finfo(float).eps
        assert relative(coef, np.linalg.pinv(X) @ y) <= bound

    def test_square_duplicated_column_falls_back_to_rank(self, monkeypatch):
        eigh = count_calls(monkeypatch, "eigh")
        before, before_s = solve_counts(), solve_seconds()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((60, 59))
            X = np.column_stack([X, X[:, 0]])
            y = rng.standard_normal(60)
            coef, df = _RidgeSolver(Dataset(X, y)).solve(0.0)
            assert df == 59
            assert relative(coef, np.linalg.pinv(X) @ y) <= 1e-8
        after = solve_counts()
        assert len(eigh) == 20
        assert after["spectral"] == before["spectral"] + 20
        assert after["rank_deficient"] == before["rank_deficient"] + 20
        assert paths_timed(before_s) == {"spectral"}

    def test_certificate_never_passes_a_dropped_eigenvalue(self):
        # Square designs X = Q diag(sqrt e) Q', so the gram is Q diag(e) Q'
        # to rounding, with the j smallest e spread over [cutoff / 10,
        # 10 cutoff] around the rank cutoff m eps e_max of `spectral`. Half
        # of them put almost all of tr(A) into e_max, where the certificate's
        # tr(A) is no looser than the cutoff's e_max. The certified path
        # must never take a member whose cutoff drops an eigenvalue, its df
        # must equal that of `spectral`, and the two solutions must agree to
        # the cond(A) * eps bound of the test above. The first sweep holds
        # 5 to 79 rows; the second, 65 to 300 rows, where `_lower_inverse`
        # splits two to four times.
        eps = np.finfo(float).eps
        for seeds, sizes in ((range(300), (5, 80)), (range(300, 360), (65, 301))):
            certified = fell_back = dropped = 0
            for seed in seeds:
                rng = np.random.default_rng(seed)
                m = int(rng.integers(*sizes))
                Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
                if seed % 2:
                    e = np.full(m, 1e-3)
                else:
                    e = np.exp(rng.uniform(-3.0, 0.0, m))
                e[-1] = 1.0
                j = int(rng.integers(1, 4))
                e[:j] = m * eps * np.exp(rng.uniform(-np.log(10), np.log(10), j))
                X = (Q * np.sqrt(e)) @ Q.T
                solver = _RidgeSolver(Dataset(X, rng.standard_normal(m)))
                before = solve_counts()["certified"]
                coef, df = solver.solve(0.0)
                coef_ref, df_ref = solver.spectral(0.0)
                dropped += df_ref < m
                if solve_counts()["certified"] > before:
                    certified += 1
                    assert df_ref == m and df == df_ref
                    bound = m * np.linalg.cond(solver.gram) * eps
                    assert relative(coef, coef_ref) <= bound
                else:
                    fell_back += 1
            # Each sweep straddles the cutoff: some members are certified,
            # some fall back, and the cutoff drops eigenvalues of some.
            assert certified and fell_back and dropped, sizes

    def test_duplicated_column_drops_to_rank(self, monkeypatch):
        # An exactly collinear column leaves a gram eigenvalue of about
        # eps * e_max; the rank cutoff must drop it, and the Cholesky check
        # must send the member to the spectral path that applies the cutoff.
        # Each seed also solves the same rows as a member holding 180 of 240
        # rows, whose gram is the full gram minus the 60 left-out rows'.
        eigh = count_calls(monkeypatch, "eigh")
        for seed in range(200):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((180, 59))
            X = np.column_stack([X, X[:, 0]])
            y = rng.standard_normal(180)
            coef, df = _RidgeSolver(Dataset(X, y)).solve(0.0)
            assert df == 59
            assert relative(coef, np.linalg.pinv(X) @ y) <= 1e-8
            X_rest = rng.standard_normal((60, 59))
            X_rest = np.column_stack([X_rest, X_rest[:, 0]])
            rows = np.sort(rng.permutation(240)[:180])
            X_all, y_all = np.empty((240, 60)), np.empty(240)
            X_all[rows], y_all[rows] = X, y
            left_out = np.setdiff1d(np.arange(240), rows)
            X_all[left_out], y_all[left_out] = X_rest, rng.standard_normal(60)
            coef, df = _RidgeSolver(Dataset(X_all, y_all), rows).solve(0.0)
            assert df == 59
            assert relative(coef, np.linalg.pinv(X) @ y) <= 1e-8
        assert len(eigh) == 400

    def test_penalty_path_reuses_one_eigh(self, monkeypatch):
        rng = np.random.default_rng(9)
        X, y = rng.standard_normal((30, 80)), rng.standard_normal(30)
        solver = _RidgeSolver(Dataset(X, y))
        eigh = count_calls(monkeypatch, "eigh")
        for lam in (0.0, 0.01, 0.1, 1.0):
            solver.spectral(lam)
        assert eigh == ["eigh"]


class TestComplementGram:
    """Primal members holding more than half the rows (2k > n) take their
    gram and rhs from the dataset's full ones minus the left-out rows'."""

    @pytest.mark.parametrize("k", [61, 119, 120], ids=["half+1", "n-1", "n"])
    @pytest.mark.parametrize("lam", [0.0, 0.3], ids=["ridgeless", "ridge"])
    def test_matches_directly_formed_member(self, k, lam):
        rng = np.random.default_rng(19)
        data = make_data(rng, 120, 40, beta0=rng.standard_normal(40))
        rows = np.sort(rng.permutation(120)[:k])
        X, y = data.X[rows], data.y[rows]
        solver = _RidgeSolver(data, rows)
        assert relative(solver.gram, X.T @ X) <= 1e-12
        assert relative(solver.rhs, X.T @ y) <= 1e-12
        coef, df = solver.solve(lam)
        coef_ref, df_ref = _RidgeSolver(Dataset(X, y)).solve(lam)
        assert relative(coef, coef_ref) <= 1e-10
        assert abs(df - df_ref) <= 1e-10 * df_ref
        if k == 120:  # every row: the full gram as it is
            assert solver.gram is data._full_gram[0]

    def test_full_gram_formed_once_per_dataset(self, monkeypatch):
        formed = count_full_grams(monkeypatch)
        rng = np.random.default_rng(20)
        data = make_data(rng, 64, 10, beta0=rng.standard_normal(10))
        tune_k(data, 0.0, subsample_grid(data.n), M=3, seed=1)
        tune_lambda(data, [0.0, 0.1, 1.0])
        assert len(formed) == 1 and formed[0] is data
        with pytest.raises(ValueError, match="read-only"):
            data.X[0, 0] = 1.0  # the kept gram would go stale

    def test_dual_member_forms_its_own_gram(self, monkeypatch):
        formed = count_full_grams(monkeypatch)
        rng = np.random.default_rng(21)
        data = make_data(rng, 30, 50)
        ensemble_fit(data, 20, 3, 0.1, seed=2)  # 2k > n, but k < p
        assert formed == []
        idx = sample_subsets(data.n, 20, 3, seed=2)[0]
        X = data.X[idx]
        np.testing.assert_array_equal(_RidgeSolver(data, idx).gram, X @ X.T)


class TestSampleSubsets:
    def test_full_size_is_everything(self):
        for idx in sample_subsets(5, 5, 3, seed=0):
            np.testing.assert_array_equal(idx, np.arange(5))

    def test_deterministic(self):
        a = sample_subsets(50, 10, 4, seed=7)
        b = sample_subsets(50, 10, 4, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_singleton_frequency(self):
        hits = sum(s[0] == 0 for s in sample_subsets(2, 1, 10_000, seed=1))
        assert 0.48 <= hits / 10_000 <= 0.52

    def test_prefix_stable_in_member_count(self):
        # Growing the ensemble keeps earlier members' subsets unchanged.
        small = sample_subsets(30, 5, 3, seed=9)
        big = sample_subsets(30, 5, 6, seed=9)
        for x, y in zip(small, big):
            np.testing.assert_array_equal(x, y)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            sample_subsets(5, 6, 1, seed=0)


class TestEnsembleFit:
    def test_average_matches_member_recompute(self):
        rng = np.random.default_rng(4)
        data = make_data(rng, 40, 10)
        fit = ensemble_fit(data, 20, 8, 0.3, seed=11)
        recomputed = np.mean(
            [ensemble_fit(Dataset(data.X[idx], data.y[idx]),
                          20, 1, 0.3, seed=0).coef
             for idx in sample_subsets(data.n, 20, 8, seed=11)],
            axis=0,
        )
        np.testing.assert_allclose(fit.coef, recomputed, atol=1e-12)

    # Ridge and ridgeless, dual, primal and complement members; p = 1 with
    # M = 20 stacks the members as (M, 1), which numpy sums pairwise.
    @pytest.mark.parametrize("n, p, k, M, lam", [
        (40, 10, 20, 8, 0.3), (40, 10, 30, 5, 0.0), (30, 50, 12, 4, 0.0),
        (25, 1, 10, 20, 0.2), (25, 1, 20, 20, 0.0),
    ])
    def test_fit_is_exactly_its_members_averaged(self, n, p, k, M, lam):
        data = make_data(np.random.default_rng(24), n, p)
        fit = ensemble_fit(data, k, M, lam, seed=12)
        solved = members(data, k, M, lam, seed=12)
        assert fit.M == M and fit.k == k and fit.lam == lam
        np.testing.assert_array_equal(
            fit.coef, np.mean([coef for _, coef, _ in solved], axis=0))
        assert fit.mean_trace == np.mean([df for _, _, df in solved])
        np.testing.assert_array_equal(
            fit.union_indices,
            np.unique(np.concatenate([idx for idx, _, _ in solved])))

    def test_ridgeless_trace_is_k_when_overparameterized(self):
        rng = np.random.default_rng(5)
        data = make_data(rng, 30, 50)
        for _, _, df in members(data, 12, 4, 0.0, seed=2):
            assert df == pytest.approx(12)

    def test_trace_bounds(self):
        rng = np.random.default_rng(6)
        data = make_data(rng, 30, 8)
        for _, _, df in members(data, 15, 5, 0.2, seed=3):
            assert 0.0 <= df <= 8.0

    @pytest.mark.parametrize("k", [0, 5])
    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_rejects_non_finite_penalty(self, k, lam):
        data = make_data(np.random.default_rng(18), 10, 3)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ensemble_fit(data, k, 2, lam, seed=0)

    @pytest.mark.parametrize("size", ["1", "p", "n"])
    @pytest.mark.parametrize("M", [1, 3])
    def test_union_is_the_sorted_unique_rows(self, size, M):
        data = make_data(np.random.default_rng(23), 30, 8)
        k = {"1": 1, "p": data.p, "n": data.n}[size]
        fit = ensemble_fit(data, k, M, 0.1, seed=4)
        expected = np.unique(np.concatenate(sample_subsets(data.n, k, M, seed=4)))
        np.testing.assert_array_equal(fit.union_indices, expected)
        assert fit.union_indices.dtype == expected.dtype

    def test_null_fit_checks_member_count(self):
        data = make_data(np.random.default_rng(22), 10, 3)
        with pytest.raises(ValueError, match="M must be at least 1"):
            ensemble_fit(data, 0, 0, 0.1, seed=0)

    def test_null_fit(self):
        rng = np.random.default_rng(7)
        data = make_data(rng, 10, 3)
        fit = ensemble_fit(data, 0, 4, 0.1, seed=0)
        assert fit.k == 0 and fit.union_indices.size == 0
        assert fit.M == 0 and fit.mean_trace == 0.0
        np.testing.assert_array_equal(fit.coef, np.zeros(3))
        assert training_error(fit, data) == pytest.approx(np.mean(data.y**2))
        assert oob_error(fit, data) == pytest.approx(np.mean(data.y**2))
        report = gcv(fit, data)
        assert report.denominator == 1.0
        assert report.value == pytest.approx(np.mean(data.y**2))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 24), p=st.integers(1, 24),
    size=st.sampled_from(["1", "p", "n"]),
    lam=st.just(0.0) | st.floats(1e-3, 10.0),
    M=st.integers(1, 3), seed=st.integers(0, 2**16),
)
def test_member_df_and_gcv_at_boundary_sizes(n, p, size, lam, M, seed):
    # k = 1 is always a directly formed member; k = n (and k = p when p is
    # close to n) holds more than half the rows.
    data = make_data(np.random.default_rng(seed), n, p)
    k = {"1": 1, "p": min(p, n), "n": n}[size]
    fit = ensemble_fit(data, k, M, lam, seed)
    for _, _, df in members(data, k, M, lam, seed):
        assert 0.0 <= df <= min(k, p)
    report = gcv(fit, data)
    assert report.degenerate or math.isfinite(report.value)


class TestErrors:
    def test_interpolating_member_train_error_zero(self):
        rng = np.random.default_rng(8)
        data = make_data(rng, 20, 30)
        fit = ensemble_fit(data, 10, 1, 0.0, seed=4)
        assert training_error(fit, data) == pytest.approx(0.0, abs=1e-16)

    def test_oob_requires_uncovered_rows(self):
        rng = np.random.default_rng(9)
        data = make_data(rng, 12, 4)
        fit = ensemble_fit(data, 12, 1, 0.1, seed=5)
        with pytest.raises(UndefinedOobError):
            oob_error(fit, data)

    def test_decomposition_identity(self):
        # Full-data MSE of the average equals the member/pair combination.
        rng = np.random.default_rng(10)
        data = make_data(rng, 25, 6)
        fit = ensemble_fit(data, 10, 5, 0.2, seed=6)
        resids = [data.y - data.X @ coef
                  for _, coef, _ in members(data, 10, 5, 0.2, seed=6)]
        M = len(resids)
        total = 0.0
        for a in range(M):
            for b in range(M):
                if a == b:
                    total += np.mean(resids[a] ** 2)
                else:
                    pair = np.mean(((resids[a] + resids[b]) / 2) ** 2)
                    single = (np.mean(resids[a] ** 2) + np.mean(resids[b] ** 2)) / 2
                    total += 2.0 * pair - single
        direct = np.mean((data.y - data.X @ fit.coef) ** 2)
        assert direct == pytest.approx(total / M**2, abs=1e-10)


class TestGcv:
    def test_dense_oracle_single_full_fit(self):
        rng = np.random.default_rng(11)
        n, p = 25, 10
        data = make_data(rng, n, p)
        lam = 0.4
        fit = ensemble_fit(data, n, 1, lam, seed=7)
        S = data.X @ np.linalg.inv(
            data.X.T @ data.X / n + lam * np.eye(p)
        ) @ data.X.T / n
        textbook = (
            np.mean(((np.eye(n) - S) @ data.y) ** 2)
            / (1.0 - np.trace(S) / n) ** 2
        )
        assert gcv(fit, data).value == pytest.approx(textbook, abs=1e-10)

    def test_huge_penalty_limit(self):
        rng = np.random.default_rng(12)
        data = make_data(rng, 30, 5)
        fit = ensemble_fit(data, 20, 3, 1e9, seed=8)
        idx = fit.union_indices
        assert gcv(fit, data).value == pytest.approx(
            np.mean(data.y[idx] ** 2), rel=1e-4
        )

    def test_degenerate_denominator_flagged(self):
        rng = np.random.default_rng(13)
        data = make_data(rng, 20, 30)
        fit = ensemble_fit(data, 20, 1, 0.0, seed=9)  # k = n, interpolation
        report = gcv(fit, data)
        assert report.degenerate and math.isinf(report.value)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(14)
        data = make_data(rng, 18, 6)
        perm = rng.permutation(18)
        shuffled = Dataset(data.X[perm], data.y[perm])
        a = gcv(ensemble_fit(data, 18, 1, 0.3, seed=0), data).value
        b = gcv(ensemble_fit(shuffled, 18, 1, 0.3, seed=1), shuffled).value
        assert a == pytest.approx(b, rel=1e-12)


class TestPredictAndRisk:
    def test_predict_matches_member_average(self):
        rng = np.random.default_rng(15)
        data = make_data(rng, 30, 7)
        fit = ensemble_fit(data, 15, 4, 0.2, seed=10)
        X_new = rng.standard_normal((8, 7))
        member_avg = np.mean(
            [X_new @ coef for _, coef, _ in members(data, 15, 4, 0.2, seed=10)],
            axis=0)
        np.testing.assert_allclose(predict(fit, X_new), member_avg, atol=1e-12)

    def test_zero_input(self):
        rng = np.random.default_rng(16)
        data = make_data(rng, 10, 3)
        fit = ensemble_fit(data, 5, 2, 0.1, seed=0)
        np.testing.assert_array_equal(predict(fit, np.zeros((4, 3))), np.zeros(4))

    def test_conditional_risk_of_null_fit(self):
        rng = np.random.default_rng(17)
        p, n_test = 20, 40_000
        beta0 = np.full(p, 1.0 / math.sqrt(p))
        test = make_data(rng, n_test, p, beta0=beta0, sigma=1.0)
        fit = ensemble_fit(make_data(rng, 10, p), 0, 1, 0.0, seed=0)
        # Null risk = sigma^2 + rho^2 = 2 under the isotropic model.
        assert conditional_risk(fit, test) == pytest.approx(2.0, abs=0.05)

