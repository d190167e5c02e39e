"""Closed-form reconstruction, covariance analysis, filters, and iterative recovery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsampling as gs
from graphsampling.errors import RankDeficientError
from graphsampling.reconstruction import _cheb_coeffs, _cheb_table, _spectral_filters
from helpers import all_inners, cluster_cloud, geometric_instance


def one_filter(basis, coeffs, lambda_max):
    """The PoCS filter of one Chebyshev series: a stack of one row."""
    (lowpass,) = _spectral_filters(basis, np.asarray(coeffs, dtype=float)[None], lambda_max)
    return lowpass


def recurrence_oracle(variation, inner, coeffs, lambda_max, x):
    """Three-term Chebyshev recurrence with a running sum, one term at a time."""
    q = inner.entries
    scale = 2.0 / lambda_max

    def shifted(v):
        return scale * ((variation @ v) / q) - v

    y_prev = x
    acc = 0.5 * coeffs[0] * y_prev
    if coeffs.size > 1:
        y_cur = shifted(y_prev)
        acc = acc + coeffs[1] * y_cur
        for c in coeffs[2:]:
            y_prev, y_cur = y_cur, 2.0 * shifted(y_cur) - y_prev
            acc = acc + c * y_cur
    return acc


def grid_error(params):
    """Largest deviation of the series from the exact response on a 1000-point grid over ``[0, lambda_max]``."""
    grid = np.linspace(0.0, params.lambda_max, 1000)
    series = gs.evaluate_cheb_series(_cheb_coeffs(params), params.lambda_max, grid)
    return float(np.max(np.abs(series - gs.lowpass_response(grid, params.omega, params.alpha))))


def pocs_sweep_count(variation, inner, sampled, y, params):
    """Sweeps that PoCS filtering with the recurrence oracle needs to meet its stopping rule."""
    coeffs = _cheb_coeffs(params)
    x = np.zeros(inner.n)
    x[sampled] = y
    for iters in range(1, params.max_iters + 1):
        nxt = recurrence_oracle(variation, inner, coeffs, params.lambda_max, x)
        nxt[sampled] = y
        delta = gs.q_norm(nxt - x, inner)
        ref = gs.q_norm(x, inner)
        x = nxt
        if delta <= params.rel_tol * ref:
            break
    return iters


def fixed_point_oracle(variation, inner, sampled, y, params):
    """Dense solve of PoCS's fixed point ``(I - H_UU) x_U = H_US y``, with H built column by column."""
    coeffs = _cheb_coeffs(params)
    n = inner.n
    h = np.column_stack(
        [recurrence_oracle(variation, inner, coeffs, params.lambda_max, e) for e in np.eye(n)]
    )
    free = np.setdiff1d(np.arange(n), sampled)
    x = np.zeros(n)
    x[sampled] = y
    x[free] = np.linalg.solve(
        np.eye(free.size) - h[np.ix_(free, free)], h[np.ix_(free, sampled)] @ y
    )
    return x


def bandlimited_signal(basis, band, rng):
    coeffs = np.zeros(basis.n)
    coeffs[:band] = rng.standard_normal(band)
    return gs.synthesize(basis, coeffs)


class TestConsistentReconstruct:
    def test_perfect_recovery_of_bandlimited_signal(self, rng):
        pc, g, lap = geometric_instance(seed=0, n=14, kernel_sigma=2.0)
        inner = gs.degree_matrix(g)
        basis = gs.compute_basis(lap, inner)
        band = 5
        x = bandlimited_signal(basis, band, rng)
        sampled = gs.greedy_select(lap, inner, band, k=3).head(band)
        report = gs.consistent_reconstruct(basis, sampled, x[sampled], band=band)
        rel = gs.q_norm(report.x_hat - x, inner) / gs.q_norm(x, inner)
        assert rel <= 1e-8

    def test_samples_reproduced_when_band_equals_sample_count(self, rng):
        pc, g, lap = geometric_instance(seed=1, n=12, kernel_sigma=2.0)
        inner = gs.voronoi_areas(pc)
        basis = gs.compute_basis(lap, inner)
        sampled = gs.greedy_select(lap, inner, 6, k=3).head(6)
        y = rng.standard_normal(6)
        report = gs.consistent_reconstruct(basis, sampled, y)
        assert report.residual_s <= 1e-8 * np.abs(y).max()
        assert report.iters == 0

    def test_matches_weighted_least_squares_oracle(self, rng):
        pc, g, lap = geometric_instance(seed=2, n=12, kernel_sigma=2.0)
        inner = gs.degree_matrix(g)
        basis = gs.compute_basis(lap, inner)
        sampled = gs.vertex_set([0, 2, 3, 6, 8, 10, 11], 12)
        band = 4
        y = rng.standard_normal(7)
        report = gs.consistent_reconstruct(basis, sampled, y, band=band)
        # independent route: QR on the weighted design matrix
        root = np.sqrt(inner.entries[sampled])
        design = root[:, None] * basis.modes[sampled][:, :band]
        coeffs, *_ = np.linalg.lstsq(design, root * y, rcond=None)
        oracle = basis.modes[:, :band] @ coeffs
        assert gs.q_norm(report.x_hat - oracle, inner) <= 1e-8 * max(1.0, gs.q_norm(oracle, inner))

    def test_sample_order_does_not_matter(self, rng):
        pc, g, lap = geometric_instance(seed=3, n=10, kernel_sigma=2.0)
        basis = gs.compute_basis(lap, gs.identity_inner_product(10))
        sampled = np.array([7, 1, 4, 9])
        y = rng.standard_normal(4)
        shuffled = np.array([2, 0, 3, 1])
        a = gs.consistent_reconstruct(basis, sampled, y, band=3)
        b = gs.consistent_reconstruct(basis, sampled[shuffled], y[shuffled], band=3)
        np.testing.assert_allclose(a.x_hat, b.x_hat, atol=1e-12)

    def test_singular_gram_reports_sigma_min(self):
        # disconnected components make the low band invisible from one side
        w = np.zeros((6, 6))
        for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            w[i, j] = w[j, i] = 1.0
        lap = gs.combinatorial_laplacian(gs.Graph(w))
        basis = gs.compute_basis(lap, gs.identity_inner_product(6))
        with pytest.raises(RankDeficientError) as err:
            gs.consistent_reconstruct(basis, [0, 1], [1.0, 2.0], band=2)
        assert err.value.sigma_min <= 1e-10
        # the SVD with vectors returns this zero as -0.0, which would print as "-0.000e+00"
        assert math.copysign(1.0, err.value.sigma_min) == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_value_rejected(self, bad):
        pc, g, lap = geometric_instance(seed=3, n=10, kernel_sigma=2.0)
        basis = gs.compute_basis(lap, gs.identity_inner_product(10))
        with pytest.raises(ValueError, match="finite"):
            gs.consistent_reconstruct(basis, [1, 4, 7], [0.5, bad, 1.0])

    def test_q_error_against_truth(self, rng):
        pc, g, lap = geometric_instance(seed=4, n=10, kernel_sigma=2.0)
        inner = gs.identity_inner_product(10)
        basis = gs.compute_basis(lap, inner)
        x = bandlimited_signal(basis, 4, rng)
        sampled = gs.greedy_select(lap, inner, 4, k=3).head(4)
        report = gs.consistent_reconstruct(basis, sampled, x[sampled], band=4, truth=x)
        assert report.q_error <= 1e-8 * gs.q_norm(x, inner)


class TestErrorCovariance:
    def test_full_sampling_gives_identity(self):
        pc, g, lap = geometric_instance(seed=5, n=8)
        basis = gs.compute_basis(lap, gs.voronoi_areas(pc))
        cov = gs.error_covariance(basis, np.arange(8), 8)
        np.testing.assert_allclose(cov, np.eye(8), atol=1e-8)
        assert np.trace(cov) == pytest.approx(8.0, abs=1e-8)

    def test_monte_carlo_trace(self, rng):
        pc, g, lap = geometric_instance(seed=6, n=20, kernel_sigma=2.0)
        inner = gs.degree_matrix(g)
        basis = gs.compute_basis(lap, inner)
        band = 4
        sampled = gs.greedy_select(lap, inner, 8, k=3).head(8)
        cov = gs.error_covariance(basis, sampled, band)
        expected = np.trace(cov)

        draws = 20000
        root_inv = 1.0 / np.sqrt(inner.entries[sampled])
        noise = root_inv[:, None] * rng.standard_normal((8, draws))
        u_s = basis.modes[sampled][:, :band]
        q_s = inner.entries[sampled]
        gram = u_s.T @ (q_s[:, None] * u_s)
        coeffs = np.linalg.solve(gram, u_s.T @ (q_s[:, None] * noise))
        errors = basis.modes[:, :band] @ coeffs
        sq = (inner.entries[:, None] * errors * errors).sum(axis=0)
        assert abs(sq.mean() - expected) <= 0.05 * expected

    def test_largest_eigenvalue_matches_design_sigma(self):
        pc, g, lap = geometric_instance(seed=7, n=12, kernel_sigma=2.0)
        inner = gs.voronoi_areas(pc)
        basis = gs.compute_basis(lap, inner)
        sampled = gs.greedy_select(lap, inner, 6, k=3).head(6)
        cov = gs.error_covariance(basis, sampled, 4)
        eigs = np.linalg.eigvals(cov)
        assert np.abs(eigs.imag).max() <= 1e-10
        sigma = gs.e_opt_metric(basis, sampled, 4)
        assert eigs.real.max() * sigma**2 == pytest.approx(1.0, abs=1e-8)


def delta_basis(delta):
    """Orthogonal 3-vertex basis whose samples [0, 1] see band 2 through rows diag(1, delta)."""
    c = np.sqrt(1.0 - delta * delta)
    modes = np.array([[1.0, 0.0, 0.0], [0.0, delta, c], [0.0, c, -delta]])
    return gs.SpectralBasis(modes, np.array([0.0, 1.0, 2.0]), gs.identity_inner_product(3))


class TestOneSingularityRule:
    """The design metrics and the fits read one SVD of one design and reject it by one rule."""

    def test_near_singular_design_is_regular_for_all(self):
        basis = delta_basis(1e-7)
        assert gs.e_opt_metric(basis, [0, 1], 2) == pytest.approx(1e-7, rel=1e-9)
        report = gs.consistent_reconstruct(basis, [0, 1], [1.0, 1.0], band=2)
        assert np.abs(report.x_hat).max() == pytest.approx(1e7, rel=1e-6)
        assert report.residual_s <= 1e-8

    def test_singular_design_raises_for_all_with_one_sigma_min(self):
        basis = delta_basis(1e-17)
        payloads = []
        for call in [
            lambda: gs.e_opt_metric(basis, [0, 1], 2),
            lambda: gs.consistent_reconstruct(basis, [0, 1], [1.0, 1.0], band=2),
            lambda: gs.error_covariance(basis, [0, 1], 2),
            lambda: gs.verify_error_bound(basis, [0, 1], 2, np.ones(3)),
        ]:
            with pytest.raises(RankDeficientError) as info:
                call()
            assert type(info.value) is RankDeficientError
            payloads.append(info.value.sigma_min)
        assert payloads == [pytest.approx(1e-17, rel=1e-6)] * 4
        assert len(set(payloads)) == 1
        assert gs.errors.SingularGramError is RankDeficientError

    @pytest.mark.parametrize("variant", ["identity", "degree", "voronoi"])
    def test_covariance_matches_both_metrics(self, variant):
        pc, g, lap = geometric_instance(seed=23, n=40, kernel_sigma=2.0)
        inner = all_inners(g, pc)[variant]
        basis = gs.compute_basis(lap, inner)
        sampled = gs.greedy_select(lap, inner, 12, k=3).head(12)
        cov = gs.error_covariance(basis, sampled, 8)
        root = np.sqrt(inner.entries)
        # Q^{1/2} cov Q^{-1/2} is symmetric with the same eigenvalues
        top = np.linalg.eigvalsh(root[:, None] * cov / root[None, :])[-1]
        # the mean-squared-error objective sum sigma^-2, from an SVD of the design written out
        rows = root[sampled][:, None] * basis.modes[sampled][:, :8]
        assert np.trace(cov) == pytest.approx(np.sum(np.linalg.svd(rows, compute_uv=False) ** -2.0), rel=1e-9)
        assert top == pytest.approx(gs.e_opt_metric(basis, sampled, 8) ** -2, rel=1e-9)


class TestErrorBound:
    def test_bandlimited_signal_has_zero_mismatch(self, rng):
        pc, g, lap = geometric_instance(seed=8, n=12, kernel_sigma=2.0)
        inner = gs.degree_matrix(g)
        basis = gs.compute_basis(lap, inner)
        x = bandlimited_signal(basis, 4, rng)
        sampled = gs.greedy_select(lap, inner, 6, k=3).head(6)
        lhs, rhs = gs.verify_error_bound(basis, sampled, 4, x)
        assert lhs <= rhs + 1e-9 * gs.q_norm(x, inner)

    def test_holds_on_random_signals_all_variants(self, rng):
        for seed in (9, 10):
            pc, g, lap = geometric_instance(seed=seed, n=12, kernel_sigma=2.0)
            for inner in all_inners(g, pc).values():
                basis = gs.compute_basis(lap, inner)
                sampled = gs.greedy_select(lap, inner, 7, k=3).head(7)
                for _ in range(17):
                    x = rng.standard_normal(12)
                    lhs, rhs = gs.verify_error_bound(basis, sampled, 5, x)
                    assert lhs <= rhs * (1.0 + 1e-8)

    def test_pure_out_of_band_mode(self):
        pc, g, lap = geometric_instance(seed=11, n=10, kernel_sigma=2.0)
        inner = gs.identity_inner_product(10)
        basis = gs.compute_basis(lap, inner)
        sampled = gs.greedy_select(lap, inner, 5, k=3).head(5)
        x = basis.modes[:, -1]
        lhs, rhs = gs.verify_error_bound(basis, sampled, 4, x)
        _, high = gs.bandlimit_split(basis, x, 4)
        assert gs.q_norm(high, inner) == pytest.approx(1.0, abs=1e-10)
        assert lhs <= rhs * (1.0 + 1e-8)

    def test_out_of_range_vertex_is_value_error(self):
        _, g, lap = geometric_instance(seed=0, n=8)
        basis = gs.compute_basis(lap, gs.identity_inner_product(8))
        with pytest.raises(ValueError, match="out of range"):
            gs.verify_error_bound(basis, [0, 8], 1, np.ones(8))


class TestChebyshevSeries:
    """The coefficients ``_cheb_coeffs`` of the logistic low-pass that PoCS filters with."""

    def test_midpoint_value_is_half(self):
        params = gs.PocsParams(omega=2.0, lambda_max=8.0, cheb_order=40)
        at_omega = gs.evaluate_cheb_series(_cheb_coeffs(params), 8.0, np.array([2.0]))[0]
        assert abs(at_omega - 0.5) <= grid_error(params) + 1e-12

    def test_sharp_response_error_concentrates_at_cutoff(self):
        params = gs.PocsParams(omega=4.0, lambda_max=8.0, alpha=60.0, cheb_order=200)
        grid = np.linspace(0.0, 8.0, 2001)
        err = np.abs(
            gs.evaluate_cheb_series(_cheb_coeffs(params), 8.0, grid)
            - gs.lowpass_response(grid, 4.0, 60.0)
        )
        near = np.abs(grid - 4.0) <= 0.8
        assert err[~near].max() <= 1e-2
        assert err[~near].max() <= err[near].max()

    def test_order_zero_equals_chebyshev_mean(self):
        params = gs.PocsParams(omega=3.0, lambda_max=10.0, cheb_order=0)
        coeffs = _cheb_coeffs(params)
        assert coeffs.shape == (1,)
        # mean of the response under the Chebyshev measure, on a finer quadrature
        npts = 200001
        theta = np.pi * (np.arange(npts) + 0.5) / npts
        nodes = 0.5 * 10.0 * (np.cos(theta) + 1.0)
        oracle = gs.lowpass_response(nodes, 3.0, params.alpha).mean()
        assert 0.5 * coeffs[0] == pytest.approx(oracle, abs=1e-8)

    def test_coefficient_count(self):
        params = gs.PocsParams(omega=1.0, lambda_max=4.0, cheb_order=25)
        assert _cheb_coeffs(params).shape == (26,)

    @pytest.mark.parametrize("order", [0, 1, 2, 60])
    def test_cached_coefficients_are_bit_identical(self, order):
        params = gs.PocsParams(omega=1.3, lambda_max=7.0, cheb_order=order)
        # the cosine-transform construction written out, with nothing cached
        npts = max(order + 1, 1000)
        theta = np.pi * (np.arange(npts) + 0.5) / npts
        nodes = 0.5 * params.lambda_max * (np.cos(theta) + 1.0)
        vals = gs.lowpass_response(nodes, params.omega, params.alpha)
        direct = (2.0 / npts) * (np.cos(np.outer(np.arange(order + 1), theta)) @ vals)
        for _ in range(2):
            np.testing.assert_array_equal(_cheb_coeffs(params), direct)

    def test_cached_table_is_read_only(self):
        theta, table = _cheb_table(60, 1000)
        assert table.shape == (61, 1000)
        assert not theta.flags.writeable and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    @pytest.mark.parametrize("terms", [1, 2, 61])
    def test_stacked_series_equal_row_by_row_calls(self, terms, rng):
        coeffs = rng.standard_normal((4, terms))
        freqs = np.linspace(-0.5, 7.5, 37)
        stacked = gs.evaluate_cheb_series(coeffs, 7.0, freqs)
        assert stacked.shape == (4, 37)
        for row, out in zip(coeffs, stacked):
            np.testing.assert_array_equal(out, gs.evaluate_cheb_series(row, 7.0, freqs))

    def test_stacked_lowpass_series_equal_row_by_row_calls(self):
        # the stack the mse driver evaluates: one low-pass per sampling size, one shared lambda_max
        stack = np.stack([_cheb_coeffs(gs.PocsParams(omega=w, lambda_max=8.0)) for w in (0.3, 1.1, 2.9, 8.0)])
        freqs = np.linspace(0.0, 8.0 / 1.01, 100)
        stacked = gs.evaluate_cheb_series(stack, 8.0, freqs)
        for row, out in zip(stack, stacked):
            np.testing.assert_array_equal(out, gs.evaluate_cheb_series(row, 8.0, freqs))

    def test_series_must_be_a_vector_or_a_stack(self):
        with pytest.raises(ValueError, match="coefficients"):
            gs.evaluate_cheb_series(np.ones((2, 2, 2)), 1.0, np.zeros(3))
        with pytest.raises(ValueError, match="coefficients"):
            gs.evaluate_cheb_series(np.ones((2, 0)), 1.0, np.zeros(3))

    def test_grid_error_unchanged(self):
        params = gs.PocsParams(omega=2.0, lambda_max=8.0, cheb_order=60)
        assert grid_error(params) == pytest.approx(9.005659540017863e-05, rel=1e-12)


class TestApplyChebFilter:
    """The spectral filters ``_spectral_filters`` that PoCS applies."""

    def test_constant_signal_gets_dc_response(self):
        _, g, lap = geometric_instance(seed=12, n=10, kernel_sigma=2.0)
        inner = gs.identity_inner_product(10)
        params = gs.PocsParams(omega=1.5, lambda_max=gs.estimate_lambda_max(lap, inner))
        x = np.ones(10)
        out = one_filter(gs.compute_basis(lap, inner), _cheb_coeffs(params), params.lambda_max)(x)
        dc = gs.lowpass_response(np.array([0.0]), params.omega, params.alpha)[0]
        assert np.abs(out - dc * x).max() <= grid_error(params) + 1e-9

    def test_matches_spectral_oracle(self, rng):
        pc, g, lap = geometric_instance(seed=13, n=20, kernel_sigma=2.0)
        inner = gs.degree_matrix(g)
        basis = gs.compute_basis(lap, inner)
        lam_max = gs.estimate_lambda_max(lap, inner)
        params = gs.PocsParams(omega=0.4 * lam_max, lambda_max=lam_max)
        coeffs = _cheb_coeffs(params)
        x = rng.standard_normal(20)
        filtered = one_filter(basis, coeffs, lam_max)(x)
        response = gs.evaluate_cheb_series(coeffs, lam_max, basis.frequencies)
        oracle = gs.synthesize(basis, response * gs.analyze(basis, x))
        assert np.abs(filtered - oracle).max() <= 1e-9 * max(1.0, np.abs(oracle).max())

    def test_unit_series_is_identity(self, rng):
        _, g, lap = geometric_instance(seed=14, n=8)
        inner = gs.identity_inner_product(8)
        x = rng.standard_normal(8)
        out = one_filter(gs.compute_basis(lap, inner), np.array([2.0]), 5.0)(x)
        assert np.abs(out - x).max() <= 1e-13 * np.abs(x).max()

    def test_stacked_filters_equal_one_filter_each(self, rng):
        pc, g, lap = geometric_instance(seed=13, n=20, kernel_sigma=2.0)
        basis = gs.compute_basis(lap, gs.voronoi_areas(pc))
        lam_max = gs.estimate_lambda_max(lap, basis.inner)
        stack = np.stack([_cheb_coeffs(gs.PocsParams(omega=f * lam_max, lambda_max=lam_max)) for f in (0.1, 0.5)])
        x = rng.standard_normal(20)
        filters = list(_spectral_filters(basis, stack, lam_max))
        assert len(filters) == 2
        for coeffs, lowpass in zip(stack, filters):
            np.testing.assert_array_equal(lowpass(x), one_filter(basis, coeffs, lam_max)(x))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, a, b):
        _, g, lap = geometric_instance(seed=15, n=8)
        inner = gs.degree_matrix(g)
        params = gs.PocsParams(omega=0.5, lambda_max=2.2, cheb_order=20)
        filt = one_filter(gs.compute_basis(lap, inner), _cheb_coeffs(params), 2.2)
        r = np.random.default_rng(0)
        x, y = r.standard_normal(8), r.standard_normal(8)

        left = filt(a * x + b * y)
        right = a * filt(x) + b * filt(y)
        assert np.abs(left - right).max() <= 1e-10 * max(1.0, np.abs(right).max())


class TestChebKernelAgainstRecurrence:
    """The spectral filter and PoCS against the Chebyshev recurrence in ``Q^-1 L``."""

    @pytest.mark.parametrize("order", [0, 1, 2, 60])
    def test_filter_matches_recurrence(self, order, rng):
        pc, g, lap = geometric_instance(seed=19, n=100)
        for inner in all_inners(g, pc).values():
            basis = gs.compute_basis(lap, inner)
            lam_max = gs.estimate_lambda_max(lap, inner)
            params = gs.PocsParams(omega=0.3 * lam_max, lambda_max=lam_max, cheb_order=order)
            coeffs = _cheb_coeffs(params)
            x = rng.standard_normal(100)
            out = one_filter(basis, coeffs, lam_max)(x)
            oracle = recurrence_oracle(lap, inner, coeffs, lam_max, x)
            assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_pocs_solves_dense_fixed_point(self):
        pc, g, lap = geometric_instance(seed=0, n=100)
        noisy = gs.sinewave_signal(pc, 3) + 0.1 * np.random.default_rng(0).standard_normal(100)
        fewer = []
        for inner in all_inners(g, pc).values():
            lam_max = gs.estimate_lambda_max(lap, inner)
            selection = gs.greedy_select(lap, inner, 60, k=3)
            for m in (20, 60):
                chosen = selection.head(m)
                params = gs.PocsParams(omega=min(float(selection.cutoffs[m - 1]), lam_max), lambda_max=lam_max)
                report = gs.pocs_reconstruct(lap, inner, chosen, noisy[chosen], params)
                oracle = fixed_point_oracle(lap, inner, chosen, noisy[chosen], params)
                assert gs.q_norm(report.x_hat - oracle, inner) <= 1e-7 * gs.q_norm(oracle, inner)
                sweeps = pocs_sweep_count(lap, inner, chosen, noisy[chosen], params)
                if sweeps > 100:
                    assert report.iters < sweeps
                    fewer.append(sweeps)
        assert fewer


class TestPocsReconstruct:
    def pocs_case(self, seed, variant):
        pc, rng = cluster_cloud(seed)
        g = gs.gaussian_kernel_graph(pc, 1.0)
        lap = gs.combinatorial_laplacian(g)
        inner = all_inners(g, pc)[variant]
        basis = gs.compute_basis(lap, inner)
        band = 3
        lam = basis.frequencies
        lam_max = gs.estimate_lambda_max(lap, inner)
        params = gs.PocsParams(
            omega=0.5 * (lam[band - 1] + lam[band]),
            lambda_max=lam_max,
            alpha=2.0 * np.log(11.5) / (0.15 * lam_max),
        )
        x = gs.synthesize(basis, np.concatenate([rng.standard_normal(band), np.zeros(basis.n - band)]))
        sampled = gs.greedy_select(lap, inner, 2 * band, k=3).head(2 * band)
        return lap, inner, basis, band, params, x, sampled

    @pytest.mark.parametrize("seed,variant", [(10, "identity"), (12, "degree")])
    def test_close_to_closed_form_on_bandlimited_data(self, seed, variant):
        lap, inner, basis, band, params, x, sampled = self.pocs_case(seed, variant)
        closed = gs.consistent_reconstruct(basis, sampled, x[sampled], band=band)
        iterative = gs.pocs_reconstruct(lap, inner, sampled, x[sampled], params)
        gap = gs.q_norm(iterative.x_hat - closed.x_hat, inner) / gs.q_norm(closed.x_hat, inner)
        assert gap <= 1e-3
        assert iterative.iters < params.max_iters

    def test_zero_samples_give_zero_in_one_sweep(self):
        _, g, lap = geometric_instance(seed=16, n=10)
        inner = gs.identity_inner_product(10)
        params = gs.PocsParams(omega=1.0, lambda_max=gs.estimate_lambda_max(lap, inner))
        report = gs.pocs_reconstruct(lap, inner, [1, 4, 7], np.zeros(3), params)
        np.testing.assert_array_equal(report.x_hat, np.zeros(10))
        assert report.iters == 1

    def test_allpass_cutoff_keeps_samples(self, rng):
        _, g, lap = geometric_instance(seed=17, n=10, kernel_sigma=2.0)
        inner = gs.degree_matrix(g)
        lam_max = gs.estimate_lambda_max(lap, inner)
        params = gs.PocsParams(omega=lam_max, lambda_max=lam_max, max_iters=50)
        y = rng.standard_normal(4)
        report = gs.pocs_reconstruct(lap, inner, [0, 3, 5, 8], y, params)
        assert report.residual_s == 0.0

    def test_nonconvergence_reported_not_raised(self, rng):
        _, g, lap = geometric_instance(seed=18, n=10, kernel_sigma=2.0)
        inner = gs.identity_inner_product(10)
        lam_max = gs.estimate_lambda_max(lap, inner)
        params = gs.PocsParams(omega=0.3 * lam_max, lambda_max=lam_max, max_iters=2, rel_tol=1e-14)
        report = gs.pocs_reconstruct(lap, inner, [2, 6], rng.standard_normal(2), params)
        assert report.iters == 2
        assert report.last_rel_change is not None and report.last_rel_change > 0

    def test_curvature_break_returns_current_iterate(self):
        _, g, lap = geometric_instance(seed=0, n=40, kernel_sigma=2.0)
        inner = gs.identity_inner_product(40)
        lam_max = gs.estimate_lambda_max(lap, inner)
        # an order-2 series overshoots 1 near frequency 0, so with two samples
        # H_UU has an eigenvalue above 1 and I - H_UU is indefinite
        params = gs.PocsParams(omega=0.3 * lam_max, lambda_max=lam_max, cheb_order=2)
        coeffs = _cheb_coeffs(params)
        assert gs.evaluate_cheb_series(coeffs, lam_max, np.linspace(0.0, lam_max, 1001)).max() > 1.0
        sampled = [0, 20]
        free = np.setdiff1d(np.arange(40), sampled)
        lowpass = one_filter(gs.compute_basis(lap, inner), coeffs, lam_max)
        h = np.column_stack([lowpass(e) for e in np.eye(40)])
        oracle = np.column_stack([recurrence_oracle(lap, inner, coeffs, lam_max, e) for e in np.eye(40)])
        assert np.linalg.norm(h - oracle) <= 1e-12 * np.linalg.norm(oracle)
        assert np.linalg.eigvalsh(h[np.ix_(free, free)]).max() > 1.0
        report = gs.pocs_reconstruct(lap, inner, sampled, [1.0, -1.0], params)
        assert report.iters < params.max_iters
        assert np.isfinite(report.x_hat).all()
        assert report.residual_s == 0.0
        assert report.last_rel_change > params.rel_tol

    def test_distance_to_closed_form_never_increases(self):
        lap, inner, basis, band, params, x, sampled = self.pocs_case(11, "identity")
        closed = gs.consistent_reconstruct(basis, sampled, x[sampled], band=band)
        iters = gs.pocs_reconstruct(lap, inner, sampled, x[sampled], params).iters
        # a run bounded to j filter applications returns conjugate-gradient iterate j - 1
        iterates = [
            gs.pocs_reconstruct(lap, inner, sampled, x[sampled], dataclasses.replace(params, max_iters=j)).x_hat
            for j in range(1, iters + 1)
        ]
        dists = [gs.q_norm(h - closed.x_hat, inner) for h in iterates]
        for before, after in zip(dists, dists[1:]):
            assert after <= before + 1e-9


class TestPocsParams:
    def test_default_alpha_transition_width(self):
        params = gs.PocsParams(omega=2.0, lambda_max=10.0)
        lo = gs.lowpass_response(np.array([2.0 - 0.05 * 10.0]), 2.0, params.alpha)[0]
        hi = gs.lowpass_response(np.array([2.0 + 0.05 * 10.0]), 2.0, params.alpha)[0]
        assert lo == pytest.approx(0.92, abs=1e-12)
        assert hi == pytest.approx(0.08, abs=1e-12)

    @pytest.mark.parametrize("value", [60.9, 60.0, True, "60"])
    def test_cheb_order_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="cheb_order must be an integer"):
            gs.PocsParams(omega=1.0, lambda_max=4.0, cheb_order=value)

    @pytest.mark.parametrize("value", [True, 2.7, np.float64(500.0)])
    def test_max_iters_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            gs.PocsParams(omega=1.0, lambda_max=4.0, max_iters=value)

    def test_numpy_integers_are_accepted(self):
        params = gs.PocsParams(omega=1.0, lambda_max=4.0, cheb_order=np.int64(40), max_iters=np.int32(7))
        assert (params.cheb_order, params.max_iters) == (40, 7)
        assert type(params.cheb_order) is int and type(params.max_iters) is int

    def test_validation(self):
        for settings, message in [
            ({"omega": 5.0, "lambda_max": 4.0}, r"^omega must lie in \[0, lambda_max\] = \[0, 4.0\], got 5.0$"),
            ({"omega": 0.0, "lambda_max": -1.0}, r"^lambda_max must be positive, got -1.0$"),
            ({"omega": 1.0, "lambda_max": 4.0, "rel_tol": 0.0}, r"^rel_tol must be positive, got 0.0$"),
            ({"omega": 1.0, "lambda_max": 4.0, "alpha": -2.0}, r"^alpha must be positive, got -2.0$"),
            ({"omega": 1.0, "lambda_max": 4.0, "max_iters": 0}, r"^max_iters must be at least 1, got 0$"),
            ({"omega": 1.0, "lambda_max": 4.0, "cheb_order": -1}, r"^cheb_order must be nonnegative, got -1$"),
        ]:
            with pytest.raises(ValueError, match=message):
                gs.PocsParams(**settings)
