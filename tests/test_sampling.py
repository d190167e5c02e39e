"""Bandwidth proxies, cutoff estimates, greedy selection, and design metrics."""

import itertools
import warnings

import numpy as np
import pytest

import graphsampling as gs
from graphsampling.errors import (
    EmptyVertexSetError,
    InvalidTargetError,
    RankDeficientError,
    ZeroSignalError,
)
from helpers import (
    PATH3_LAP,
    all_inners,
    brute_force_singleton,
    explicit_cutoff,
    geometric_instance,
    restricted_cutoff,
)

# first 60 greedy picks at n = 100, k = 3, per (seed, inner product)
GROWTH_PICKS = {
    (3, "identity"): [
        70, 10, 78, 83, 60, 93, 15, 14, 34, 7, 44, 55, 39, 52, 54,
        47, 92, 38, 98, 69, 23, 36, 57, 73, 81, 42, 82, 72, 50, 1,
        80, 46, 71, 37, 84, 0, 68, 28, 64, 24, 11, 61, 2, 32, 96,
        63, 66, 30, 16, 33, 99, 40, 5, 12, 74, 76, 97, 4, 31, 21,
    ],
    (3, "degree"): [
        12, 78, 83, 39, 15, 35, 50, 87, 52, 56, 84, 44, 64, 36, 93,
        99, 90, 55, 59, 10, 53, 73, 60, 28, 70, 33, 7, 75, 76, 9,
        71, 31, 66, 22, 17, 96, 67, 27, 79, 3, 14, 95, 8, 21, 51,
        29, 34, 89, 69, 19, 5, 86, 18, 94, 57, 45, 0, 91, 16, 97,
    ],
    (3, "voronoi"): [
        53, 10, 83, 23, 60, 38, 7, 15, 39, 82, 14, 28, 76, 55, 44,
        71, 36, 91, 78, 47, 80, 11, 66, 5, 42, 51, 73, 99, 72, 97,
        63, 94, 69, 21, 52, 4, 57, 0, 81, 34, 24, 84, 56, 45, 31,
        50, 37, 59, 96, 33, 86, 75, 29, 70, 43, 61, 67, 1, 62, 2,
    ],
    (5, "identity"): [
        66, 4, 14, 38, 37, 89, 32, 83, 7, 3, 65, 80, 58, 86, 36,
        47, 64, 24, 88, 29, 23, 44, 6, 25, 46, 71, 22, 19, 2, 11,
        78, 13, 56, 50, 77, 15, 31, 34, 99, 0, 82, 49, 51, 90, 87,
        62, 74, 9, 55, 26, 30, 93, 40, 8, 84, 69, 21, 61, 45, 53,
    ],
    (5, "degree"): [
        69, 14, 7, 4, 56, 3, 20, 82, 80, 10, 6, 46, 45, 19, 64,
        81, 66, 13, 34, 95, 52, 47, 62, 72, 2, 92, 71, 17, 58, 53,
        1, 61, 57, 40, 59, 8, 48, 33, 35, 18, 84, 93, 75, 29, 68,
        94, 96, 42, 91, 25, 36, 23, 89, 16, 21, 77, 85, 98, 73, 51,
    ],
    (5, "voronoi"): [
        80, 38, 11, 24, 89, 7, 65, 29, 42, 58, 49, 66, 69, 32, 71,
        22, 25, 23, 31, 86, 46, 2, 9, 81, 51, 0, 19, 33, 74, 99,
        53, 62, 47, 40, 4, 52, 82, 14, 93, 16, 61, 77, 73, 50, 78,
        97, 41, 68, 21, 83, 85, 13, 98, 87, 8, 94, 57, 72, 3, 15,
    ],
}


def star_graph(n=5):
    w = np.zeros((n, n))
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    return gs.Graph(w)


def two_triangles():
    w = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[i, j] = w[j, i] = 1.0
    return gs.Graph(w)


def record_growth(monkeypatch, seed, n, m):
    """Greedy selection of ``m`` on a seeded Voronoi instance, recorded.

    Returns the shapes of its dense ``eigh`` calls interleaved with its block
    steps, and the number of bordered ``eigh`` calls in each block step.
    """
    pc, g, lap = geometric_instance(seed=seed, n=n)
    inner = gs.voronoi_areas(pc)
    eigh, deleted_root, calls, bordered = np.linalg.eigh, gs.sampling._deleted_root, [], []

    def counting_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    def recorded_block(vals, vecs, rows, lo):
        calls.append(("block", len(rows), len(vals)))
        before = len(calls)
        out = deleted_root(vals, vecs, rows, lo)
        bordered.append(len(calls) - before)
        del calls[before:]
        return out

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(gs.sampling, "_deleted_root", recorded_block)
    gs.greedy_select(lap, inner, m, k=3)
    return calls, bordered


def block_schedule(n, m, held):
    """The record of :func:`record_growth` for refreshes to the sizes ``held[1:]``: block steps in between."""
    expected = [(n, n)]
    for p, fresh in zip(held, held[1:]):
        expected += [("block", r, p) for r in range(1, p - fresh)] + [(fresh, fresh)]
    return expected + [("block", r, held[-1]) for r in range(1, m - (n - held[-1]) + 1)]


class TestSpectralProxy:
    def test_eigenmodes_give_their_frequency(self):
        pc, g, lap = geometric_instance(seed=1, n=10, kernel_sigma=2.0)
        inner = gs.degree_matrix(g)
        basis = gs.compute_basis(lap, inner)
        for k in (1, 2, 3):
            for l in range(1, 10):
                lam = basis.frequencies[l]
                if lam < 0.1:  # k-th roots of roundoff dominate near-kernel modes
                    continue
                proxy = gs.spectral_proxy(lap, inner, basis.modes[:, l], k=k)
                assert abs(proxy - lam) <= 1e-8 * max(1.0, lam)

    def test_constant_signal_has_tiny_proxy(self):
        _, g, lap = geometric_instance(seed=2, n=10)
        inner = gs.identity_inner_product(10)
        assert gs.spectral_proxy(lap, inner, np.ones(10), k=1) <= 1e-10
        assert gs.spectral_proxy(lap, inner, np.ones(10), k=3) <= 1e-4

    def test_matches_dense_matrix_power(self, rng):
        pc, g, lap = geometric_instance(seed=3, n=6, kernel_sigma=2.0)
        inner = gs.voronoi_areas(pc)
        z3 = np.linalg.matrix_power(lap / inner.entries[:, None], 3)
        for _ in range(20):
            x = rng.standard_normal(6)
            oracle = (gs.q_norm(z3 @ x, inner) / gs.q_norm(x, inner)) ** (1.0 / 3.0)
            proxy = gs.spectral_proxy(lap, inner, x, k=3)
            assert abs(proxy - oracle) <= 1e-9 * max(1.0, oracle)

    @pytest.mark.parametrize("k", [True, 2.0, 1.5])
    def test_order_must_be_an_integer(self, k):
        inner = gs.identity_inner_product(3)
        with pytest.raises(ValueError, match="proxy order k must be an integer"):
            gs.spectral_proxy(PATH3_LAP, inner, np.array([1.0, 0.0, -1.0]), k=k)

    def test_zero_signal_rejected(self):
        with pytest.raises(ZeroSignalError):
            gs.spectral_proxy(PATH3_LAP, gs.identity_inner_product(3), np.zeros(3))


class TestProxyOperator:
    def test_identity_weights_reduce_to_matrix_power_columns(self):
        _, g, lap = geometric_instance(seed=4, n=7)
        inner = gs.identity_inner_product(7)
        keep = [0, 2, 5]
        for k in (1, 2, 3):
            h = gs.proxy_operator(lap, inner, keep, k)
            expected = np.linalg.matrix_power(lap, k)[:, keep]
            assert np.abs(h - expected).max() <= 1e-10

    def test_full_set_is_similar_to_power(self):
        pc, g, lap = geometric_instance(seed=5, n=8)
        inner = gs.degree_matrix(g)
        h = gs.proxy_operator(lap, inner, np.arange(8), k=2)
        # similar to the squared scaled operator: smallest singular value is 0
        assert np.linalg.svd(h, compute_uv=False)[-1] <= 1e-8

    def test_matches_explicit_product(self):
        pc, g, lap = geometric_instance(seed=6, n=7, kernel_sigma=2.0)
        inner = gs.voronoi_areas(pc)
        keep = gs.complement([1, 3, 4], 7)
        h = gs.proxy_operator(lap, inner, keep, k=2)
        q = inner.entries
        z = lap / q[:, None]
        full = np.diag(np.sqrt(q)) @ z @ z @ np.diag(1.0 / np.sqrt(q))
        assert np.abs(h - full[:, keep]).max() <= 1e-10

    def test_empty_complement_rejected(self):
        with pytest.raises(EmptyVertexSetError):
            gs.proxy_operator(PATH3_LAP, gs.identity_inner_product(3), [])


class TestCutoff:
    def test_path_center_matches_grid_minimization(self):
        inner = gs.identity_inner_product(3)
        res = gs.greedy_select(PATH3_LAP, inner, 1, k=1)
        assert res.order.tolist() == [1]
        # dense scan over unit signals vanishing at the center
        angles = np.linspace(0.0, np.pi, 200001)
        candidates = np.stack([np.cos(angles), np.zeros_like(angles), np.sin(angles)])
        ratios = np.linalg.norm(PATH3_LAP @ candidates, axis=0)
        assert abs(res.cutoffs[0] - ratios.min()) <= 1e-4
        assert res.cutoffs[0] == pytest.approx(1.0, abs=1e-10)

    def test_lower_bounds_the_proxy(self, rng):
        pc, g, lap = geometric_instance(seed=9, n=9, kernel_sigma=2.0)
        for inner in all_inners(g, pc).values():
            res = gs.greedy_select(lap, inner, 2, k=3)
            for _ in range(200):
                x = rng.standard_normal(9)
                x[res.order] = 0.0
                assert gs.spectral_proxy(lap, inner, x, k=3) >= res.cutoffs[-1] - 1e-9


class TestGreedySelect:
    def test_full_selection_terminates_with_distinct_vertices(self):
        _, g, lap = geometric_instance(seed=11, n=9)
        inner = gs.identity_inner_product(9)
        res = gs.greedy_select(lap, inner, 8, k=2)
        assert len(set(res.order.tolist())) == 8
        assert res.cutoffs.shape == (8,)

    def test_star_center_matches_exhaustive_search(self):
        g = star_graph(5)
        lap = gs.combinatorial_laplacian(g)
        inner = gs.identity_inner_product(5)
        res = gs.greedy_select(lap, inner, 1, k=3)
        oracle, _ = brute_force_singleton(lap, inner, 3)
        assert res.order[0] == oracle == 0

    @pytest.mark.parametrize("variant", ["identity", "degree", "voronoi"])
    def test_first_pick_matches_exhaustive_search_at_n100(self, variant):
        pc, g, lap = geometric_instance(seed=3, n=100)
        inner = all_inners(g, pc)[variant]
        res = gs.greedy_select(lap, inner, 1, k=3)
        oracle, value = brute_force_singleton(lap, inner, 3)
        assert res.order[0] == oracle
        assert abs(res.cutoffs[0] - value) <= 1e-9 * value

    @pytest.mark.parametrize("graph", [star_graph(5), two_triangles()], ids=["star", "triangles"])
    def test_degenerate_singletons_stay_finite(self, graph):
        # repeated eigenvalues and modes vanishing at a vertex put the
        # singleton eigenvalue on a pole of the secular equation
        lap = gs.combinatorial_laplacian(graph)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = gs.greedy_select(lap, gs.identity_inner_product(graph.n), 3, k=3)
        assert np.unique(res.order).size == 3
        assert np.isfinite(res.cutoffs).all()

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("graph", [star_graph(6), two_triangles()], ids=["star", "triangles"])
    def test_degenerate_growth_steps_stay_finite(self, graph, m):
        # the block steps solve the secular equation of the held decomposition,
        # whose repeated eigenvalues put the root on a pole: in the star the
        # block of r = 2 rows (centre and a leaf) lands on the leaf frequency
        lap = gs.combinatorial_laplacian(graph)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = gs.greedy_select(lap, gs.identity_inner_product(graph.n), m, k=3)
        assert np.unique(res.order).size == m
        assert np.isfinite(res.cutoffs).all()

    def test_pair_selection_within_exhaustive_range(self):
        pc, g, lap = geometric_instance(seed=12, n=8, kernel_sigma=2.0)
        inner = gs.voronoi_areas(pc)
        res = gs.greedy_select(lap, inner, 2, k=3)
        pair_values = [
            explicit_cutoff(lap, inner, pair, 3) for pair in itertools.combinations(range(8), 2)
        ]
        lo, hi = min(pair_values), max(pair_values)
        assert lo - 1e-9 <= res.cutoffs[-1] <= hi + 1e-9
        print(f"greedy pair log-ratio to optimum: {np.log(res.cutoffs[-1] / hi):.4f}")

    def test_deterministic(self):
        pc, g, lap = geometric_instance(seed=13, n=10)
        inner = gs.degree_matrix(g)
        a = gs.greedy_select(lap, inner, 5, k=3)
        b = gs.greedy_select(lap, inner, 5, k=3)
        np.testing.assert_array_equal(a.order, b.order)
        np.testing.assert_array_equal(a.cutoffs, b.cutoffs)

    def test_recorded_cutoffs_match_public_evaluations(self):
        pc, g, lap = geometric_instance(seed=14, n=9, kernel_sigma=2.0)
        inner = gs.degree_matrix(g)
        res = gs.greedy_select(lap, inner, 4, k=3)
        for step in range(4):
            ref = restricted_cutoff(lap, inner, res.order[: step + 1], 3)
            assert abs(res.cutoffs[step] - ref) <= 1e-9 * max(1.0, ref)

    def test_snapshot_identity_weights(self):
        # frozen self-consistency snapshot, seed 3, kernel width 2.5
        _, g, lap = geometric_instance(seed=3, n=12, kernel_sigma=2.5)
        res = gs.greedy_select(lap, gs.identity_inner_product(12), 5, k=3)
        assert res.order.tolist() == [8, 10, 7, 4, 1]
        np.testing.assert_allclose(
            res.cutoffs,
            [0.497747, 0.689445, 1.311205, 1.856501, 2.186438],
            atol=1e-5,
        )

    @pytest.mark.parametrize("seed, variant", list(GROWTH_PICKS))
    def test_growth_picks_at_n100(self, seed, variant):
        pc, g, lap = geometric_instance(seed=seed, n=100)
        res = gs.greedy_select(lap, all_inners(g, pc)[variant], 60, k=3)
        assert res.order.tolist() == GROWTH_PICKS[seed, variant]

    @pytest.mark.parametrize("seed, variant", list(GROWTH_PICKS))
    def test_growth_cutoffs_match_explicit_svd_at_n100(self, seed, variant):
        pc, g, lap = geometric_instance(seed=seed, n=100)
        inner = all_inners(g, pc)[variant]
        res = gs.greedy_select(lap, inner, 60, k=3)
        for size in (10, 20, 40, 60):
            oracle = explicit_cutoff(lap, inner, res.order[:size], 3)
            assert abs(res.cutoffs[size - 1] - oracle) <= 1e-7 * oracle

    @pytest.mark.parametrize("seed, variant", list(GROWTH_PICKS))
    def test_secular_growth_cutoffs_match_restricted_cutoff(self, seed, variant):
        # odd sizes come from the previous step's eigendecomposition with one
        # row deleted; the reference decomposes each restriction of B^{2k}
        # afresh, as the selector's refresh steps do, and both sit on the
        # roundoff floor n eps lambda_max^{2k} of B^{2k}
        pc, g, lap = geometric_instance(seed=seed, n=100)
        inner = all_inners(g, pc)[variant]
        res = gs.greedy_select(lap, inner, 59, k=3)
        floor = 100 * np.finfo(float).eps * gs.compute_basis(lap, inner).frequencies[-1] ** 6
        for size in range(3, 60, 2):
            ref = restricted_cutoff(lap, inner, res.order[:size], 3)
            assert abs(res.cutoffs[size - 1] ** 6 - ref**6) <= floor

    def test_growth_phase_decomposes_once_per_block(self, monkeypatch):
        # the basis, then the restriction afresh whenever the r rows picked since
        # the held decomposition of size p reach r^2 > p, unless that would serve
        # at most one more pick; every other pick is a block step of the secular
        # equation, whose small bordered eigh calls are counted apart
        held = [100, 89, 79, 70, 61, 53, 45, 38, 31, 25, 19, 14]
        calls, bordered = record_growth(monkeypatch, seed=3, n=100, m=90)
        assert calls == block_schedule(100, 90, held)
        # a start at the frozen-M_H root g(lo) alone takes 2.6 calls per block pick
        assert np.mean(bordered) < 2.2

    def test_growth_phase_refreshes_three_times_at_n400(self, monkeypatch):
        # picks 61 to 80 delete rows from the 340-vertex decomposition: a fourth
        # refresh at pick 79 would serve pick 80 only
        calls, bordered = record_growth(monkeypatch, seed=2, n=400, m=80)
        assert calls == block_schedule(400, 80, [400, 379, 359, 340])
        # a start at the frozen-M_H root g(lo) alone takes 2.9 calls per block pick
        assert np.mean(bordered) < 2.2

    @pytest.mark.parametrize("seed, unit", [(2, 19), (3, 21), (3, 46)])
    def test_first_block_cutoffs_are_exact(self, seed, unit):
        # Voronoi instances of the bound experiment at n = 100 whose size-2 cutoff
        # read exactly 0.0 when every other pick decomposed the squared Gram; the
        # picks at sizes 2 ... 10 delete rows from the basis itself
        cfg = gs.GeoConfig(n=100, side=10.0, kernel_sigma=1.0, seed=seed * 1_000_000 + unit, proxy_k=3)
        pc, g, lap = gs.build_instance(cfg, gs.realization_rng(cfg.seed, 0))
        inner = gs.voronoi_areas(pc)
        res = gs.greedy_select(lap, inner, 11, k=3)
        for size in range(2, 11):
            oracle = explicit_cutoff(lap, inner, res.order[:size], 3)
            assert res.cutoffs[size - 1] > 0.0
            assert abs(res.cutoffs[size - 1] - oracle) <= 1e-8 * oracle

    def test_growth_cutoffs_match_explicit_svd_at_n400(self):
        # seed 2: decomposing the squared Gram every other pick erred by 1.4e-7 at size 20
        pc, g, lap = geometric_instance(seed=2, n=400)
        inner = gs.voronoi_areas(pc)
        res = gs.greedy_select(lap, inner, 80, k=3)
        for size in (20, 40, 80):
            oracle = explicit_cutoff(lap, inner, res.order[:size], 3)
            assert abs(res.cutoffs[size - 1] - oracle) <= 1e-7 * oracle

    @pytest.mark.parametrize(
        "graph, rows, root",
        [(star_graph(6), [0, 1], 1.0), (two_triangles(), [0, 1], 0.0)],
        ids=["star", "triangles"],
    )
    def test_block_root_on_a_held_eigenvalue(self, graph, rows, root):
        # deleting the centre and a leaf leaves a star's leaf modes at frequency 1;
        # deleting two vertices of one triangle leaves the other's constant at 0:
        # either way the root sits on a repeated eigenvalue of the basis
        lap = gs.combinatorial_laplacian(graph)
        basis = gs.compute_basis(lap, gs.identity_inner_product(graph.n))
        v, d = gs.sampling._eigenpairs(basis, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu, z = gs.sampling._deleted_root(d, v, rows, float(d[0]))
        keep = np.setdiff1d(np.arange(graph.n), rows)
        restricted = ((v * d) @ v.T)[np.ix_(keep, keep)]
        assert abs(mu - root) <= 1e-12
        assert np.all(z[rows] == 0.0) and np.linalg.norm(z) > 0.5
        np.testing.assert_allclose(restricted @ z[keep], mu * z[keep], atol=1e-12)

    def test_invalid_target_rejected(self):
        inner = gs.identity_inner_product(3)
        with pytest.raises(InvalidTargetError):
            gs.greedy_select(PATH3_LAP, inner, 0)
        with pytest.raises(InvalidTargetError):
            gs.greedy_select(PATH3_LAP, inner, 3)

    @pytest.mark.parametrize(
        "setting, name",
        [({"k": 2.7}, "proxy order k"), ({"k": 2.0}, "proxy order k"), ({"k": True}, "proxy order k"),
         ({"m": 2.7}, "sampling set size m")],
        ids=["k-2.7", "k-2.0", "k-True", "m-2.7"],
    )
    def test_settings_must_be_integers(self, setting, name):
        inner = gs.identity_inner_product(3)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            gs.greedy_select(PATH3_LAP, inner, **{"m": 2, "k": 2, **setting})

    def test_numpy_integer_order_is_accepted(self):
        inner = gs.identity_inner_product(3)
        a = gs.greedy_select(PATH3_LAP, inner, 2, k=np.int64(2))
        b = gs.greedy_select(PATH3_LAP, inner, 2, k=2)
        np.testing.assert_array_equal(a.order, b.order)
        np.testing.assert_array_equal(a.cutoffs, b.cutoffs)


class TestEOptMetric:
    def test_full_sampling_full_band_is_one(self):
        pc, g, lap = geometric_instance(seed=15, n=8)
        basis = gs.compute_basis(lap, gs.voronoi_areas(pc))
        assert gs.e_opt_metric(basis, np.arange(8), 8) == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_svd(self, rng):
        pc, g, lap = geometric_instance(seed=16, n=10)
        inner = gs.degree_matrix(g)
        basis = gs.compute_basis(lap, inner)
        sampled = gs.vertex_set([1, 3, 4, 8], 10)
        rows = np.diag(np.sqrt(inner.entries[sampled])) @ basis.modes[sampled][:, :3]
        oracle = np.linalg.svd(rows, compute_uv=False)[-1]
        assert gs.e_opt_metric(basis, sampled, 3) == pytest.approx(oracle, abs=1e-12)

    def test_band_one_uses_constant_mode(self):
        pc, g, lap = geometric_instance(seed=17, n=9)
        inner = gs.identity_inner_product(9)
        basis = gs.compute_basis(lap, inner)
        value = gs.e_opt_metric(basis, [2, 6], 1)
        rows = basis.modes[[2, 6], :1]
        oracle = np.linalg.svd(rows, compute_uv=False)[-1]
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_rank_deficient_flagged(self):
        # two disconnected triangles: the 2-mode band collapses on one component
        lap = gs.combinatorial_laplacian(two_triangles())
        basis = gs.compute_basis(lap, gs.identity_inner_product(6))
        with pytest.raises(RankDeficientError):
            gs.e_opt_metric(basis, [0, 1], 2)

    def test_monotone_in_added_vertices(self, rng):
        pc, g, lap = geometric_instance(seed=19, n=12)
        basis = gs.compute_basis(lap, gs.degree_matrix(g))
        sampled = [0, 3, 7, 9]
        base = gs.e_opt_metric(basis, sampled, 3)
        for extra in (1, 5, 11):
            grown = gs.e_opt_metric(basis, sorted(sampled + [extra]), 3)
            assert grown >= base - 1e-12


class TestAOptMetric:
    """The A-optimal design objective ``sum sigma^-2``: the trace of ``error_covariance``."""

    def test_full_sampling_gives_band_size(self):
        pc, g, lap = geometric_instance(seed=20, n=8)
        basis = gs.compute_basis(lap, gs.voronoi_areas(pc))
        assert np.trace(gs.error_covariance(basis, np.arange(8), 5)) == pytest.approx(5.0, abs=1e-9)

    def test_matches_explicit_inverse(self):
        pc, g, lap = geometric_instance(seed=21, n=10)
        inner = gs.degree_matrix(g)
        basis = gs.compute_basis(lap, inner)
        sampled = gs.vertex_set([0, 2, 5, 6, 9], 10)
        u = basis.modes[sampled][:, :3]
        gram = u.T @ np.diag(inner.entries[sampled]) @ u
        oracle = np.trace(np.linalg.inv(gram))
        assert np.trace(gs.error_covariance(basis, sampled, 3)) == pytest.approx(oracle, rel=1e-9)

    def test_rank_deficient_design_rejected(self):
        # two disconnected triangles: both samples sit on one component
        lap = gs.combinatorial_laplacian(two_triangles())
        basis = gs.compute_basis(lap, gs.identity_inner_product(6))
        with pytest.raises(RankDeficientError):
            gs.error_covariance(basis, [0, 1], 2)

    def test_fewer_samples_than_band_rejected(self):
        pc, g, lap = geometric_instance(seed=22, n=8)
        basis = gs.compute_basis(lap, gs.identity_inner_product(8))
        with pytest.raises(ValueError, match="band must lie in"):
            gs.error_covariance(basis, [1, 4], 3)

    @pytest.mark.parametrize("band", [1.9, 2.0, True])
    def test_band_must_be_an_integer(self, band):
        pc, g, lap = geometric_instance(seed=22, n=8)
        basis = gs.compute_basis(lap, gs.identity_inner_product(8))
        with pytest.raises(ValueError, match="band must be an integer"):
            gs.e_opt_metric(basis, [1, 4], band)
        with pytest.raises(ValueError, match="band must be an integer"):
            gs.consistent_reconstruct(basis, [1, 4], [1.0, 2.0], band=band)
