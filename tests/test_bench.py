"""Benchmark drivers: determinism, schema, aggregation, and trend sanity."""

import concurrent.futures
import dataclasses

import numpy as np
import pytest

import graphsampling as gs
from graphsampling import bench, reconstruction
from graphsampling.bench import CSV_COLUMNS, RECON_METHODS, _mean_rows
from graphsampling.errors import RankDeficientError


SMALL = gs.GeoConfig(n=12, seed=21, kernel_sigma=2.0)


class TestBoundExperiment:
    def test_reproducible_csv_bytes(self):
        a = gs.run_bound_experiment(SMALL, 2, [0.25, 0.5])
        b = gs.run_bound_experiment(SMALL, 2, [0.25, 0.5])
        assert a.to_csv().encode() == b.to_csv().encode()

    def test_workers_do_not_change_results(self):
        serial = gs.run_bound_experiment(SMALL, 3, [0.3, 0.6], workers=1)
        threaded = gs.run_bound_experiment(SMALL, 3, [0.3, 0.6], workers=3)
        assert serial.to_csv() == threaded.to_csv()

    def test_empty_fraction_list_rejected(self):
        with pytest.raises(ValueError, match="^need at least one sampling fraction$"):
            gs.run_bound_experiment(SMALL, 1, [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_reports_each_realization(self, workers):
        seen = []
        gs.run_bound_experiment(SMALL, 3, [0.5], workers=workers, progress=seen.append)
        # one worker reports in order; two report the same realizations in either order
        assert (seen if workers == 1 else sorted(seen)) == [0, 1, 2]

    def test_row_grid(self):
        table = gs.run_bound_experiment(SMALL, 1, [0.25, 0.5, 0.75])
        assert len(table.rows) == 3 * 3
        variants = [r.variant for r in table.rows]
        assert variants == ["identity"] * 3 + ["degree"] * 3 + ["voronoi"] * 3
        assert all(r.signal_cycles is None and r.noise_sigma is None for r in table.rows)

    def test_single_cell_matches_hand_assembled_chain(self):
        table = gs.run_bound_experiment(SMALL, 1, [0.5], variants=("degree",))
        _, g, lap = gs.build_instance(SMALL, gs.realization_rng(SMALL.seed, 0))
        inner = gs.degree_matrix(g)
        selection = gs.greedy_select(lap, inner, 6, k=SMALL.proxy_k)
        basis = gs.compute_basis(lap, inner)
        expected = gs.e_opt_metric(basis, selection.head(6), 6)
        assert table.rows[0].mean_value == pytest.approx(expected, abs=1e-12)
        assert table.rows[0].sample_size == 6


# sample_sizes(12, FRACS) == [3, 6]; cells of 3 samples are made to fail
FRACS, FAIL_SIZE = [0.25, 0.5], 3


def rank_deficient(*args, **kwargs):
    raise RankDeficientError(0.0)


def non_finite(*args, **kwargs):
    rep = reconstruction._pocs_solve(*args, **kwargs)
    return dataclasses.replace(rep, x_hat=np.full_like(rep.x_hat, np.inf))


@pytest.mark.parametrize(
    "name, ids_at, fail, run",
    [
        ("e_opt_metric", 1, rank_deficient, lambda: gs.run_bound_experiment(SMALL, 3, FRACS)),
        # the closed form fits each size's design once, so a rank-deficient design fails the size for every pair
        ("_fit", 1, rank_deficient, lambda: gs.run_mse_experiment(SMALL, 3, FRACS, [2, 3], [0.1, 0.2])),
        ("_pocs_solve", 2, non_finite, lambda: gs.run_mse_experiment(SMALL, 3, FRACS, [2], [0.1], method="pocs")),
    ],
    ids=["bound-rank-deficient", "mse-rank-deficient", "mse-non-finite"],
)
def test_failed_cells_read_nan_for_every_realization(monkeypatch, name, ids_at, fail, run):
    clean = run().rows
    assert not any(row.n_failed for row in clean)
    original = getattr(bench, name)
    monkeypatch.setattr(bench, name, lambda *a, **k: (fail if len(a[ids_at]) == FAIL_SIZE else original)(*a, **k))
    for before, after in zip(clean, run().rows, strict=True):
        if after.sample_size == FAIL_SIZE:
            assert np.isnan(after.mean_value) and after.stderr == 0.0 and after.n_failed == 3
        else:
            assert after == before


class TestMseExperiment:
    def test_row_grid_and_schema(self):
        table = gs.run_mse_experiment(SMALL, 1, [0.3, 0.6], [2, 3], [0.1, 0.4])
        assert len(table.rows) == 3 * 2 * 2 * 2
        header = table.to_csv().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    @pytest.mark.parametrize("method", RECON_METHODS)
    def test_reproducible_csv_bytes(self, method):
        a = gs.run_mse_experiment(SMALL, 2, [0.4], [2], [0.2], method=method)
        b = gs.run_mse_experiment(SMALL, 2, [0.4], [2], [0.2], method=method, workers=2)
        assert a.to_csv().encode() == b.to_csv().encode()

    def test_empty_fraction_list_rejected(self):
        with pytest.raises(ValueError, match="^need at least one sampling fraction$"):
            gs.run_mse_experiment(SMALL, 1, [], [2], [0.1])

    def test_signal_cycles_must_be_integers(self):
        # once truncated by int(), so 2.5 cycles ran as 2
        with pytest.raises(ValueError, match="^signal_cycles must be an integer"):
            gs.run_mse_experiment(SMALL, 1, [0.5], [2.5], [0.1])

    def test_noiseless_smooth_signal_error_decreases(self):
        cfg = gs.GeoConfig(n=30, seed=4, kernel_sigma=2.0)
        table = gs.run_mse_experiment(cfg, 3, [0.2, 0.4, 0.6], [2], [0.0], variants=("voronoi",))
        values = [r.mean_value for r in table.rows]
        assert values == sorted(values, reverse=True)

    def test_single_cell_matches_hand_assembled_chain(self):
        cfg = gs.GeoConfig(n=14, seed=9, kernel_sigma=2.0)
        table = gs.run_mse_experiment(cfg, 1, [0.5], [3], [0.2], variants=("identity",))
        rng = gs.realization_rng(cfg.seed, 0)
        pc, g, lap = gs.build_instance(cfg, rng)
        metric = gs.voronoi_areas(pc)
        truth = gs.sinewave_signal(pc, 3)
        noisy = gs.add_noise(truth, 0.2, rng)
        inner = gs.identity_inner_product(14)
        selection = gs.greedy_select(lap, inner, 7, k=cfg.proxy_k)
        basis = gs.compute_basis(lap, inner)
        chosen = selection.head(7)
        band = int(np.searchsorted(basis.frequencies, selection.cutoffs[6]))
        band = min(max(band, 1), 7)
        report = gs.consistent_reconstruct(basis, chosen, noisy[chosen], band=band)
        expected = gs.q_norm(report.x_hat - truth, metric)
        assert table.rows[0].mean_value == pytest.approx(expected, rel=1e-12)

    def test_pocs_method_runs(self):
        cfg = gs.GeoConfig(n=12, seed=6, kernel_sigma=2.0)
        table = gs.run_mse_experiment(cfg, 1, [0.4], [2], [0.1], method="pocs", variants=("degree",))
        assert np.isfinite(table.rows[0].mean_value)

    def test_pocs_cells_equal_the_public_calls_bit_for_bit(self):
        # the experiment filters through the basis it selected with; the public calls compute their own
        cfg = gs.GeoConfig(n=30, seed=5, kernel_sigma=1.5)
        fracs, cycles, sigmas = [0.3, 0.6], [2, 3], [0.1, 0.2]
        table = gs.run_mse_experiment(cfg, 1, fracs, cycles, sigmas, method="pocs")
        rng = gs.realization_rng(cfg.seed, 0)
        pc, g, lap = gs.build_instance(cfg, rng)
        metric = gs.voronoi_areas(pc)
        truths = {c: gs.sinewave_signal(pc, c) for c in cycles}
        noisy = {(c, s): gs.add_noise(truths[c], s, rng) for c in cycles for s in sigmas}
        sizes = gs.sample_sizes(cfg.n, fracs)
        expected = []
        for variant in gs.VARIANTS:
            inner = gs.inner_for_variant(variant, g, pc)
            lam_max = gs.estimate_lambda_max(lap, inner)
            selection = gs.greedy_select(lap, inner, sizes[-1], k=cfg.proxy_k)
            for c in cycles:
                for s in sigmas:
                    for size in sizes:
                        chosen = selection.head(size)
                        omega = min(float(selection.cutoffs[size - 1]), lam_max)
                        params = gs.PocsParams(omega=omega, lambda_max=lam_max)
                        rep = gs.pocs_reconstruct(lap, inner, chosen, noisy[c, s][chosen], params)
                        expected.append(gs.q_norm(rep.x_hat - truths[c], metric))
        assert [row.mean_value for row in table.rows] == expected

    def test_pocs_builds_one_filter_per_variant_and_size(self, monkeypatch):
        # every (signal, noise) pair of a sampling set shares its low-pass; only the CG solve runs per signal
        calls = {"clenshaw": 0, "coeffs": 0, "filters": 0, "solves": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def filters(*args):
            for lowpass in real_filters(*args):
                calls["filters"] += 1
                yield lowpass

        real_filters = bench._spectral_filters
        monkeypatch.setattr(reconstruction, "evaluate_cheb_series", counted("clenshaw", gs.evaluate_cheb_series))
        monkeypatch.setattr(bench, "_cheb_coeffs", counted("coeffs", bench._cheb_coeffs))
        monkeypatch.setattr(bench, "_spectral_filters", filters)
        monkeypatch.setattr(bench, "_pocs_solve", counted("solves", bench._pocs_solve))
        cfg = gs.GeoConfig(n=30, seed=5, kernel_sigma=1.5)
        table = gs.run_mse_experiment(cfg, 1, [0.3, 0.6], [2, 3], [0.1, 0.2], method="pocs")
        assert len(table.rows) == 3 * 2 * 2 * 2
        # 3 variants x 2 sizes filters from one Clenshaw pass per variant, 24 solves
        assert calls == {"clenshaw": 3, "coeffs": 6, "filters": 6, "solves": 24}

    def test_closed_form_cells_equal_the_public_calls_bit_for_bit(self):
        # the experiment fits each sampling set once; the public call fits per signal
        cfg = gs.GeoConfig(n=30, seed=5, kernel_sigma=1.5)
        fracs, cycles, sigmas = [0.3, 0.6], [2, 3], [0.1, 0.2]
        table = gs.run_mse_experiment(cfg, 1, fracs, cycles, sigmas)
        rng = gs.realization_rng(cfg.seed, 0)
        pc, g, lap = gs.build_instance(cfg, rng)
        metric = gs.voronoi_areas(pc)
        truths = {c: gs.sinewave_signal(pc, c) for c in cycles}
        noisy = {(c, s): gs.add_noise(truths[c], s, rng) for c in cycles for s in sigmas}
        sizes = gs.sample_sizes(cfg.n, fracs)
        expected = []
        for variant in gs.VARIANTS:
            inner = gs.inner_for_variant(variant, g, pc)
            basis = gs.compute_basis(lap, inner)
            selection = gs.greedy_select(lap, inner, sizes[-1], k=cfg.proxy_k)
            for c in cycles:
                for s in sigmas:
                    for size in sizes:
                        chosen = selection.head(size)
                        band = int(np.searchsorted(basis.frequencies, selection.cutoffs[size - 1]))
                        band = min(max(band, 1), size)
                        rep = gs.consistent_reconstruct(basis, chosen, noisy[c, s][chosen], band=band)
                        expected.append(gs.q_norm(rep.x_hat - truths[c], metric))
        assert [row.mean_value for row in table.rows] == expected

    def test_closed_form_takes_one_svd_per_variant_and_size(self, monkeypatch):
        calls = []

        def svd(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real_svd(*args, **kwargs)

        real_svd = reconstruction._svd
        monkeypatch.setattr(reconstruction, "_svd", svd)
        cfg = gs.GeoConfig(n=30, seed=5, kernel_sigma=1.5)
        table = gs.run_mse_experiment(cfg, 1, [0.3, 0.6], [2, 3], [0.1, 0.2])
        assert len(table.rows) == 3 * 2 * 2 * 2
        # 3 variants x sizes 9 and 18, each shared by 4 (signal, noise) pairs
        assert calls == [9, 18] * 3

    def test_metric_independent_of_selection_variant(self):
        # the error metric weights are the cell areas for every variant row
        cfg = gs.GeoConfig(n=12, seed=30, kernel_sigma=2.0)
        pc, g, lap = gs.build_instance(cfg, gs.realization_rng(cfg.seed, 0))
        metric = gs.voronoi_areas(pc)
        table = gs.run_mse_experiment(cfg, 1, [0.5], [2], [0.0])
        truth = gs.sinewave_signal(pc, 2)
        for row in table.rows:
            inner = gs.inner_for_variant(row.variant, g, pc)
            selection = gs.greedy_select(lap, inner, 6, k=cfg.proxy_k)
            basis = gs.compute_basis(lap, inner)
            band = int(np.searchsorted(basis.frequencies, selection.cutoffs[5]))
            band = min(max(band, 1), 6)
            rep = gs.consistent_reconstruct(basis, selection.head(6), truth[selection.head(6)], band=band)
            assert row.mean_value == pytest.approx(gs.q_norm(rep.x_hat - truth, metric), rel=1e-12)


class TestAggregation:
    def test_nan_cells_counted_as_failures(self):
        stack = np.array([[1.0, np.nan], [3.0, np.nan], [np.nan, np.nan]])
        mean, stderr, failed = _mean_rows(stack)
        assert mean[0] == pytest.approx(2.0)
        assert np.isnan(mean[1])
        assert failed.tolist() == [1, 3]
        assert stderr[1] == 0.0

    def test_stderr_matches_manual_formula(self):
        stack = np.array([[1.0], [2.0], [4.0]])
        _, stderr, _ = _mean_rows(stack)
        assert stderr[0] == pytest.approx(np.std([1, 2, 4], ddof=1) / np.sqrt(3))


class TestCsvFormat:
    def test_floats_round_trip_exactly(self):
        table = gs.run_bound_experiment(SMALL, 1, [0.5], variants=("identity",))
        line = table.to_csv().splitlines()[1].split(",")
        assert float(line[4]) == table.rows[0].mean_value

    def test_blank_fields_for_missing_grid_axes(self):
        table = gs.run_bound_experiment(SMALL, 1, [0.5], variants=("identity",))
        line = table.to_csv().splitlines()[1].split(",")
        assert line[1] == "" and line[2] == ""


def test_drivers_reject_fewer_than_two_vertices():
    cfg = gs.GeoConfig(n=1, seed=1)
    with pytest.raises(ValueError, match="at least 2 vertices"):
        gs.run_bound_experiment(cfg, 1, [0.5])
    with pytest.raises(ValueError, match="at least 2 vertices"):
        gs.run_mse_experiment(cfg, 1, [0.5], [2], [0.1], method="pocs")


def test_sample_sizes_rounding():
    assert gs.sample_sizes(100, [0.2, 0.25]) == [20, 25]
    assert gs.sample_sizes(10, [0.05]) == [1]
    assert gs.sample_sizes(10, [0.99]) == [9]
    assert gs.sample_sizes(10, [0.2, 0.21]) == [2]


def test_realization_rng_streams_are_independent_and_stable():
    a = gs.realization_rng(7, 0).uniform(size=4)
    b = gs.realization_rng(7, 1).uniform(size=4)
    again = gs.realization_rng(7, 0).uniform(size=4)
    assert a.tobytes() == again.tobytes()
    assert a.tobytes() != b.tobytes()


@pytest.mark.parametrize(
    "cores, realizations, workers, pool",
    [(2, 200, 200, 2), (8, 3, 200, 3), (8, 200, 4, 4), (None, 200, 200, None), (1, 5, 4, None)],
    ids=["cores", "realizations", "workers", "unknown-cores", "one-core"],
)
def test_worker_pool_is_clamped_to_cores_and_realizations(monkeypatch, cores, realizations, workers, pool):
    """No more threads than cores or pending realizations; one worker runs in the calling thread, without a pool."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(bench.os, "cpu_count", lambda: cores)
    # bench imports the pool class when it needs one, so the class is replaced where it is imported from
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    assert bench._run_realizations(realizations, lambda idx: idx, workers) == list(range(realizations))
    assert sizes == ([] if pool is None else [pool])
