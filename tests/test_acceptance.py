"""End-to-end validation gates.

Each test exercises one acceptance check at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest -s`` to see the lines as they go).
The statistical trend gates run the full benchmark drivers at reduced
realization counts and fixed seeds, so they are deterministic.
"""

import time

import numpy as np

import graphsampling as gs
from graphsampling.cli import main
from helpers import all_inners, brute_force_singleton, cluster_cloud, geometric_instance

TREND_SEED = 20260808
TREND_FRACS = [round(0.2 + 0.05 * i, 2) for i in range(13)]


def report(number, name, ok, detail=""):
    print(f"[acceptance {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_orthonormal_bases_on_random_clouds():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        pc, g, lap = geometric_instance(seed=seed, n=100)
        for inner in all_inners(g, pc).values():
            basis = gs.compute_basis(lap, inner)
            gram = basis.modes.T @ (inner.entries[:, None] * basis.modes)
            worst = max(worst, float(np.abs(gram - np.eye(100)).max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        "orthonormality over 50 clouds x 3 inner products",
        worst <= 1e-9 and elapsed <= 60.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_eigenmode_proxy_identity():
    worst = 0.0
    worst_at = None
    for seed in range(10):
        pc, g, lap = geometric_instance(seed=seed, n=30)
        for variant, inner in all_inners(g, pc).items():
            basis = gs.compute_basis(lap, inner)
            for k in (1, 2, 3):
                for l in range(30):
                    lam = float(basis.frequencies[l])
                    proxy = gs.spectral_proxy(lap, inner, basis.modes[:, l], k=k)
                    dev = abs(proxy - lam) / max(1.0, lam)
                    if dev > worst:
                        worst, worst_at = dev, (seed, variant, k, l, lam)
    report(
        2,
        "proxy of every eigenmode equals its frequency (1e-8 relative)",
        worst <= 1e-8,
        f"worst deviation {worst:.2e} at (seed, variant, k, mode, freq) = {worst_at}; "
        "near-kernel modes amplify the eigenvector roundoff floor through the k-th root",
    )


def test_03_classic_reduction_and_first_pick():
    ok_columns = True
    for seed in (0, 1):
        _, g, lap = geometric_instance(seed=seed, n=15, kernel_sigma=2.0)
        inner = gs.identity_inner_product(15)
        keep = gs.complement([2, 9], 15)
        for k in (1, 2, 3):
            h = gs.proxy_operator(lap, inner, keep, k)
            expected = np.linalg.matrix_power(lap, k)[:, keep]
            ok_columns &= float(np.abs(h - expected).max()) <= 1e-10

    matches = []
    for seed in (1, 2, 4, 5, 6):
        _, g, lap = geometric_instance(seed=seed, n=20, kernel_sigma=3.0)
        inner = gs.identity_inner_product(20)
        picked = gs.greedy_select(lap, inner, 1, k=3).order[0]
        oracle, _ = brute_force_singleton(lap, inner, 3)
        matches.append(int(picked) == oracle)
    report(
        3,
        "plain-dot-product reduction and exhaustive first pick",
        ok_columns and all(matches),
        f"column match {ok_columns}, first-pick matches {matches}",
    )


def test_04_perfect_recovery():
    band = 8
    worst = 0.0
    for trial in range(20):
        pc, g, lap = geometric_instance(seed=100 + trial, n=40, kernel_sigma=2.0)
        variant = ("identity", "degree", "voronoi")[trial % 3]
        inner = all_inners(g, pc)[variant]
        basis = gs.compute_basis(lap, inner)
        rng = np.random.default_rng(500 + trial)
        coeffs = np.zeros(40)
        coeffs[:band] = rng.standard_normal(band)
        x = gs.synthesize(basis, coeffs)
        sampled = gs.greedy_select(lap, inner, band, k=3).head(band)
        rep = gs.consistent_reconstruct(basis, sampled, x[sampled], band=band)
        worst = max(worst, gs.q_norm(rep.x_hat - x, inner) / gs.q_norm(x, inner))
    report(4, "perfect recovery of bandlimited signals", worst <= 1e-8, f"worst relative error {worst:.2e}")


def test_05_error_bound_on_random_triples():
    rng = np.random.default_rng(7)
    checked = 0
    worst_slack = 0.0
    for seed in range(10):
        pc, g, lap = geometric_instance(seed=seed, n=30, kernel_sigma=2.0)
        for inner in all_inners(g, pc).values():
            basis = gs.compute_basis(lap, inner)
            done = 0
            while done < 10:
                band = int(rng.integers(2, 9))
                size = int(rng.integers(band + 3, 25))
                sampled = np.sort(rng.choice(30, size=size, replace=False))
                x = rng.standard_normal(30)
                try:
                    lhs, rhs = gs.verify_error_bound(basis, sampled, band, x)
                except gs.errors.SingularGramError:
                    continue
                worst_slack = max(worst_slack, lhs / rhs if rhs > 0 else np.inf)
                done += 1
                checked += 1
    report(
        5,
        "mismatch bound holds on 300 random triples",
        checked == 300 and worst_slack <= 1.0 + 1e-8,
        f"{checked} triples, worst lhs/rhs {worst_slack:.12f}",
    )


def test_06_covariance_against_monte_carlo():
    draws = 20000
    devs = []
    for idx, (seed, variant, band, size) in enumerate(
        [(0, "identity", 5, 12), (1, "degree", 6, 15), (2, "voronoi", 4, 10)]
    ):
        pc, g, lap = geometric_instance(seed=seed, n=40, kernel_sigma=2.0)
        inner = all_inners(g, pc)[variant]
        basis = gs.compute_basis(lap, inner)
        sampled = gs.greedy_select(lap, inner, size, k=3).head(size)
        expected = float(np.trace(gs.error_covariance(basis, sampled, band)))

        rng = np.random.default_rng(900 + idx)
        root_inv = 1.0 / np.sqrt(inner.entries[sampled])
        noise = root_inv[:, None] * rng.standard_normal((size, draws))
        u_s = basis.modes[sampled][:, :band]
        q_s = inner.entries[sampled]
        gram = u_s.T @ (q_s[:, None] * u_s)
        coeffs = np.linalg.solve(gram, u_s.T @ (q_s[:, None] * noise))
        errors = basis.modes[:, :band] @ coeffs
        sq = (inner.entries[:, None] * errors * errors).sum(axis=0)
        devs.append(abs(sq.mean() - expected) / expected)
    report(
        6,
        "Monte-Carlo error power within 5% of the covariance trace",
        max(devs) <= 0.05,
        f"relative deviations {[f'{d:.3f}' for d in devs]}",
    )


def test_07_iterative_matches_closed_form():
    gaps, iters = [], []
    for seed, variant in [(10, "identity"), (11, "identity"), (10, "degree"), (12, "degree")]:
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
            cheb_order=60,
            max_iters=500,
        )
        x = gs.synthesize(basis, np.concatenate([rng.standard_normal(band), np.zeros(basis.n - band)]))
        sampled = gs.greedy_select(lap, inner, 2 * band, k=3).head(2 * band)
        closed = gs.consistent_reconstruct(basis, sampled, x[sampled], band=band)
        iterative = gs.pocs_reconstruct(lap, inner, sampled, x[sampled], params)
        gaps.append(gs.q_norm(iterative.x_hat - closed.x_hat, inner) / gs.q_norm(closed.x_hat, inner))
        iters.append(iterative.iters)
    report(
        7,
        "iterative reconstruction within 1e-3 of the closed form",
        max(gaps) <= 1e-3 and max(iters) < 500,
        f"gaps {[f'{v:.1e}' for v in gaps]}, iterations {iters}",
    )


def test_08_voronoi_partition_and_monte_carlo():
    worst_sum = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pc = gs.sample_points(gs.GeoConfig(n=50, seed=seed), rng)
        areas = gs.voronoi_areas(pc).entries
        worst_sum = max(worst_sum, abs(areas.sum() - 100.0) / 100.0)

    worst_cell = 0.0
    for seed in (3, 7, 9, 20, 21):
        rng = np.random.default_rng(seed)
        pc = gs.sample_points(gs.GeoConfig(n=50, seed=seed), rng)
        areas = gs.voronoi_areas(pc).entries
        mc_rng = np.random.default_rng(seed + 1000)
        counts = np.zeros(50)
        for _ in range(10):
            chunk = mc_rng.uniform(0, 10, size=(100_000, 2))
            # two (100000, 50) planes: equal bit for bit to summing the squared (100000, 50, 2) stack
            d2 = (chunk[:, :1] - pc.positions[:, 0]) ** 2 + (chunk[:, 1:] - pc.positions[:, 1]) ** 2
            idx, cnt = np.unique(d2.argmin(axis=1), return_counts=True)
            counts[idx] += cnt
        estimate = counts / 1_000_000 * 100.0
        worst_cell = max(worst_cell, float(np.max(np.abs(areas - estimate) / areas)))
    report(
        8,
        "cell areas partition the square and match Monte Carlo",
        worst_sum <= 1e-6 and worst_cell <= 0.02,
        f"worst sum deviation {worst_sum:.2e}, worst cell deviation {worst_cell:.4f}",
    )


def test_09_design_quality_trend():
    start = time.perf_counter()
    cfg = gs.GeoConfig(n=100, seed=TREND_SEED)
    table = gs.run_bound_experiment(cfg, 200, TREND_FRACS, workers=2)
    elapsed = time.perf_counter() - start

    curves = {}
    for row in table.rows:
        curves.setdefault(row.variant, {})[row.sample_size] = row.mean_value
    sizes = sorted(curves["identity"])
    area_vs_plain = [curves["voronoi"][s] >= curves["identity"][s] for s in sizes]
    beyond = [s for s in sizes if s / cfg.n > 0.4]
    degree_drops = [
        curves["degree"][s] < curves["identity"][s] and curves["degree"][s] < curves["voronoi"][s]
        for s in beyond
    ]
    frac_a = np.mean(area_vs_plain)
    frac_b = np.mean(degree_drops)
    report(
        9,
        "average design quality: area weights beat plain, degree collapses past 40%",
        frac_a >= 0.9 and frac_b >= 0.9 and elapsed <= 900.0,
        f"area>=plain on {frac_a:.0%} of {len(sizes)} sizes, degree lowest on {frac_b:.0%} "
        f"of {len(beyond)} large sizes, {elapsed:.0f}s",
    )


def test_10_reconstruction_error_trend():
    cfg = gs.GeoConfig(n=100, seed=TREND_SEED)
    table = gs.run_mse_experiment(cfg, 50, TREND_FRACS, [2, 4], [0.2], workers=2)

    curves = {}
    for row in table.rows:
        curves.setdefault((row.signal_cycles, row.variant), {})[row.sample_size] = row.mean_value
    sizes = sorted({row.sample_size for row in table.rows})
    small = [s for s in sizes if s / cfg.n <= 0.4]
    large = [s for s in sizes if s / cfg.n >= 0.6]
    degree_best_smooth = [
        curves[(2, "degree")][s] <= min(curves[(2, "identity")][s], curves[(2, "voronoi")][s])
        for s in small
    ]
    area_best_sharp = [
        curves[(4, "voronoi")][s] <= min(curves[(4, "identity")][s], curves[(4, "degree")][s])
        for s in large
    ]
    frac_a = np.mean(degree_best_smooth)
    frac_b = np.mean(area_best_sharp)
    report(
        10,
        "error trends: degree wins the smoothest signal early, area weights win later",
        frac_a >= 0.9 and frac_b >= 0.9,
        f"degree lowest on {frac_a:.0%} of {len(small)} small sizes (2 cycles), "
        f"area lowest on {frac_b:.0%} of {len(large)} large sizes (4 cycles)",
    )


def test_11_benchmark_determinism(tmp_path):
    args = ["bench", "bound", "--realizations", "5", "--seed", "7", "--threads", "2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "bound.csv").read_bytes()
    second = (tmp_path / "b" / "bound.csv").read_bytes()
    rows = first.decode().strip().splitlines()
    grid_ok = len(rows) == 1 + 3 * 9  # header plus three curves over nine sizes
    report(
        11,
        "benchmark reruns produce byte-identical tables",
        first == second and grid_ok,
        f"{len(first)} bytes, {len(rows) - 1} rows",
    )
