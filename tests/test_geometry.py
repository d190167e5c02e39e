"""Point clouds, kernel graphs, Voronoi areas, signals, and noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsampling as gs
from graphsampling import geometry
from graphsampling.errors import DegenerateCellError
from helpers import cluster_cloud, kernel_weights_oracle, voronoi_oracle


class TestSamplePoints:
    def test_deterministic_given_seed(self):
        cfg = gs.GeoConfig(n=40, seed=7)
        a = gs.sample_points(cfg, np.random.default_rng(7))
        b = gs.sample_points(cfg, np.random.default_rng(7))
        assert a.positions.tobytes() == b.positions.tobytes()

    def test_mean_of_many_points(self):
        cfg = gs.GeoConfig(n=10000, seed=11)
        pc = gs.sample_points(cfg, np.random.default_rng(11))
        assert abs(pc.positions[:, 0].mean() - 5.0) <= 0.1

    def test_all_points_inside_square(self):
        cfg = gs.GeoConfig(n=200, side=10.0, seed=3)
        pc = gs.sample_points(cfg, np.random.default_rng(3))
        assert (pc.positions >= 0.0).all() and (pc.positions <= 10.0).all()


class TestKernelGraph:
    def test_weight_at_reference_distance(self):
        # distance sqrt(2) * sigma with sigma = 1 gives weight e^-1
        pc = gs.PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), 10.0)
        g = gs.gaussian_kernel_graph(pc, 1.0)
        assert g.weights[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_equal_distances_give_equal_weights(self):
        pts = np.array([[5.0, 5.0], [5.0, 7.0], [7.0, 5.0], [3.0, 5.0]])
        g = gs.gaussian_kernel_graph(gs.PointCloud(pts, 10.0), 1.3)
        assert g.weights[0, 1] == g.weights[0, 2] == g.weights[0, 3]

    def test_matches_pairwise_loop(self, rng):
        pts = rng.uniform(0, 10, size=(12, 2))
        g = gs.gaussian_kernel_graph(gs.PointCloud(pts, 10.0), 1.7)
        for i in range(12):
            for j in range(12):
                if i == j:
                    assert g.weights[i, j] == 0.0
                    continue
                d2 = (pts[i, 0] - pts[j, 0]) ** 2 + (pts[i, 1] - pts[j, 1]) ** 2
                assert abs(g.weights[i, j] - np.exp(-d2 / (2 * 1.7**2))) <= 1e-14

    def test_complete_and_degree_safe(self):
        cfg = gs.GeoConfig(n=30, seed=5)
        pc = gs.sample_points(cfg, np.random.default_rng(5))
        g = gs.gaussian_kernel_graph(pc, 1.0)
        off = g.weights[~np.eye(30, dtype=bool)]
        assert (off > 0).all()
        gs.degree_matrix(g)  # never raises on a kernel graph


class TestVoronoiAreas:
    def test_single_point_owns_the_square(self):
        pc = gs.PointCloud(np.array([[3.0, 4.0]]), 10.0)
        np.testing.assert_array_equal(gs.voronoi_areas(pc).entries, [100.0])

    def test_quadrant_centers(self):
        pts = np.array([[2.5, 2.5], [7.5, 2.5], [2.5, 7.5], [7.5, 7.5]])
        areas = gs.voronoi_areas(gs.PointCloud(pts, 10.0)).entries
        np.testing.assert_allclose(areas, 25.0, atol=1e-9)

    def test_partition_of_the_square(self):
        for seed in range(5):
            cfg = gs.GeoConfig(n=50, seed=seed)
            pc = gs.sample_points(cfg, np.random.default_rng(seed))
            areas = gs.voronoi_areas(pc).entries
            assert (areas > 0).all()
            assert abs(areas.sum() - 100.0) <= 1e-6

    def test_coincident_sites_rejected(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        with pytest.raises(DegenerateCellError):
            gs.voronoi_areas(gs.PointCloud(pts, 10.0))


def _areas_or_site(fn, pc):
    """Area bytes, or the site of the ``DegenerateCellError`` raised."""
    try:
        return np.asarray(fn(pc)).tobytes()
    except DegenerateCellError as exc:
        return exc.site


def _same_as_oracles(pc):
    assert _areas_or_site(lambda c: gs.voronoi_areas(c).entries, pc) == _areas_or_site(voronoi_oracle, pc)
    for sigma in (0.3, 1.0, 2.7):
        assert gs.gaussian_kernel_graph(pc, sigma).weights.tobytes() == kernel_weights_oracle(pc, sigma).tobytes()


class TestBitForBitOracles:
    """The all-cells Voronoi rounds and the two-plane kernel distances equal the numpy-scalar oracles bit for bit."""

    # at most _PREFIX sites every candidate row is complete; one more, and rows are cut
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 100, 400, geometry._PREFIX - 1, geometry._PREFIX, geometry._PREFIX + 1])
    def test_random_clouds(self, n):
        for seed in range(10):
            pc = gs.sample_points(gs.GeoConfig(n=n, seed=seed), np.random.default_rng(seed))
            _same_as_oracles(pc)

    @pytest.mark.parametrize("ticks", [np.linspace(0.0, 10.0, 5), np.arange(1.0, 10.0, 2.0)])
    def test_lattice_ties_and_bisectors_through_vertices(self, ticks):
        # exact distance ties everywhere, and each cell's last bisectors pass through its corners
        pts = np.array([[px, py] for px in ticks for py in ticks])
        areas = gs.voronoi_areas(gs.PointCloud(pts, 10.0)).entries
        assert areas.sum() == pytest.approx(100.0, abs=1e-12)
        _same_as_oracles(gs.PointCloud(pts, 10.0))

    def test_sites_on_edges_and_corners(self, rng):
        corners = [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]
        for t in ([5.0], rng.uniform(0.0, 10.0, 3).tolist()):
            edges = [[s, 0.0] for s in t] + [[10.0, s] for s in t] + [[s, 10.0] for s in t] + [[0.0, s] for s in t]
            inside = rng.uniform(0.0, 10.0, (2 * len(t), 2)).tolist()
            _same_as_oracles(gs.PointCloud(np.array(corners + edges + inside), 10.0))

    @pytest.mark.parametrize("spread", [0.35, 3.0])
    def test_cluster_clouds_clipped_onto_the_boundary(self, spread):
        for seed in range(10):
            pc, _ = cluster_cloud(seed, spread=spread)
            _same_as_oracles(pc)

    @pytest.mark.parametrize("twin", [1, 4, 9])
    def test_coincident_sites_fail_at_the_same_site(self, twin):
        pts = np.random.default_rng(twin).uniform(0.0, 10.0, (10, 2))
        pts[twin] = pts[3]
        pc = gs.PointCloud(pts, 10.0)
        site = _areas_or_site(voronoi_oracle, pc)
        assert isinstance(site, int)
        assert _areas_or_site(lambda c: gs.voronoi_areas(c).entries, pc) == site


@st.composite
def small_clouds(draw):
    """Up to 40 sites on a grid of step 1/8, whose edges and corners are the square's, or anywhere in it; some twins.

    Coordinates elsewhere keep three decimals, so no two distinct sites are
    so close that a cell's area underflows.
    """
    coord = st.one_of(st.integers(0, 80).map(lambda i: i / 8), st.floats(0.0, 10.0).map(lambda v: round(v, 3)))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    for twin in draw(st.lists(st.integers(0, len(pts) - 1), max_size=2)):
        pts.insert(draw(st.integers(0, len(pts))), pts[twin])
    return gs.PointCloud(np.array(pts), 10.0)


class TestNearestFirstCandidates:
    """The paths of the bulk candidate prefixes against the oracle's full stable sort of every row."""

    def test_cell_that_outruns_its_prefix(self, monkeypatch):
        # one site alone in the left half, facing a dense cluster: its cell reaches far, and the
        # bisectors of many cluster sites cut it before the stop test ends it
        rng = np.random.default_rng(5)
        pts = np.vstack([[[1.0, 5.0]], rng.uniform([6.0, 0.0], [10.0, 10.0], (300, 2))])
        pc = gs.PointCloud(pts, 10.0)
        full_rows = []
        rows = geometry._distance_rows
        monkeypatch.setattr(geometry, "_distance_rows", lambda x, y, r: full_rows.append(r) or rows(x, y, r))
        _same_as_oracles(pc)
        assert [0] in full_rows

    def test_ties_at_the_prefix_boundary(self):
        # 48 sites at exactly the same squared distance 5525/256 from a centre site
        # (5525 = 5^2 * 13 * 17 is a sum of two squares in 48 ways), more than the prefix holds
        ring = [(a, b) for a in range(-75, 76) for b in range(-75, 76) if a * a + b * b == 5525]
        pts = np.array([(5.0, 5.0)] + [(5.0 + a / 16, 5.0 + b / 16) for a, b in ring])
        x, y = pts.T
        assert len(ring) == 48 > geometry._PREFIX
        assert geometry._nearest_prefixes(x, y)[1][0] == 1
        _same_as_oracles(gs.PointCloud(pts, 10.0))

    def test_stop_test_at_its_bound_follows_pow(self):
        # site 7 lies at twice site 0's cell radius to within rounding: with the radius
        # squared as x * x site 0's cell stops before it, with the oracle's ``** 2`` (libm
        # pow) it goes on, and site 7's bisector cuts a sliver that moves the area's last bit
        pts = np.array([
            [4.274245211558293, 5.977352817753426], [4.500085943567221, 6.936741168300409],
            [3.7301660115629214, 6.8084171382666225], [3.5506286258381174, 6.3959787018928225],
            [3.592100389504812, 5.411605350171292], [4.007214058088625, 5.177093085579726],
            [5.264112822118804, 5.9020666732494105], [5.179229468538491, 4.7860142715969145],
        ])
        _same_as_oracles(gs.PointCloud(pts, 10.0))

    @pytest.mark.parametrize("first, twin", [(0, 1), (29, 30), (12, 59)], ids=["low", "middle", "last"])
    def test_twins_fail_at_the_oracle_site(self, first, twin):
        pts = np.random.default_rng(first).uniform(0.0, 10.0, (60, 2))
        pts[twin] = pts[first]
        pc = gs.PointCloud(pts, 10.0)
        assert _areas_or_site(voronoi_oracle, pc) == first
        assert _areas_or_site(lambda c: gs.voronoi_areas(c).entries, pc) == first

    @settings(max_examples=60, deadline=None)
    @given(small_clouds())
    def test_small_clouds_with_boundary_sites_and_twins(self, pc):
        assert _areas_or_site(lambda c: gs.voronoi_areas(c).entries, pc) == _areas_or_site(voronoi_oracle, pc)


class TestSinewave:
    def test_zero_at_origin(self):
        pc = gs.PointCloud(np.array([[0.0, 3.0]]), 10.0)
        assert gs.sinewave_signal(pc, 2)[0] == 0.0

    def test_quarter_period_values(self):
        pc = gs.PointCloud(np.array([[2.5, 0.0], [1.25, 9.0]]), 10.0)
        values = gs.sinewave_signal(pc, 2)
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_pointwise_oracle(self, rng):
        pts = rng.uniform(0, 10, size=(25, 2))
        pc = gs.PointCloud(pts, 10.0)
        for cycles in (2, 3, 4, 5):
            values = gs.sinewave_signal(pc, cycles)
            for i in range(25):
                expected = np.sin(2 * np.pi * cycles / 10.0 * pts[i, 0])
                assert values[i] == pytest.approx(expected, abs=1e-12)
        assert (np.abs(values) <= 1.0).all()


class TestNoise:
    def test_zero_sigma_is_bitwise_copy(self, rng):
        x = rng.standard_normal(30)
        y = gs.add_noise(x, 0.0, np.random.default_rng(0))
        assert y.tobytes() == x.tobytes()
        assert y is not x

    def test_sample_standard_deviation(self):
        y = gs.add_noise(np.zeros(100_000), 0.2, np.random.default_rng(42))
        assert abs(y.std() - 0.2) <= 0.005

    def test_reproducible(self, rng):
        x = rng.standard_normal(16)
        a = gs.add_noise(x, 0.4, np.random.default_rng(9))
        b = gs.add_noise(x, 0.4, np.random.default_rng(9))
        assert a.tobytes() == b.tobytes()


class TestConfigValidation:
    def test_nan_position_rejected(self):
        # a NaN site once passed and surfaced as a degenerate Voronoi cell of site 0
        with pytest.raises(ValueError, match="positions must be finite"):
            gs.PointCloud(np.array([[1.0, 1.0], [np.nan, 2.0]]), 10.0)

    @pytest.mark.parametrize("side", [np.inf, 1e160], ids=["infinite", "square-overflows"])
    def test_side_must_have_a_finite_square(self, side):
        with pytest.raises(ValueError, match="side must be positive with a finite square"):
            gs.PointCloud(np.array([[1.0, 1.0]]), side)
        with pytest.raises(ValueError, match="side must be positive with a finite square"):
            gs.GeoConfig(side=side)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 5.0), ("n", True), ("seed", 1.5), ("seed", False), ("proxy_k", 2.7), ("proxy_k", "3")],
    )
    def test_integer_fields_take_integers_only(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            gs.GeoConfig(**{field: value})

    def test_numpy_integer_fields_become_ints(self):
        cfg = gs.GeoConfig(n=np.int64(7), seed=np.int32(2), proxy_k=np.uint8(3))
        assert [type(v) for v in (cfg.n, cfg.seed, cfg.proxy_k)] == [int, int, int]

    def test_sinewave_cycles_must_be_an_integer(self):
        pc = gs.PointCloud(np.array([[1.0, 1.0]]), 10.0)
        with pytest.raises(ValueError, match="^cycles must be an integer"):
            gs.sinewave_signal(pc, 2.7)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
    def test_noise_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be finite and nonnegative"):
            gs.add_noise(np.zeros(3), sigma, np.random.default_rng(0))
