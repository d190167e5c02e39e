"""Graph construction, inner products, and vertex-set plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsampling as gs
from graphsampling.errors import DimensionMismatchError, ZeroDegreeError
from helpers import laplacian_quadratic_oracle, random_weights

PATH3 = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])


class TestGraph:
    def test_rejects_asymmetric(self):
        w = np.array([[0.0, 1], [2, 0]])
        with pytest.raises(ValueError, match="symmetric"):
            gs.Graph(w)

    def test_rejects_negative_weights(self):
        w = np.array([[0.0, -1], [-1, 0]])
        with pytest.raises(ValueError, match="nonnegative"):
            gs.Graph(w)

    def test_rejects_nonzero_diagonal(self):
        w = np.array([[1.0, 1], [1, 0]])
        with pytest.raises(ValueError, match="diagonal"):
            gs.Graph(w)

    def test_weights_are_immutable(self):
        g = gs.Graph(PATH3)
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0


# every array field of a frozen dataclass, with the constructor arguments of one small instance
_BASIS = (gs.SpectralBasis, {"modes": np.eye(2), "frequencies": [0.0, 1.0], "inner": gs.identity_inner_product(2)})
_SELECTION = (gs.SamplingResult, {"order": [1, 0], "cutoffs": [0.1, 0.2]})
READ_ONLY_FIELDS = {
    "Graph.weights": (gs.Graph, {"weights": PATH3}),
    "InnerProduct.entries": (gs.InnerProduct, {"variant": "custom", "entries": [1.0, 2.0]}),
    "PointCloud.positions": (gs.PointCloud, {"positions": [[1.0, 2.0]], "side": 10.0}),
    "SpectralBasis.modes": _BASIS,
    "SpectralBasis.frequencies": _BASIS,
    "CutoffEstimate.minimizer": (gs.CutoffEstimate, {"omega": 0.5, "minimizer": [1.0, 0.0]}),
    "SamplingResult.order": _SELECTION,
    "SamplingResult.cutoffs": _SELECTION,
    "ReconstructionReport.x_hat": (gs.ReconstructionReport, {"x_hat": [1.0, 2.0], "iters": 0, "residual_s": 0.0}),
}


@pytest.mark.parametrize("name", list(READ_ONLY_FIELDS))
def test_array_fields_are_read_only_copies(name):
    cls, kwargs = READ_ONLY_FIELDS[name]
    field = name.split(".")[1]
    source = np.array(kwargs[field])
    value = getattr(cls(**{**kwargs, field: source}), field)
    assert not np.shares_memory(value, source)
    with pytest.raises(ValueError, match="read-only"):
        value[(0,) * value.ndim] = 1


class TestLaplacian:
    def test_three_vertex_path(self):
        lap = gs.combinatorial_laplacian(gs.Graph(PATH3))
        expected = np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])
        np.testing.assert_array_equal(lap, expected)

    def test_rows_sum_to_zero(self, rng):
        g = gs.Graph(random_weights(rng, 9))
        lap = gs.combinatorial_laplacian(g)
        np.testing.assert_allclose(lap @ np.ones(9), 0.0, atol=1e-12)

    def test_quadratic_form_matches_double_sum(self, rng):
        w = random_weights(rng, 6)
        lap = gs.combinatorial_laplacian(gs.Graph(w))
        for _ in range(100):
            x = rng.standard_normal(6)
            expected = laplacian_quadratic_oracle(w, x)
            assert abs(x @ lap @ x - expected) <= 1e-10 * max(1.0, expected)

    def test_symmetric_and_psd(self, rng):
        for trial in range(5):
            w = random_weights(rng, 8)
            lap = gs.combinatorial_laplacian(gs.Graph(w))
            assert np.abs(lap - lap.T).max() <= 1e-12
            assert np.linalg.eigvalsh(lap)[0] >= -1e-10


class TestDegreeMatrix:
    def test_path_degrees(self):
        inner = gs.degree_matrix(gs.Graph(PATH3))
        assert inner.variant == "degree"
        np.testing.assert_array_equal(inner.entries, [1.0, 2.0, 1.0])

    def test_complete_graph(self):
        w = np.ones((3, 3)) - np.eye(3)
        inner = gs.degree_matrix(gs.Graph(w))
        np.testing.assert_array_equal(inner.entries, [2.0, 2.0, 2.0])

    def test_isolated_vertex_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(ZeroDegreeError) as err:
            gs.degree_matrix(gs.Graph(w))
        assert err.value.vertex == 2


class TestWeightedInnerProduct:
    def test_identity_is_dot_product(self, rng):
        inner = gs.identity_inner_product(6)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        assert gs.q_inner(x, y, inner) == pytest.approx(float(x @ y), abs=1e-14)

    def test_sqrt_five_norm(self):
        inner = gs.InnerProduct("custom", [2.0, 3.0])
        assert gs.q_norm([1.0, 1.0], inner) == pytest.approx(np.sqrt(5.0), abs=1e-14)

    def test_matches_elementwise_sum(self, rng):
        q = rng.uniform(0.1, 3.0, 7)
        inner = gs.InnerProduct("custom", q)
        x, y = rng.standard_normal(7), rng.standard_normal(7)
        oracle = sum(q[i] * y[i] * x[i] for i in range(7))
        assert gs.q_inner(x, y, inner) == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gs.q_inner([1.0, 2.0], [1.0, 2.0, 3.0], gs.identity_inner_product(3))

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1))
    def test_triangle_inequality_and_homogeneity(self, seed):
        r = np.random.default_rng(seed)
        inner = gs.InnerProduct("custom", r.uniform(0.1, 5.0, 5))
        x, y = r.standard_normal(5), r.standard_normal(5)
        a = float(r.standard_normal())
        assert gs.q_norm(x + y, inner) <= gs.q_norm(x, inner) + gs.q_norm(y, inner) + 1e-10
        assert gs.q_norm(a * x, inner) == pytest.approx(abs(a) * gs.q_norm(x, inner), abs=1e-10)

    def test_norm_zero_only_for_zero(self):
        inner = gs.InnerProduct("custom", [2.0, 0.5])
        assert gs.q_norm([0.0, 0.0], inner) == 0.0
        assert gs.q_norm([1e-150, 0.0], inner) > 0.0


class TestVertexSets:
    def test_sorted_and_validated(self):
        np.testing.assert_array_equal(gs.vertex_set([3, 0, 2], 5), [0, 2, 3])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            gs.vertex_set([1, 1], 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            gs.vertex_set([4], 4)

    def test_complement(self):
        np.testing.assert_array_equal(gs.complement([0, 3], 5), [1, 2, 4])
        np.testing.assert_array_equal(gs.complement([], 3), [0, 1, 2])


class TestGraphJson:
    def test_round_trip(self, rng):
        g = gs.Graph(random_weights(rng, 7))
        again = gs.graph_from_json(gs.graph_to_json(g))
        np.testing.assert_array_equal(again.weights, g.weights)

    def test_loader_symmetrizes(self):
        data = {"n": 3, "edges": [[0, 2, 0.5]]}
        g = gs.graph_from_json(data)
        assert g.weights[0, 2] == g.weights[2, 0] == 0.5

    def test_bad_edge_order_rejected(self):
        with pytest.raises(ValueError):
            gs.graph_from_json({"n": 3, "edges": [[2, 0, 1.0]]})

    @pytest.mark.parametrize(
        "data",
        [{"n": 3, "edges": [[0, 2.7, 1.0]]}, {"n": 3, "edges": [[0.5, 2, 1.0]]}, {"n": 3.5, "edges": []}],
        ids=["fractional-j", "fractional-i", "fractional-n"],
    )
    def test_fractional_ids_rejected(self, data):
        # int() would truncate: the edge [0, 2.7, w] would load as the edge (0, 2)
        with pytest.raises(ValueError, match="must be integers"):
            gs.graph_from_json(data)

    def test_repeated_edge_rejected(self):
        with pytest.raises(ValueError, match="more than once"):
            gs.graph_from_json({"n": 3, "edges": [[0, 2, 1.0], [1, 2, 1.0], [0, 2, 0.5]]})

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(4, 5), st.floats(0.01, 10.0)),
            max_size=8,
            unique_by=lambda e: (e[0], e[1]),
        )
    )
    def test_round_trip_arbitrary_edge_lists(self, edges):
        data = {"n": 6, "edges": [[i, j, w] for i, j, w in edges]}
        g = gs.graph_from_json(data)
        again = gs.graph_from_json(gs.graph_to_json(g))
        np.testing.assert_array_equal(again.weights, g.weights)
