"""Graph construction, inner products, and vertex-set plumbing."""

import base64
import json
import struct

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

    @pytest.mark.parametrize(
        "w, match", [(np.zeros((2, 3)), "must be square"), (np.zeros((0, 0)), "at least one vertex")],
        ids=["non-square", "empty"],
    )
    def test_rejects_bad_shape(self, w, match):
        with pytest.raises(ValueError, match=match):
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

    @pytest.mark.parametrize("n", [2.7, True])
    def test_identity_rejects_non_integer_size(self, n):
        with pytest.raises(ValueError, match="vertex count n must be an integer"):
            gs.identity_inner_product(n)

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

    @pytest.mark.parametrize(
        "ids, match", [([[0, 1]], "one-dimensional"), ([0.0, 1.0], "must be integers")], ids=["2-d", "float"]
    )
    def test_ids_must_be_an_integer_vector(self, ids, match):
        with pytest.raises(ValueError, match=match):
            gs.vertex_set(ids, 4)

    def test_complement(self):
        np.testing.assert_array_equal(gs.complement([0, 3], 5), [1, 2, 4])
        np.testing.assert_array_equal(gs.complement([], 3), [0, 1, 2])


def graph_doc(n, upper) -> dict:
    """A graph.json document written by hand: ``n`` and the upper-triangle weights, little-endian float64 in base64."""
    return {"n": n, "upper_f8le": base64.b64encode(np.asarray(upper, dtype="<f8").tobytes()).decode("ascii")}


@st.composite
def symmetric_weights(draw):
    """Weight matrices on 1 to 6 vertices, with zero, negative-zero, subnormal and huge weights among them."""
    n = draw(st.integers(1, 6))
    weight = st.floats(0.0, 1.7e308) | st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1.0])
    upper = draw(st.lists(weight, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    rows, cols = np.triu_indices(n, 1)
    w = np.zeros((n, n))
    w[rows, cols] = w[cols, rows] = upper
    return w


class TestGraphJson:
    def test_loader_symmetrizes(self):
        g = gs.graph_from_json(graph_doc(3, [0.0, 0.5, 0.0]))
        assert g.weights[0, 2] == g.weights[2, 0] == 0.5

    def test_payload_is_the_upper_triangle_row_by_row(self):
        w = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        doc = gs.graph_to_json(gs.Graph(w))
        assert doc == {"n": 3, "upper_f8le": base64.b64encode(struct.pack("<3d", 1.0, 2.0, 3.0)).decode("ascii")}

    @given(symmetric_weights())
    def test_round_trip_is_bit_exact(self, w):
        g = gs.Graph(w)
        again = gs.graph_from_json(json.loads(json.dumps(gs.graph_to_json(g))))
        np.testing.assert_array_equal(again.weights, g.weights)
        # assert_array_equal takes -0.0 for 0.0: compare the bits too
        assert again.weights.tobytes() == g.weights.tobytes()

    @pytest.mark.parametrize(
        "doc, error, match",
        [
            ({"upper_f8le": ""}, KeyError, "n"),
            ({"n": 3}, KeyError, "upper_f8le"),
            ({"n": True, "upper_f8le": ""}, ValueError, "positive integer"),
            ({"n": 3.0, "upper_f8le": graph_doc(3, [1.0, 1.0, 1.0])["upper_f8le"]}, ValueError, "positive integer"),
            ({"n": 0, "upper_f8le": ""}, ValueError, "positive integer"),
            ({"n": -2, "upper_f8le": ""}, ValueError, "positive integer"),
            ({"n": 2, "upper_f8le": [1.0]}, ValueError, "base64 string"),
            ({"n": 2, "upper_f8le": "not base64!"}, ValueError, "not base64 .Only base64 data"),
            ({"n": 2, "upper_f8le": "AAAAAAAAAAA"}, ValueError, "not base64 .Incorrect padding"),
            ({"n": 2, "upper_f8le": "\u00e9"}, ValueError, "not base64 .* ASCII"),
            (graph_doc(3, [1.0, 1.0]), ValueError, "holds 16 bytes, but n = . needs"),
            (graph_doc(2, [1.0, 1.0]), ValueError, "holds 16 bytes, but n = . needs"),
            (graph_doc(3, [1.0, np.nan, 1.0]), ValueError, "finite"),
            (graph_doc(3, [1.0, -1.0, 1.0]), ValueError, "nonnegative"),
        ],
        ids=[
            "no-n", "no-payload", "boolean-n", "float-n", "zero-n", "negative-n", "payload-list", "not-base64",
            "unpadded", "non-ascii", "short", "long", "nan-weight", "negative-weight",
        ],
    )
    def test_bad_document_rejected(self, doc, error, match):
        with pytest.raises(error, match=match):
            gs.graph_from_json(doc)
