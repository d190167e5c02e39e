"""Fourier basis computation, transforms, and bandlimited splits."""

import numpy as np
import pytest

import graphsampling as gs
from graphsampling.errors import DimensionMismatchError, NotFiniteError
from helpers import all_inners, geometric_instance, random_weights

PATH3_LAP = np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_three_vertex_path_frequencies():
    basis = gs.compute_basis(PATH3_LAP, gs.identity_inner_product(3))
    np.testing.assert_allclose(basis.frequencies, [0.0, 1.0, 3.0], atol=1e-9)


def test_constant_mode_for_connected_graph():
    _, g, lap = geometric_instance(seed=0, n=10)
    basis = gs.compute_basis(lap, gs.degree_matrix(g))
    assert basis.frequencies[0] <= 1e-10
    u0 = basis.modes[:, 0]
    assert np.abs(u0 - u0[0]).max() <= 1e-8 * abs(u0[0])


def test_orthonormality_with_voronoi_weights():
    pc, g, lap = geometric_instance(seed=2, n=8)
    inner = gs.voronoi_areas(pc)
    basis = gs.compute_basis(lap, inner)
    gram = basis.modes.T @ (inner.entries[:, None] * basis.modes)
    assert np.abs(gram - np.eye(8)).max() <= 1e-10


def test_generalized_eigen_residual(rng):
    w = random_weights(rng, 9)
    lap = gs.combinatorial_laplacian(gs.Graph(w))
    inner = gs.InnerProduct("custom", rng.uniform(0.2, 4.0, 9))
    basis = gs.compute_basis(lap, inner)
    norm = np.linalg.norm(lap, "fro")
    for l in range(9):
        residual = lap @ basis.modes[:, l] - basis.frequencies[l] * inner.entries * basis.modes[:, l]
        assert np.linalg.norm(residual) <= 1e-8 * norm


def test_identity_inner_product_matches_plain_eigh(rng):
    w = random_weights(rng, 10)
    lap = gs.combinatorial_laplacian(gs.Graph(w))
    basis = gs.compute_basis(lap, gs.identity_inner_product(10))
    plain = np.linalg.eigvalsh(lap)
    np.testing.assert_allclose(basis.frequencies, np.maximum(plain, 0.0), atol=1e-9)


def test_frequencies_are_rayleigh_quotients(rng):
    pc, g, lap = geometric_instance(seed=4, n=9)
    for inner in all_inners(g, pc).values():
        basis = gs.compute_basis(lap, inner)
        for l in range(9):
            u = basis.modes[:, l]
            assert abs(basis.frequencies[l] - u @ lap @ u) <= 1e-9


def test_sign_convention_deterministic():
    _, g, lap = geometric_instance(seed=5, n=8)
    inner = gs.degree_matrix(g)
    a = gs.compute_basis(lap, inner)
    b = gs.compute_basis(lap, inner)
    np.testing.assert_array_equal(a.modes, b.modes)
    lead = np.argmax(np.abs(a.modes) > 1e-12, axis=0)
    assert (a.modes[lead, np.arange(8)] > 0).all()


def test_non_finite_input_rejected():
    bad = PATH3_LAP.copy()
    bad[0, 0] = np.nan
    bad[0, 1] = np.nan  # keep it symmetric-shaped nonsense
    with pytest.raises(NotFiniteError):
        gs.compute_basis(bad, gs.identity_inner_product(3))


class TestTransforms:
    @pytest.fixture
    def basis(self):
        pc, g, lap = geometric_instance(seed=6, n=10)
        return gs.compute_basis(lap, gs.voronoi_areas(pc))

    def test_mode_analyzes_to_canonical_spectrum(self, basis):
        coeffs = gs.analyze(basis, basis.modes[:, 3])
        expected = np.zeros(10)
        expected[3] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-9)

    def test_zero_signal(self, basis):
        np.testing.assert_array_equal(gs.analyze(basis, np.zeros(10)), np.zeros(10))

    def test_round_trip(self, basis, rng):
        for _ in range(20):
            x = rng.standard_normal(10)
            back = gs.synthesize(basis, gs.analyze(basis, x))
            assert np.abs(back - x).max() <= 1e-10

    def test_synthesize_first_mode(self, basis):
        e0 = np.zeros(10)
        e0[0] = 1.0
        np.testing.assert_allclose(gs.synthesize(basis, e0), basis.modes[:, 0], atol=1e-14)

    def test_parseval(self, basis, rng):
        for _ in range(100):
            x = rng.standard_normal(10)
            coeffs = gs.analyze(basis, x)
            assert abs(gs.q_norm(x, basis.inner) - np.linalg.norm(coeffs)) <= 1e-10

    def test_dimension_mismatch(self, basis):
        with pytest.raises(DimensionMismatchError):
            gs.analyze(basis, np.zeros(11))


class TestBandlimitSplit:
    @pytest.fixture
    def basis(self):
        pc, g, lap = geometric_instance(seed=7, n=12)
        return gs.compute_basis(lap, gs.degree_matrix(g))

    def test_keep_all(self, basis, rng):
        x = rng.standard_normal(12)
        low, high = gs.bandlimit_split(basis, x, 12)
        np.testing.assert_allclose(low, x, atol=1e-10)
        np.testing.assert_allclose(high, 0.0, atol=1e-10)

    def test_keep_none(self, basis, rng):
        x = rng.standard_normal(12)
        low, high = gs.bandlimit_split(basis, x, 0)
        np.testing.assert_array_equal(low, np.zeros(12))
        np.testing.assert_allclose(high, x, atol=1e-14)

    @pytest.mark.parametrize("modes_kept", [1.5, True])
    def test_non_integer_count_rejected(self, basis, modes_kept):
        with pytest.raises(ValueError, match="modes_kept must be an integer"):
            gs.bandlimit_split(basis, np.ones(12), modes_kept)

    def test_parts_are_orthogonal(self, basis, rng):
        for _ in range(10):
            x = rng.standard_normal(12)
            low, high = gs.bandlimit_split(basis, x, 6)
            np.testing.assert_allclose(low + high, x, atol=1e-12)
            assert abs(gs.q_inner(low, high, basis.inner)) <= 1e-10

    def test_synthesized_low_band_is_bandlimited(self, basis, rng):
        coeffs = np.zeros(12)
        coeffs[:4] = rng.standard_normal(4)
        x = gs.synthesize(basis, coeffs)
        assert np.abs(gs.analyze(basis, x)[4:]).max() <= 1e-9 * np.linalg.norm(coeffs)

    def test_split_then_check(self, basis, rng):
        x = rng.standard_normal(12)
        low, _ = gs.bandlimit_split(basis, x, 5)
        coeffs = gs.analyze(basis, low)
        assert np.abs(coeffs[5:]).max() <= 1e-9 * np.linalg.norm(coeffs)


@pytest.mark.parametrize(
    "n, seed, stream",
    [(15, s, s) for s in range(4)]
    # the bound driver's first realization, where 100 power steps once estimated 1.3947 against an exact 1.4071
    + [(100, 10000009, [10000009, 0])]
    + [(400, s, s) for s in range(3)],
    ids=[f"n15-seed{s}" for s in range(4)] + ["bound-driver"] + [f"n400-seed{s}" for s in range(3)],
)
def test_lambda_max_is_the_inflated_top_frequency(n, seed, stream):
    pc, g, lap = gs.build_instance(gs.GeoConfig(n=n, seed=seed), np.random.default_rng(stream))
    for inner in all_inners(g, pc).values():
        expected = 1.01 * gs.compute_basis(lap, inner).frequencies[-1]
        assert abs(gs.estimate_lambda_max(lap, inner) - expected) <= 1e-12 * expected


def test_lambda_max_of_the_path_and_of_the_zero_operator():
    inner = gs.identity_inner_product(3)
    assert gs.estimate_lambda_max(PATH3_LAP, inner) == pytest.approx(1.01 * 3.0, rel=1e-12)
    assert gs.estimate_lambda_max(np.zeros((3, 3)), inner) == 0.0


def test_lambda_max_rejects_what_compute_basis_rejects():
    bad = PATH3_LAP.copy()
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.raises(NotFiniteError):
        gs.estimate_lambda_max(bad, gs.identity_inner_product(3))
    with pytest.raises(DimensionMismatchError):
        gs.estimate_lambda_max(PATH3_LAP, gs.identity_inner_product(4))
