"""The library's input contract: each row is one call that rejects one input, with its exception and message."""

import re

import numpy as np
import pytest

import graphsampling as gs
from graphsampling.errors import DegenerateCellError, DimensionMismatchError, EmptyVertexSetError
from helpers import PATH3_LAP, geometric_instance

PATH3 = gs.Graph(np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]]))
CLOUD = gs.PointCloud(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), 10.0)
BASIS = gs.compute_basis(PATH3_LAP, gs.identity_inner_product(3))
BASIS8 = gs.compute_basis(geometric_instance(seed=18, n=8)[2], gs.identity_inner_product(8))
SMALL = gs.GeoConfig(n=12, seed=21, kernel_sigma=2.0)


# case id: (call, exception class, the whole message)
RULES = {
    # geometry
    "config-no-vertex": (lambda: gs.GeoConfig(n=0), ValueError, "need at least 1 vertex"),
    "config-zero-kernel-sigma": (lambda: gs.GeoConfig(kernel_sigma=0.0), ValueError, "kernel_sigma must be positive"),
    "config-zero-proxy-order": (lambda: gs.GeoConfig(proxy_k=0), ValueError, "proxy_k must be a positive integer"),
    "cloud-outside-square": (
        lambda: gs.PointCloud(np.array([[11.0, 1.0]]), 10.0), ValueError, "positions must lie inside the square"
    ),
    "cloud-three-columns": (
        lambda: gs.PointCloud(np.zeros((3, 3)), 10.0), ValueError, "positions must be a nonempty (n, 2) array"
    ),
    "cloud-empty": (
        lambda: gs.PointCloud(np.zeros((0, 2)), 10.0), ValueError, "positions must be a nonempty (n, 2) array"
    ),
    "kernel-zero-sigma": (lambda: gs.gaussian_kernel_graph(CLOUD, 0.0), ValueError, "sigma must be positive"),
    # the crossing points of site 0's cell round onto its corner: three vertices, area 0.0
    "voronoi-zero-area": (
        lambda: gs.voronoi_areas(gs.PointCloud(np.array([[0.0, 0.0], [1.00489231e-57, 1.00489231e-57]]), 10.0)),
        DegenerateCellError,
        "Voronoi cell of site 0 is degenerate",
    ),
    "sinewave-zero-cycles": (lambda: gs.sinewave_signal(CLOUD, 0), ValueError, "cycles must be a positive integer"),
    # graphs
    "inner-unknown-variant": (
        lambda: gs.InnerProduct("plain", [1.0]), ValueError, "unknown inner product variant: 'plain'"
    ),
    "inner-no-entries": (lambda: gs.InnerProduct("custom", []), ValueError, "entries must be a nonempty vector"),
    "inner-zero-entry": (
        lambda: gs.InnerProduct("custom", [1.0, 0.0]), ValueError, "entries must be finite and strictly positive"
    ),
    # spectral
    "synthesize-short-spectrum": (
        lambda: gs.synthesize(BASIS, np.ones(2)), DimensionMismatchError, "spectrum must have shape (3,)"
    ),
    "split-too-many-modes": (
        lambda: gs.bandlimit_split(BASIS, np.ones(3), 4), ValueError, "modes_kept must lie in [0, 3]"
    ),
    "split-negative-modes": (
        lambda: gs.bandlimit_split(BASIS, np.ones(3), -1), ValueError, "modes_kept must lie in [0, 3]"
    ),
    # sampling
    "selection-unequal-lengths": (
        lambda: gs.SamplingResult([0, 1], [0.1]), ValueError, "order and cutoffs must be 1-d and equally long"
    ),
    "selection-repeated-vertex": (
        lambda: gs.SamplingResult([1, 1], [0.1, 0.2]), ValueError, "selected vertices must be distinct"
    ),
    "e-opt-fewer-samples-than-band": (
        lambda: gs.e_opt_metric(BASIS8, [0, 1], 3), ValueError, "band must lie in [1, 2], got 3"
    ),
    # reconstruction
    "reconstruct-fewer-values": (
        lambda: gs.consistent_reconstruct(BASIS, [0, 1], [1.0]),
        DimensionMismatchError,
        "sampled vertices and values must be equally long vectors",
    ),
    "reconstruct-no-samples": (
        lambda: gs.consistent_reconstruct(BASIS, [], []), EmptyVertexSetError, "at least one sample is required"
    ),
    "bound-short-signal": (
        lambda: gs.verify_error_bound(BASIS, [0, 1], 1, np.ones(2)),
        DimensionMismatchError,
        "signal must have shape (3,)",
    ),
    # bench
    "variant-unknown": (lambda: gs.inner_for_variant("plain", PATH3, CLOUD), ValueError, "unknown variant: 'plain'"),
    "mse-unknown-method": (
        lambda: gs.run_mse_experiment(SMALL, 1, [0.5], [2], [0.1], method="lsq"),
        ValueError,
        "method must be one of ('closed-form', 'pocs')",
    ),
    "mse-no-signal": (
        lambda: gs.run_mse_experiment(SMALL, 1, [0.5], [], [0.1]),
        ValueError,
        "need at least one signal and one noise level",
    ),
    "mse-no-noise-level": (
        lambda: gs.run_mse_experiment(SMALL, 1, [0.5], [2], []),
        ValueError,
        "need at least one signal and one noise level",
    ),
    # a noise level this close to the largest double draws infinite noise at some vertex
    "mse-noise-overflows": (
        lambda: gs.run_mse_experiment(SMALL, 1, [0.5], [2], [1.7e308]), ValueError, "sample values must be finite"
    ),
    # finite noisy samples whose squares overflow
    "mse-noise-norm-overflows": (
        lambda: gs.run_mse_experiment(SMALL, 1, [0.5], [2], [1e308]),
        ValueError,
        "noisy samples must have a finite norm in every inner product",
    ),
}


@pytest.mark.parametrize("case", list(RULES))
def test_rejects(case):
    call, error, message = RULES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
