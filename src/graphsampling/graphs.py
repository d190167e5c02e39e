"""Graphs, variation operators, and diagonal inner products on vertex signals."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionMismatchError, ZeroDegreeError

# the inner products of the experiments; ``InnerProduct`` also accepts "custom"
VARIANTS = ("identity", "degree", "voronoi")


def _freeze(obj, name: str, dtype=float) -> np.ndarray:
    """Replace field ``name`` of frozen dataclass ``obj`` by a read-only copy, and return the copy."""
    out = np.array(getattr(obj, name), dtype=dtype)
    out.flags.writeable = False
    object.__setattr__(obj, name, out)
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph stored as a dense weight matrix.

    The matrix must be symmetric with nonnegative entries and a zero
    diagonal. Instances are immutable and safe to share across workers.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = _freeze(self, "weights")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if w.shape[0] < 1:
            raise ValueError("graph needs at least one vertex")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        scale = max(1.0, float(np.abs(w).max()))
        if float(np.abs(w - w.T).max()) > 1e-12 * scale:
            raise ValueError("weight matrix must be symmetric")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        if np.diagonal(w).any():
            raise ValueError("weight matrix must have a zero diagonal")

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class InnerProduct:
    """Diagonal inner product ``<x, y> = sum_i entries[i] * x[i] * y[i]``.

    ``variant`` records how the weights were obtained ("identity", "degree",
    "voronoi", or "custom"). Only diagonal positive-definite matrices are
    supported in the public API; a full Hermitian matrix would slot in as an
    additional variant carrying a factorized matrix instead of ``entries``.
    """

    variant: str
    entries: np.ndarray

    def __post_init__(self):
        if self.variant not in (*VARIANTS, "custom"):
            raise ValueError(f"unknown inner product variant: {self.variant!r}")
        q = _freeze(self, "entries")
        if q.ndim != 1 or q.size < 1:
            raise ValueError("entries must be a nonempty vector")
        if not np.isfinite(q).all() or (q <= 0).any():
            raise ValueError("entries must be finite and strictly positive")

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def identity_inner_product(n: int) -> InnerProduct:
    """The plain dot product on ``n`` vertices."""
    return InnerProduct("identity", np.ones(int(n)))


def combinatorial_laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian ``diag(W 1) - W``.

    Rows sum to zero and the matrix is positive semidefinite for any valid
    graph, so it serves as the variation operator everywhere in this package.
    """
    w = g.weights
    return np.diag(w.sum(axis=1)) - w


def degree_matrix(g: Graph) -> InnerProduct:
    """Diagonal of vertex degrees as an inner product.

    Raises
    ------
    ZeroDegreeError
        If some vertex has zero degree, which would make the matrix singular.
    """
    deg = g.weights.sum(axis=1)
    zero = np.flatnonzero(deg == 0)
    if zero.size:
        raise ZeroDegreeError(int(zero[0]))
    return InnerProduct("degree", deg)


def vertex_set(indices, n: int) -> np.ndarray:
    """Validate vertex ids against ``[0, n)`` and return them sorted."""
    arr = np.asarray(indices)
    if arr.size == 0:
        return np.empty(0, dtype=np.intp)
    if arr.ndim != 1:
        raise ValueError("vertex set must be one-dimensional")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("vertex ids must be integers")
    arr = arr.astype(np.intp)
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(f"vertex id out of range [0, {n})")
    out = np.sort(arr)
    if np.any(out[1:] == out[:-1]):
        raise ValueError("duplicate vertex ids")
    return out


def complement(indices, n: int) -> np.ndarray:
    """Sorted vertices of ``[0, n)`` not contained in ``indices``."""
    keep = np.ones(n, dtype=bool)
    keep[vertex_set(indices, n)] = False
    return np.flatnonzero(keep).astype(np.intp)


def q_inner(x, y, inner: InnerProduct) -> float:
    """Weighted inner product of two real signals."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (inner.n,) or y.shape != (inner.n,):
        raise DimensionMismatchError(
            f"signals must have shape ({inner.n},), got {x.shape} and {y.shape}"
        )
    return float(np.dot(y, inner.entries * x))


def q_norm(x, inner: InnerProduct) -> float:
    """Weighted norm ``sqrt(q_inner(x, x, inner))``; zero only for the zero signal."""
    return float(np.sqrt(q_inner(x, x, inner)))


def graph_to_json(g: Graph) -> dict:
    """JSON-friendly dict ``{"n": ..., "edges": [[i, j, w], ...]}`` with i < j."""
    iu, ju = np.nonzero(np.triu(g.weights, k=1))
    edges = [[int(i), int(j), float(g.weights[i, j])] for i, j in zip(iu, ju)]
    return {"n": g.n, "edges": edges}


def graph_from_json(data: dict) -> Graph:
    """Rebuild a graph from its JSON dict, symmetrizing the listed edges.

    Each edge may be listed once; a repeated ``(i, j)`` pair is rejected
    rather than silently overwriting the earlier weight, and a fractional
    ``n`` or vertex id rather than truncated.
    """
    n, edges = float(data["n"]), data["edges"]
    if any(len(edge) != 3 for edge in edges):
        raise ValueError("edges must be [i, j, weight] triples")
    i, j, vals = np.fromiter(chain.from_iterable(edges), dtype=float, count=3 * len(edges)).reshape(-1, 3).T
    # a NaN or infinite size leaves a NaN remainder, a NaN id fails the comparison,
    # and an infinite id fails the range check below
    if n % 1 or np.any(i != np.floor(i)) or np.any(j != np.floor(j)):
        raise ValueError("graph size and vertex ids must be integers")
    if not np.all((0 <= i) & (i < j) & (j < n)):
        raise ValueError("edges must satisfy 0 <= i < j < n")
    n, rows, cols = int(n), i.astype(np.intp), j.astype(np.intp)
    keys = np.sort(rows * n + cols)
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("an edge is listed more than once")
    w = np.zeros((n, n))
    w[rows, cols] = vals
    return Graph(w + w.T)
