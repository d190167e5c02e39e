"""Graphs, variation operators, and diagonal inner products on vertex signals."""

from __future__ import annotations

import base64
import operator
from dataclasses import dataclass

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


def _symmetric(m: np.ndarray, rtol: float, name: str) -> np.ndarray:
    """``|m - m^T|`` after checking that no entry exceeds ``rtol * max(1, max |m|)``, else a ``ValueError`` naming ``name``.

    ``m`` must be finite. The difference is formed in one array, which is
    returned for the caller to reuse as a buffer.
    """
    scale = max(1.0, abs(float(m.max())), abs(float(m.min())))
    diff = np.subtract(m, m.T)
    np.abs(diff, out=diff)
    if float(diff.max()) > rtol * scale:
        raise ValueError(f"{name} matrix must be symmetric")
    return diff


def _integer(value, name: str) -> int:
    """``value`` as an ``int``: a Python or numpy integer but not a bool, else a ``ValueError`` naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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
        _symmetric(w, 1e-12, "weight")
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
    return InnerProduct("identity", np.ones(_integer(n, "vertex count n")))


def combinatorial_laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian ``diag(W 1) - W``.

    Rows sum to zero and the matrix is positive semidefinite for any valid
    graph, so it serves as the variation operator everywhere in this package.
    Formed in one array: ``0.0 - W`` with ``deg - diag(W)`` written on its
    diagonal, the same bits as ``np.diag(deg) - W``.
    """
    w = g.weights
    lap = np.subtract(0.0, w)
    np.fill_diagonal(lap, w.sum(axis=1) - np.diagonal(w))
    return lap


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


def _upper(n: int) -> np.ndarray:
    """Boolean mask of the strict upper triangle; its row-major order is ``np.triu_indices(n, 1)`` order."""
    return np.triu(np.ones((n, n), dtype=bool), 1)


def graph_to_json(g: Graph) -> dict:
    """JSON-friendly dict ``{"n": n, "upper_f8le": "<base64>"}``.

    The payload is the strict upper triangle of the weights, row by row
    (``np.triu_indices(n, 1)`` order), as little-endian float64 bytes in
    base64, so the weights round-trip bit for bit.
    """
    upper = g.weights[_upper(g.n)].astype("<f8", copy=False)
    return {"n": g.n, "upper_f8le": base64.b64encode(upper).decode("ascii")}


def graph_from_json(data: dict) -> Graph:
    """Rebuild a graph from the dict of ``graph_to_json``, mirroring the upper triangle.

    A size that is not a positive integer, a payload that is not a base64
    string, or one whose byte count does not match the size is rejected.
    """
    n, payload = data["n"], data["upper_f8le"]
    # a bool is an int to Python, and int() would truncate a fractional size
    if type(n) is not int or n < 1:
        raise ValueError(f"graph size n must be a positive integer, got {n!r}")
    if not isinstance(payload, str):
        raise ValueError("upper_f8le must be a base64 string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"upper_f8le is not base64 ({exc})") from None
    if len(raw) != 8 * (n * (n - 1) // 2):
        raise ValueError(f"upper_f8le holds {len(raw)} bytes, but n = {n} needs 8 * n(n-1)/2 = {4 * n * (n - 1)}")
    # row-major order of the mask is triu_indices order, in w and in its transpose
    upper = _upper(n)
    w = np.zeros((n, n))
    # both triangles from the same bits: w + w.T would turn a -0.0 weight into +0.0
    w[upper] = w.T[upper] = np.frombuffer(raw, dtype="<f8")
    del raw, upper  # not held while Graph copies and checks w
    return Graph(w)
