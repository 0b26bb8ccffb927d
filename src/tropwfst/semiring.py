"""Min-plus / max-plus matrix algebra on dense float64 arrays, and the
min-plus matrix-vector product over sparse arc arrays.

Matrices and vectors are plain numpy arrays over the extended reals.
+inf is the null element of the min-plus semiring, -inf that of max-plus.
A sum of the form inf + (-inf) cannot arise from valid inputs and is
reported as an error rather than silently propagated as NaN.
"""

import math

import numpy as np

from .errors import NegativeCycleError
from .textio import format_weight

INF = float("inf")

# The one tolerance for comparing two costs: relative to the larger
# magnitude, absolute below 1 (the ApproxEqual/kDelta policy of OpenFst).
# Float round-off in the closed forms stays far below it.
TOL = 1e-9


def approx_equal(a: float, b: float) -> bool:
    """a and b agree up to TOL; infinite values must match exactly."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def as_trop(values) -> np.ndarray:
    """Coerce to a float64 array and reject NaN entries."""
    a = np.asarray(values, dtype=np.float64)
    if np.isnan(a).any():
        raise ValueError("NaN is not a valid tropical weight")
    return a


def trop_eye(n: int) -> np.ndarray:
    """Min-plus identity: 0 on the diagonal, +inf elsewhere."""
    m = np.full((n, n), INF)
    np.fill_diagonal(m, 0.0)
    return m


def trop_zeros(shape) -> np.ndarray:
    """Min-plus null matrix (all entries +inf)."""
    return np.full(shape, INF)


def _product(a: np.ndarray, b: np.ndarray, reduce) -> np.ndarray:
    """out[:, j] = reduce over k of a[:, k] + b[k, j], one column of b at a
    time, so the temporary is a.shape, not a.shape + b.shape[1:]."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("expected 2-d matrices")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    out = np.empty((a.shape[0], b.shape[1]))
    for j in range(b.shape[1]):
        with np.errstate(invalid="ignore"):
            sums = a + b[:, j]
        if np.isnan(sums).any():
            raise ValueError("inf + (-inf) encountered in tropical product")
        out[:, j] = reduce(sums, axis=1)
    return out


def minplus_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus matrix product: out[i, j] = min_k a[i, k] + b[k, j]."""
    return _product(a, b, np.min)


def maxplus_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-plus matrix product: out[i, j] = max_k a[i, k] + b[k, j]."""
    return _product(a, b, np.max)


_NO_KEY = np.iinfo(np.int64).max  # above every key an arc_matrix holds


def arc_matrix(rows, cols, w, keys=None) -> tuple:
    """A sparse min-plus matrix, w[k] at (rows[k], cols[k]) and +inf
    elsewhere, as (rows, cols, w, starts, keys): the arcs sorted by row,
    starts[i] the first arc of the i-th row that has any. w is finite;
    keys, if given, are what minplus_matvec reports as its arg."""
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return (rows, cols[order], as_trop(w)[order], starts,
            keys if keys is None else keys[order])


def minplus_matvec(arcs: tuple, v: np.ndarray,
                   n_rows=None) -> tuple[np.ndarray, np.ndarray]:
    """y = M (x) v for an arc_matrix M of n_rows rows (default len(v)) and
    a vector or matrix v: y[r] = min over the arcs of row r of w + v[col],
    +inf for a row with none; arg[r] the smallest key attaining a finite
    y[r], else -1 (None without keys). One np.minimum.reduceat, O(arcs) per
    column of v. A matrix v goes in blocks of columns whose (arcs x block)
    temporaries hold about v.size entries, so memory beyond y is O(v.size)."""
    y = np.empty((len(v) if n_rows is None else n_rows, *v.shape[1:]))
    arg = None if arcs[4] is None else np.full(y.shape, -1)
    if v.ndim == 1:
        _matvec_into(arcs, v, y, arg)
        return y, arg
    rows, cols, w, starts, keys = arcs  # w and keys broadcast over columns
    arcs = (rows, cols, w[:, None], starts,
            None if keys is None else keys[:, None])
    step = max(1, v.size // max(1, len(rows)))
    for j in range(0, v.shape[1], step):
        b = np.s_[:, j:j + step]
        _matvec_into(arcs, v[b], y[b], None if arg is None else arg[b])
    return y, arg


def _matvec_into(arcs: tuple, v: np.ndarray, y: np.ndarray, arg) -> None:
    """minplus_matvec of a vector or a block of columns, written into y
    and the -1-filled arg (or None). When every row has an arc one reduceat
    writes all of y in place; otherwise y is +inf-filled first."""
    rows, cols, w, starts, keys = arcs
    if starts.size < y.shape[0]:  # some row has no arc
        y.fill(INF)
    if starts.size:
        sums = w + v[cols]
        if starts.size == y.shape[0]:  # every row has an arc: no scatter
            np.minimum.reduceat(sums, starts, out=y)
        else:
            y[rows[starts]] = np.minimum.reduceat(sums, starts)
        if arg is not None:
            arg[rows[starts]] = np.minimum.reduceat(
                np.where(sums == y[rows], keys, _NO_KEY), starts)
            arg[y == INF] = -1


def pointwise_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise minimum of two equally shaped matrices."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.minimum(a, b)


def gamma(a: np.ndarray) -> np.ndarray:
    """All-pairs shortest nonempty-path matrix: min of the powers a^1 .. a^n.

    Computed as n in-place Floyd-Warshall pivots, c = min(c, c[:, k] + c[k]),
    in O(n^3) time and O(n^2) memory. A negative diagonal entry witnesses a
    negative-weight cycle: NegativeCycleError, checked after every pivot.
    """
    c = np.array(a, float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("matrix must be square")
    if (np.diagonal(c) < 0).any():
        raise NegativeCycleError("negative-weight cycle detected")
    for k in range(c.shape[0]):
        with np.errstate(invalid="ignore"):
            via = c[:, k, None] + c[k]
        if np.isnan(via).any():
            raise ValueError("inf + (-inf) encountered in tropical closure")
        np.minimum(c, via, out=c)
        if (np.diagonal(c) < 0).any():
            raise NegativeCycleError("negative-weight cycle detected")
    return c


def delta(a: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure: identity min gamma(a)."""
    return pointwise_min(trop_eye(np.asarray(a).shape[0]), gamma(a))


def cg_conjugate(x: np.ndarray) -> np.ndarray:
    """Cuninghame-Green conjugate: negated transpose (+inf maps to -inf)."""
    return -np.asarray(x, float).T


def format_matrix(a: np.ndarray) -> str:
    """Debug text form: 'rows cols' header, then space-separated rows."""
    a = np.atleast_2d(np.asarray(a, float))
    lines = [" ".join(map(format_weight, row)) for row in a]
    return "\n".join([f"{a.shape[0]} {a.shape[1]}", *lines]) + "\n"

