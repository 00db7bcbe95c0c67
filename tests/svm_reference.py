"""Two earlier SMO solvers, kept verbatim as differential oracles.

`fit_svm` is the solver `anchorlex.linear` shipped before it moved to
flat CSR arrays: a row CSR plus a dict of per-column arrays, with `f`
updated incrementally column by column. `FitResult` is that solver's
result type, which had no dual variables and no duality gap.
tests/test_linear.py checks the current solver against it within 1e-9.

`fit_svm_flat` is the flat-CSR solver over cached kernel rows that came
next. It took dict vectors, turned them into CSR itself, and rebuilt
both KKT index sets from all n entries on every pair step. Only its
name and its result type's name are changed; `KERNEL_CACHE_BYTES` is its
own copy of the row budget. The current solver must return the same
`FitResult` as it, bit for bit. `csr` turns the tests' dict vectors into
the rows the current solver takes.

One line of both changed with the solver's: the squared norm of w is
`math.fsum` of its squares, no longer the BLAS dot `w @ w`, whose
rounding followed the kernel OpenBLAS picked for the CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from anchorlex.linear import FitResult as FlatFitResult

_EPS = 1e-12

# Byte budget of the kernel-row block in fit_svm_flat
KERNEL_CACHE_BYTES = 64 << 20


def csr(vectors: Sequence[Mapping[int, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, cols, vals) of dict vectors, each row's columns ascending."""
    indptr = np.cumsum([0] + [len(vec) for vec in vectors])
    cols = np.array([k for vec in vectors for k in sorted(vec)], np.int64)
    vals = np.array([vec[k] for vec in vectors for k in sorted(vec)], np.float64)
    return indptr, cols, vals


@dataclass(frozen=True)
class FitResult:
    weights: np.ndarray
    bias: float
    objective: float
    objective_trace: tuple[float, ...]
    n_epochs: int
    converged: bool


class _Csr:
    """Minimal CSR + per-column index, enough for SMO bookkeeping."""

    def __init__(self, vectors: Sequence[Mapping[int, float]], n_features: int):
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for vec in vectors:
            for k in sorted(vec):
                if k < 0 or k >= n_features:
                    raise ValueError(f"feature index {k} out of range [0, {n_features})")
                indices.append(k)
                data.append(vec[k])
            indptr.append(len(indices))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        cols: dict[int, tuple[list[int], list[float]]] = {}
        for row in range(len(vectors)):
            for p in range(self.indptr[row], self.indptr[row + 1]):
                rows, vals = cols.setdefault(int(self.indices[p]), ([], []))
                rows.append(row)
                vals.append(float(self.data[p]))
        self.columns = {
            k: (np.asarray(r, dtype=np.int64), np.asarray(v, dtype=np.float64))
            for k, (r, v) in cols.items()
        }

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        a, b = self.indptr[i], self.indptr[i + 1]
        return self.indices[a:b], self.data[a:b]

    def dot_rows(self, i: int, j: int) -> float:
        ki, vi = self.row(i)
        kj, vj = self.row(j)
        out, a, b = 0.0, 0, 0
        while a < len(ki) and b < len(kj):
            if ki[a] == kj[b]:
                out += vi[a] * vj[b]
                a += 1
                b += 1
            elif ki[a] < kj[b]:
                a += 1
            else:
                b += 1
        return out


def _primal(w: np.ndarray, b: float, f: np.ndarray, y: np.ndarray, C: float) -> float:
    margins = y * (f + b)
    return 0.5 * math.fsum((w * w).tolist()) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def fit_svm(
    vectors: Sequence[Mapping[int, float]],
    y: Sequence[int],
    n_features: int,
    C: float = 1.0,
    seed: int = 0,
    max_epochs: int = 1000,
    rel_tol: float = 1e-6,
    kkt_tol: float = 1e-9,
) -> FitResult:
    """Train on sparse vectors with labels in {0, 1} or {-1, +1}.

    The algorithm is deterministic (ties in pair selection break by
    index); seed is accepted for interface parity and recorded upstream.
    """
    del seed  # deterministic regardless; kept in the signature on purpose
    n = len(vectors)
    if n == 0:
        raise ValueError("no training vectors")
    if len(y) != n:
        raise ValueError("labels and vectors disagree in length")
    yv = np.asarray([1.0 if v in (1, 1.0, True) else -1.0 for v in y])
    if not (np.any(yv > 0) and np.any(yv < 0)):
        raise ValueError("training data must contain both classes")
    if C <= 0:
        raise ValueError("C must be positive")

    X = _Csr(vectors, n_features)
    alpha = np.zeros(n)
    w = np.zeros(n_features)
    f = np.zeros(n)  # f_i = w . x_i
    k_diag = np.array([X.dot_rows(i, i) for i in range(n)])

    def bias_estimate() -> float:
        v = yv - f
        up = ((yv > 0) & (alpha < C - _EPS)) | ((yv < 0) & (alpha > _EPS))
        low = ((yv < 0) & (alpha < C - _EPS)) | ((yv > 0) & (alpha > _EPS))
        hi = v[up].max() if up.any() else 0.0
        lo = v[low].min() if low.any() else 0.0
        return float((hi + lo) / 2.0)

    best_w = w.copy()
    best_b = bias_estimate()
    best_p = _primal(w, best_b, f, yv, C)
    trace: list[float] = []
    prev_p = best_p
    converged = False
    stalled = False
    epochs_run = 0

    for _ in range(max_epochs):
        epochs_run += 1
        for _ in range(n):
            v = yv - f
            up = ((yv > 0) & (alpha < C - _EPS)) | ((yv < 0) & (alpha > _EPS))
            low = ((yv < 0) & (alpha < C - _EPS)) | ((yv > 0) & (alpha > _EPS))
            if not up.any() or not low.any():
                converged = True
                break
            m = np.where(up, v, -np.inf)
            mm = np.where(low, v, np.inf)
            i = int(np.argmax(m))
            j = int(np.argmin(mm))
            if m[i] - mm[j] < kkt_tol:
                converged = True
                break
            s = yv[i] * yv[j]
            if s < 0:
                L = max(0.0, alpha[j] - alpha[i])
                H = min(C, C + alpha[j] - alpha[i])
            else:
                L = max(0.0, alpha[i] + alpha[j] - C)
                H = min(C, alpha[i] + alpha[j])
            eta = k_diag[i] + k_diag[j] - 2.0 * X.dot_rows(i, j)
            if eta < _EPS:
                eta = _EPS
            e_i = f[i] - yv[i]
            e_j = f[j] - yv[j]
            aj_new = min(H, max(L, alpha[j] + yv[j] * (e_i - e_j) / eta))
            d_aj = aj_new - alpha[j]
            if abs(d_aj) < 1e-16:
                stalled = True
                break
            d_ai = -s * d_aj
            alpha[i] += d_ai
            alpha[j] += d_aj
            for coef, row in ((yv[i] * d_ai, i), (yv[j] * d_aj, j)):
                if coef == 0.0:
                    continue
                ks, vs = X.row(row)
                for p in range(len(ks)):
                    feat = int(ks[p])
                    delta = coef * vs[p]
                    w[feat] += delta
                    rows, vals = X.columns[feat]
                    f[rows] += delta * vals
        b = bias_estimate()
        p = _primal(w, b, f, yv, C)
        if p < best_p:
            best_p = p
            best_w = w.copy()
            best_b = b
        trace.append(best_p)
        if converged or stalled:
            break
        if abs(prev_p - p) / max(1.0, abs(prev_p)) < rel_tol:
            break
        prev_p = p

    return FitResult(
        weights=best_w,
        bias=best_b,
        objective=best_p,
        objective_trace=tuple(trace),
        n_epochs=epochs_run,
        converged=converged,
    )


def fit_svm_flat(
    vectors: Sequence[Mapping[int, float]],
    y: Sequence[int],
    n_features: int,
    C: float = 1.0,
    max_epochs: int = 1000,
    rel_tol: float = 1e-6,
    kkt_tol: float = 1e-9,
) -> FlatFitResult:
    """Train on sparse vectors with labels in {0, 1} or {-1, +1}.

    The algorithm is deterministic: ties in pair selection break by index.
    """
    n = len(vectors)
    if n == 0:
        raise ValueError("no training vectors")
    if len(y) != n:
        raise ValueError("labels and vectors disagree in length")
    yv = np.asarray([1.0 if v in (1, 1.0, True) else -1.0 for v in y])
    if not (np.any(yv > 0) and np.any(yv < 0)):
        raise ValueError("training data must contain both classes")
    if C <= 0:
        raise ValueError("C must be positive")

    # X as CSR: row i holds cols[indptr[i]:indptr[i+1]], ascending, and vals
    indptr = np.cumsum([0] + [len(vec) for vec in vectors])
    cols = np.fromiter((k for vec in vectors for k in sorted(vec)), np.int64, indptr[-1])
    vals = np.fromiter((vec[k] for vec in vectors for k in sorted(vec)), np.float64, indptr[-1])
    bad = (cols < 0) | (cols >= n_features)
    if bad.any():
        raise ValueError(f"feature index {cols[bad][0]} out of range [0, {n_features})")
    cols = cols.astype(np.int32)
    # X by column: column k holds rows c_rows[c_ptr[k]:c_ptr[k+1]], ascending
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    k_diag = np.bincount(rows, weights=vals**2, minlength=n)
    order = np.argsort(cols, kind="stable")
    c_rows, c_vals = rows[order], vals[order]
    del rows, order
    c_ptr = np.zeros(n_features + 1, np.int64)
    np.cumsum(np.bincount(cols, minlength=n_features), out=c_ptr[1:])

    # Kept rows fill `block` in the order they are first needed; slot[i] is
    # the block row holding K_i, or -1. Untouched pages of the zero-filled
    # block are never made resident.
    block = np.zeros((min(n, KERNEL_CACHE_BYTES // (8 * n)), n))
    slot = np.full(n, -1)
    n_kept = 0

    def kernel_row(i: int) -> np.ndarray:
        nonlocal n_kept
        if slot[i] >= 0:
            return block[slot[i]]
        ri = slice(indptr[i], indptr[i + 1])
        starts = c_ptr[cols[ri]]
        lens = c_ptr[cols[ri] + 1] - starts
        # positions in the column copy of every nonzero in x_i's columns
        at = np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)
        row = np.bincount(c_rows[at], weights=c_vals[at] * np.repeat(vals[ri], lens), minlength=n)
        if n_kept < len(block):
            block[n_kept] = row
            slot[i] = n_kept
            n_kept += 1
        return row

    alpha = np.zeros(n)
    w = np.zeros(n_features)
    f = np.zeros(n)  # f_i = w . x_i

    def bias_estimate() -> float:
        v = yv - f
        up = ((yv > 0) & (alpha < C - _EPS)) | ((yv < 0) & (alpha > _EPS))
        low = ((yv < 0) & (alpha < C - _EPS)) | ((yv > 0) & (alpha > _EPS))
        hi = v[up].max() if up.any() else 0.0
        lo = v[low].min() if low.any() else 0.0
        return float((hi + lo) / 2.0)

    best_w = w.copy()
    best_b = bias_estimate()
    best_p = _primal(w, best_b, f, yv, C)
    trace: list[float] = []
    prev_p = best_p
    converged = False
    stalled = False
    epochs_run = 0

    for _ in range(max_epochs):
        epochs_run += 1
        for _ in range(n):
            v = yv - f
            up = ((yv > 0) & (alpha < C - _EPS)) | ((yv < 0) & (alpha > _EPS))
            low = ((yv < 0) & (alpha < C - _EPS)) | ((yv > 0) & (alpha > _EPS))
            if not up.any() or not low.any():
                converged = True
                break
            m = np.where(up, v, -np.inf)
            mm = np.where(low, v, np.inf)
            i = int(np.argmax(m))
            j = int(np.argmin(mm))
            if m[i] - mm[j] < kkt_tol:
                converged = True
                break
            s = yv[i] * yv[j]
            if s < 0:
                L = max(0.0, alpha[j] - alpha[i])
                H = min(C, C + alpha[j] - alpha[i])
            else:
                L = max(0.0, alpha[i] + alpha[j] - C)
                H = min(C, alpha[i] + alpha[j])
            k_i = kernel_row(i)
            k_j = kernel_row(j)
            eta = k_diag[i] + k_diag[j] - 2.0 * k_i[j]
            if eta < _EPS:
                eta = _EPS
            e_i = f[i] - yv[i]
            e_j = f[j] - yv[j]
            aj_new = min(H, max(L, alpha[j] + yv[j] * (e_i - e_j) / eta))
            d_aj = aj_new - alpha[j]
            if abs(d_aj) < 1e-16:
                stalled = True
                break
            d_ai = -s * d_aj
            alpha[i] += d_ai
            alpha[j] += d_aj
            ri = slice(indptr[i], indptr[i + 1])
            rj = slice(indptr[j], indptr[j + 1])
            w[cols[ri]] += yv[i] * d_ai * vals[ri]
            w[cols[rj]] += yv[j] * d_aj * vals[rj]
            f += (yv[i] * d_ai) * k_i + (yv[j] * d_aj) * k_j
        b = bias_estimate()
        p = _primal(w, b, f, yv, C)
        if p < best_p:
            best_p = p
            best_w = w.copy()
            best_b = b
        trace.append(best_p)
        if converged or stalled:
            break
        if abs(prev_p - p) / max(1.0, abs(prev_p)) < rel_tol:
            break
        prev_p = p

    # a step moves alpha_i by the clipped move of alpha_j, which can round a
    # bound of the box by an ulp
    np.clip(alpha, 0.0, C, out=alpha)
    return FlatFitResult(
        weights=best_w,
        bias=best_b,
        objective=best_p,
        objective_trace=tuple(trace),
        n_epochs=epochs_run,
        converged=converged,
        alpha=alpha,
        duality_gap=best_p - (float(alpha.sum()) - 0.5 * math.fsum((w * w).tolist())),
    )
