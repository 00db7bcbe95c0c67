"""Linear hinge-loss SVM trained by an exact dual solver.

Objective: (1/2)||w||^2 + C * sum_i hinge(y_i (w.x_i + b)), bias
unregularized. The dual (box-constrained QP with one equality
constraint, from the free bias) is solved SMO-style on maximal
violating pairs. It stops when the largest KKT violation falls below
KKT_TOL, when a pair update stalls, when the primal objective changes
by less than REL_TOL (relative) over an epoch, or after MAX_EPOCHS
epochs. The primal objective is tracked per epoch on the best feasible
iterate, so the reported trace is non-increasing by construction.

A pair step on (i, j) needs the kernel rows K_i = X.x_i and K_j: they
give eta from K_i[j] and move f = X.w by f += y_i da_i K_i + y_j da_j K_j,
so the step costs O(n) once the rows are known. A row is gathered from
a column-sorted copy of X, touching only the nonzeros that share a
column with x_i. Rows are kept in one n-wide block while they fit in
KERNEL_CACHE_BYTES (every row up to about 2,900 training vectors); a
row past the budget is recomputed each time it is needed. f is updated
incrementally, so it can differ from X.w in the last bits; the fit
reports a duality gap, best primal minus the dual at the final alpha,
which bounds the distance of the returned iterate from the optimum.

The pair indices come from the two KKT index sets of Keerthi et al.
("Improvements to Platt's SMO", Neural Computation 2001): I_up holds
the i with y_i = +1 and alpha_i < C or y_i = -1 and alpha_i > 0, I_low
the mirror. A step changes only alpha_i and alpha_j, so the sets are
kept with their sizes and updated at i and j alone. Each is stored as y
with -inf (I_up) or +inf (I_low) outside the set: y_up - f is then the
masked y - f whose argmax picks i, in one subtraction into a buffer
that every step reuses, as is the f update.

A step leaves w alone. It records (row, y * d_alpha) for i and j, and
the records are added to w in step order by one np.add.at at least
every BLOCK_ROWS rows, which bounds their memory, and before each read
of w: the epoch-end objective, the best-iterate copy and the duality
gap. np.add.at adds its terms one at a time in the order given, so each
w[c] takes the same products in the same order as under a per-step
update, and w keeps every bit. The per-step scalars (y, the kernel
diagonal, alpha) are Python floats, on which + - * /, min and max give
the same bits as on numpy scalars.

score_texts is the one read-path scorer, and it scores the strings it
is given: predict_texts normalizes each distinct raw text first, as
train_model does, and explain passes samples cut from normalized text.
It scores each distinct text once, BLOCK_ROWS at a time:
`features.transform` gives the block's tf-idf rows through the space's
gram index, which `load_model` reads from the file, so neither predict
nor explain builds one; w.x is `features.ordered_row_sums` over the
products w[col] * x, by the `features` summation-order rule.
`features.fit_transform` counts the training rows through the same gram
index and weighs them by the same `tfidf_l2`, so the vectors the trainer
sees and the scores predict writes agree bit for bit, and w.x adds in
the same order as the built-in sum over numpy scalars of
`decision_score` in tests/score_reference.py.

Model format 4 stores idf, weights and objective_trace as base64 text of
their `<f8` bytes: exact, and no decimal to parse. Under `index` it
stores the space's gram index (`features.dump_index`), which training
already holds and which spells every gram, so the file holds no
vocabulary: the index is its only record of the columns. load_model
refuses an index that is malformed or does not spell each of idf's
columns once, and weights not aligned to idf. So a file holds exactly
the state load_model gives, and save_model writes it back byte for byte.
On the 9,867-gram model of the perfbench `score` workload the file is
370 KB, not format 3's 604 KB, and load_model takes 2.0 ms, not 5.3 ms
(min of 20, 2 vCPU). v1, v2 and v3 are refused: retrain the model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import LABEL_CLASSES, DatasetSplit, Document, LabelRecord
from .features import (
    BLOCK_ROWS,
    FeatureConfig,
    FeatureSpace,
    b64,
    dump_index,
    fit_transform,
    from_b64,
    load_index,
    ordered_row_sums,
    transform,
)
from .textnorm import normalize
from .util import atomic_write_text

MODEL_FORMAT_VERSION = 4

_EPS = 1e-12

# fit_svm's label values and their signs; bools and numpy ints hash and
# compare as these
_LABEL_SIGN = {1: 1.0, 0: -1.0, -1: -1.0}

# Byte budget of the kernel-row block in fit_svm
KERNEL_CACHE_BYTES = 64 << 20

# fit_svm's stop rules (module docstring)
MAX_EPOCHS, REL_TOL, KKT_TOL = 1000, 1e-6, 1e-9


@dataclass(frozen=True)
class FitResult:
    weights: np.ndarray
    bias: float
    objective: float
    objective_trace: tuple[float, ...]
    n_epochs: int
    converged: bool
    alpha: np.ndarray  # dual variables at the last step
    duality_gap: float  # objective minus the dual objective at alpha


def _primal(w: np.ndarray, b: float, f: np.ndarray, y: np.ndarray, C: float) -> float:
    margins = y * (f + b)
    # fsum, not w @ w, whose BLAS rounding follows the CPU: these bits are saved and pick the epoch
    return 0.5 * math.fsum((w * w).tolist()) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions of the ranges [starts[k], starts[k] + lens[k]), one after another."""
    return np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)


def fit_svm(
    X: tuple[np.ndarray, np.ndarray, np.ndarray],
    y: Sequence[int],
    n_features: int,
    C: float = 1.0,
) -> FitResult:
    """Train on CSR rows X = (indptr, cols, vals) with labels in {0, 1} or {-1, +1}.

    Row i holds cols[indptr[i]:indptr[i + 1]], ascending, and their vals,
    as `features.fit_transform` returns them. I_up and I_low are kept
    across steps, not rebuilt, and w takes the steps' updates a block of
    steps at a time (module docstring). The algorithm is deterministic:
    ties in pair selection break by index.
    """
    indptr = np.asarray(X[0], np.int64)
    n = len(indptr) - 1
    if n <= 0:
        raise ValueError("no training vectors")
    if len(y) != n:
        raise ValueError("labels and vectors disagree in length")
    cols, vals = np.asarray(X[1], np.int64), np.asarray(X[2], np.float64)
    if indptr[0] != 0 or np.any(np.diff(indptr) < 0) or not indptr[-1] == len(cols) == len(vals):
        raise ValueError("indptr does not describe rows of cols and vals")
    ys = [_LABEL_SIGN.get(v) for v in y]
    if None in ys:
        raise ValueError(f"labels must be 0/1 or -1/+1, got {y[ys.index(None)]!r}")
    yv = np.asarray(ys)
    if not (np.any(yv > 0) and np.any(yv < 0)):
        raise ValueError("training data must contain both classes")
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be positive and finite, got {C!r}")

    bad = (cols < 0) | (cols >= n_features)
    if bad.any():
        raise ValueError(f"feature index {cols[bad][0]} out of range [0, {n_features})")
    cols = cols.astype(np.int32)
    # X by column: column k holds rows c_rows[c_ptr[k]:c_ptr[k+1]], ascending
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    k_diag = np.bincount(rows, weights=vals**2, minlength=n).tolist()
    # the stable argsort of cols, as one value sort of column << 32 | position (nnz < 2**32)
    order = cols.astype(np.int64)
    order <<= 32
    order |= np.arange(len(cols))
    order.sort()
    order &= 0xFFFFFFFF
    c_rows, c_vals = rows[order], vals[order]
    del rows, order
    c_ptr = np.zeros(n_features + 1, np.int64)
    np.cumsum(np.bincount(cols, minlength=n_features), out=c_ptr[1:])

    # Kept rows fill `block` in the order they are first needed; kept[i] is
    # K_i as a view of its block row, or None. Untouched pages of the
    # zero-filled block are never made resident.
    block = np.zeros((min(n, KERNEL_CACHE_BYTES // (8 * n)), n))
    kept: list[np.ndarray | None] = [None] * n
    n_kept = 0

    def kernel_row(i: int) -> np.ndarray:
        nonlocal n_kept
        row = kept[i]
        if row is not None:
            return row
        ri = slice(indptr[i], indptr[i + 1])
        starts = c_ptr[cols[ri]]
        lens = c_ptr[cols[ri] + 1] - starts
        # positions in the column copy of every nonzero in x_i's columns
        at = _ranges(starts, lens)
        row = np.bincount(c_rows[at], weights=c_vals[at] * np.repeat(vals[ri], lens), minlength=n)
        if n_kept < len(block):
            block[n_kept] = row
            row = kept[i] = block[n_kept]
            n_kept += 1
        return row

    # per-step scalars are Python floats (module docstring)
    y_l = yv.tolist()
    alpha = [0.0] * n
    w = np.zeros(n_features)
    f = np.zeros(n)  # f_i = w . x_i
    # (row, y_row * d_alpha_row) of the steps not yet added to w, in step order
    todo_rows: list[int] = []
    todo_coefs: list[float] = []

    def apply_todo() -> None:
        if todo_rows:
            r = np.asarray(todo_rows)
            starts = indptr[r]
            lens = indptr[r + 1] - starts
            at = _ranges(starts, lens)
            np.add.at(w, cols[at], np.repeat(todo_coefs, lens) * vals[at])
            todo_rows.clear()
            todo_coefs.clear()

    c_hi = C - _EPS

    def in_sets(k: int) -> tuple[bool, bool]:
        """Whether k is in I_up and in I_low at the current alpha_k."""
        below, above = alpha[k] < c_hi, alpha[k] > _EPS
        return (below, above) if y_l[k] > 0 else (above, below)

    # I_up and I_low as y with -inf, and +inf, outside the set: y_up - f is
    # y - f masked for argmax, y_low - f for argmin. A step updates both,
    # and the sets' sizes, at i and j only.
    up, low = (list(s) for s in zip(*map(in_sets, range(n))))
    y_up = np.where(up, yv, -np.inf)
    y_low = np.where(low, yv, np.inf)
    n_up, n_low = sum(up), sum(low)
    m, mm, df_i, df_j = (np.empty(n) for _ in range(4))

    def bias_estimate() -> float:
        v = yv - f
        hi = v[y_up != -np.inf].max() if n_up else 0.0
        lo = v[y_low != np.inf].min() if n_low else 0.0
        return float((hi + lo) / 2.0)

    best_w = w.copy()
    best_b = bias_estimate()
    best_p = _primal(w, best_b, f, yv, C)
    trace: list[float] = []
    prev_p = best_p
    converged = False
    stalled = False
    epochs_run = 0

    for _ in range(MAX_EPOCHS):
        epochs_run += 1
        for _ in range(n):
            if not n_up or not n_low:
                converged = True
                break
            np.subtract(y_up, f, out=m)
            np.subtract(y_low, f, out=mm)
            i = int(m.argmax())
            j = int(mm.argmin())
            if m.item(i) - mm.item(j) < KKT_TOL:
                converged = True
                break
            y_i, y_j = y_l[i], y_l[j]
            s = y_i * y_j
            if s < 0:
                L = max(0.0, alpha[j] - alpha[i])
                H = min(C, C + alpha[j] - alpha[i])
            else:
                L = max(0.0, alpha[i] + alpha[j] - C)
                H = min(C, alpha[i] + alpha[j])
            k_i = kernel_row(i)
            k_j = kernel_row(j)
            eta = k_diag[i] + k_diag[j] - 2.0 * k_i.item(j)
            if eta < _EPS:
                eta = _EPS
            e_i = f.item(i) - y_i
            e_j = f.item(j) - y_j
            aj_new = min(H, max(L, alpha[j] + y_j * (e_i - e_j) / eta))
            d_aj = aj_new - alpha[j]
            if abs(d_aj) < 1e-16:
                stalled = True
                break
            d_ai = -s * d_aj
            alpha[i] += d_ai
            alpha[j] += d_aj
            for k in (i, j):
                in_up, in_low = in_sets(k)
                n_up += in_up - up[k]
                n_low += in_low - low[k]
                up[k], low[k] = in_up, in_low
                y_up[k] = y_l[k] if in_up else -np.inf
                y_low[k] = y_l[k] if in_low else np.inf
            c_i, c_j = y_i * d_ai, y_j * d_aj
            todo_rows += (i, j)
            todo_coefs += (c_i, c_j)
            if len(todo_rows) >= BLOCK_ROWS:
                apply_todo()
            # f += c_i K_i + c_j K_j, in that order, without temporaries
            np.multiply(k_i, c_i, out=df_i)
            np.multiply(k_j, c_j, out=df_j)
            np.add(df_i, df_j, out=df_i)
            np.add(f, df_i, out=f)
        apply_todo()
        b = bias_estimate()
        p = _primal(w, b, f, yv, C)
        if p < best_p:
            best_p = p
            best_w = w.copy()
            best_b = b
        trace.append(best_p)
        if converged or stalled:
            break
        if abs(prev_p - p) / max(1.0, abs(prev_p)) < REL_TOL:
            break
        prev_p = p

    # a step moves alpha_i by the clipped move of alpha_j, which can round a
    # bound of the box by an ulp
    alpha = np.clip(alpha, 0.0, C)
    return FitResult(
        weights=best_w,
        bias=best_b,
        objective=best_p,
        objective_trace=tuple(trace),
        n_epochs=epochs_run,
        converged=converged,
        alpha=alpha,
        duality_gap=best_p - (float(alpha.sum()) - 0.5 * math.fsum((w * w).tolist())),
    )


# --- document-level model -------------------------------------------------


@dataclass(frozen=True)
class LinearModel:
    space: FeatureSpace
    weights: np.ndarray
    bias: float
    C: float
    seed: int
    target: str
    objective_trace: tuple[float, ...]
    duality_gap: float
    converged: bool

    @property
    def objective(self) -> float:
        return self.objective_trace[-1] if self.objective_trace else float("nan")


def train_model(
    docs: Sequence[Document],
    labels: Mapping[str, LabelRecord],
    split: DatasetSplit,
    feature_config: FeatureConfig = FeatureConfig(),
    C: float = 1.0,
    seed: int = 0,
    target: str = "offensive",
) -> LinearModel:
    """Fit features on the normalized texts of the train split only, then train the SVM on them."""
    train_docs = [d for d in docs if d.id in split.train]
    if not train_docs:
        raise ValueError("train split matches no documents")
    missing = [d.id for d in train_docs if d.id not in labels]
    if missing:
        raise ValueError(f"unlabeled train documents, e.g. {missing[0]!r}")
    texts = [normalize(d.text) for d in train_docs]
    yv = [int(labels[d.id].has(target)) for d in train_docs]
    space, X = fit_transform(texts, feature_config)
    fit = fit_svm(X, yv, space.n_features, C=C)
    return LinearModel(
        space=space,
        weights=fit.weights,
        bias=fit.bias,
        C=C,
        seed=seed,
        target=target,
        objective_trace=fit.objective_trace,
        duality_gap=fit.duality_gap,
        converged=fit.converged,
    )


def score_texts(model: LinearModel, texts: Sequence[str]) -> list[float]:
    """Decision scores w.x + b, one per text as given, each distinct text scored once.

    x is the text's row from `features.transform`; the distinct texts go
    BLOCK_ROWS at a time, by the summation-order rule (module docstring).
    """
    distinct = list(dict.fromkeys(texts))
    scores: list[float] = []
    for a in range(0, len(distinct), BLOCK_ROWS):
        indptr, cols, vals = transform(distinct[a : a + BLOCK_ROWS], model.space)
        scores += (ordered_row_sums(indptr, model.weights[cols] * vals) + model.bias).tolist()
    by_text = dict(zip(distinct, scores))
    return [by_text[t] for t in texts]


def score_text(model: LinearModel, text: str) -> float:
    """The predict score of one raw text."""
    return predict_texts(model, [text])[0][1]


def predict_texts(model: LinearModel, texts: Sequence[str]) -> list[tuple[int, float]]:
    """Label and score per raw text, scored as normalize(text); the zero score decides negative (bias-only input too)."""
    normalized = {t: normalize(t) for t in set(texts)}
    return [(1 if s > 0 else 0, s) for s in score_texts(model, [normalized[t] for t in texts])]


def save_model(path: str, model: LinearModel) -> None:
    space = model.space
    obj = {
        "format_version": MODEL_FORMAT_VERSION,
        "mode": space.config.mode,
        "char_range": list(space.config.char_range),
        "word_range": list(space.config.word_range),
        "n_train_docs": space.n_docs,
        "index": dump_index(space),
        "idf": b64(space.idf, "<f8"),
        "weights": b64(model.weights, "<f8"),
        "bias": model.bias,
        "C": model.C,
        "seed": model.seed,
        "target": model.target,
        "objective_trace": b64(model.objective_trace, "<f8"),
        "duality_gap": model.duality_gap,
        "converged": model.converged,
    }
    atomic_write_text(path, json.dumps(obj, ensure_ascii=False, sort_keys=True))


def _finite(name: str, value: object) -> float:
    """A JSON number as a float; bools, strings, nulls and non-finite values fail."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{name} is not a finite number")
    return float(value)


def _floats(name: str, text: object) -> np.ndarray:
    """`features.b64` float64 text as a writable array; non-base64 text, partial values and non-finite values fail."""
    arr = from_b64(name, text, "<f8").astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} holds a value that is not finite")
    return arr


def load_model(path: str) -> LinearModel:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()  # a UTF-8 error propagates, for the CLI to name its line
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:  # also too deep, or too many digits
        raise ValueError(f"{path}: not a JSON model file: {e}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a JSON model file: no top-level object")
    version = obj.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {version!r}: retrain the model")
    try:
        if type(obj["converged"]) is not bool:
            raise ValueError(f"converged is not true or false: {obj['converged']!r}")
        for key in ("seed", "n_train_docs"):
            if type(obj[key]) is not int:
                raise ValueError(f"{key} is not an integer: {obj[key]!r}")
        if obj["target"] not in LABEL_CLASSES:
            raise ValueError(f"unknown target {obj['target']!r}")
        config = FeatureConfig(
            mode=obj["mode"],
            char_range=tuple(obj["char_range"]),
            word_range=tuple(obj["word_range"]),
        )
        idf, weights = _floats("idf", obj["idf"]), _floats("weights", obj["weights"])
        if len(weights) != len(idf):
            raise ValueError(f"idf and weights disagree in length ({len(idf)} idf values, {len(weights)} weights)")
        return LinearModel(
            space=FeatureSpace(config, load_index(config, obj["index"], len(idf)), idf, obj["n_train_docs"]),
            weights=weights,
            bias=_finite("bias", obj["bias"]),
            C=_finite("C", obj["C"]),
            seed=obj["seed"],
            target=obj["target"],
            objective_trace=tuple(_floats("objective_trace", obj["objective_trace"]).tolist()),
            duality_gap=_finite("duality_gap", obj["duality_gap"]),
            converged=obj["converged"],
        )
    except KeyError as e:
        raise ValueError(f"{path}: model file lacks {e.args[0]}") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{path}: bad model file: {e}") from None


# Whatever loads the model code loads explain with it, as perfbench/spans.py
# expects; explain imports this module, so this import stays last.
from . import explain as _explain  # noqa: E402,F401
