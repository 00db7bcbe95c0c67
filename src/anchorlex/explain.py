"""Perturbation-based token attributions for a linear model's decisions.

Mirrors the usual local-surrogate recipe: sample binary keep/mask
vectors over the doc's tokens, score the model on each masked text,
fit a weighted ridge surrogate (weight = exp(-d^2 / width^2), d =
fraction of tokens masked), read per-token attributions off the
coefficients. Deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .emoji import alias_for, base_form, cluster_spans
from .linear import LinearModel, score_texts
from .textnorm import normalize, tokenize

# ridge penalty of the surrogate fit; the intercept is not penalized
RIDGE_LAMBDA = 1.0
# width of the sample-weight kernel, in fraction of tokens masked
KERNEL_WIDTH = 0.25
# tokens kept in an explanation's ranked list
TOP_K = 10


def replace_emoji_with_aliases(text: str) -> str:
    """Swap each emoji cluster for a readable ':name:' token."""
    out: list[str] = []
    pos = 0
    for a, b in cluster_spans(text):
        out.append(text[pos:a])
        out.append(f" {alias_for(base_form(text[a:b]))} ")
        pos = b
    out.append(text[pos:])
    return "".join(out)


def explain_preprocess(text: str) -> str:
    """Mentions/URLs/newlines canonicalized, emoji aliased, repeats squashed."""
    return normalize(replace_emoji_with_aliases(text))


@dataclass(frozen=True)
class Explanation:
    tokens: tuple[str, ...]
    attributions: tuple[float, ...]
    intercept: float
    r2: float
    top: tuple[tuple[str, float], ...]
    score_full: float
    score_empty: float


def explain(text: str, model: LinearModel, n_samples: int = 1000, seed: int = 0) -> Explanation:
    """Attribution per token of one document under one model."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    tokens = tuple(tokenize(explain_preprocess(text)))
    m = len(tokens)
    if m == 0:
        raise ValueError("document has no tokens to explain")

    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 2, size=(n_samples, m)).astype(np.float64)  # 1 = kept
    # tokens of normalized text join into normalized text: no sample is normalized again
    samples = [" ".join(compress(tokens, keep)) for keep in (masks > 0).tolist()]
    *sample_scores, score_full, score_empty = score_texts(
        model, samples + [" ".join(tokens), ""], pre_normalized=True
    )
    scores = np.asarray(sample_scores)
    d = 1.0 - masks.mean(axis=1)
    weights = np.exp(-(d**2) / (KERNEL_WIDTH**2))

    # weighted ridge with unpenalized intercept
    A = np.hstack([np.ones((n_samples, 1)), masks])
    WA = A * weights[:, None]
    lhs = A.T @ WA
    penalty = np.full(m + 1, RIDGE_LAMBDA)
    penalty[0] = 0.0
    lhs[np.diag_indices_from(lhs)] += penalty
    rhs = A.T @ (weights * scores)
    beta = np.linalg.solve(lhs, rhs)
    intercept, attrib = float(beta[0]), beta[1:]

    fitted = A @ beta
    w_total = weights.sum()
    y_bar = float((weights * scores).sum() / w_total)
    ss_res = float((weights * (scores - fitted) ** 2).sum())
    ss_tot = float((weights * (scores - y_bar) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)

    ranked = sorted(zip(tokens, attrib), key=lambda p: (-abs(p[1]), p[0]))
    top = tuple((t, float(v)) for t, v in ranked[:TOP_K])
    return Explanation(
        tokens=tokens,
        attributions=tuple(float(v) for v in attrib),
        intercept=intercept,
        r2=r2,
        top=top,
        score_full=score_full,
        score_empty=score_empty,
    )


def dump_explanation(ex: Explanation) -> str:
    lines = [
        f"score_full\t{ex.score_full:.10f}",
        f"score_empty\t{ex.score_empty:.10f}",
        f"intercept\t{ex.intercept:.10f}",
        f"r2\t{ex.r2:.10f}",
        "token\tattribution",
    ]
    lines.extend(f"{t}\t{v:.10f}" for t, v in ex.top)
    return "\n".join(lines) + "\n"
