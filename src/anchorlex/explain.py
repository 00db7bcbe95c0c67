"""Perturbation-based token attributions for a linear model's decisions.

Mirrors the usual local-surrogate recipe (LIME: Ribeiro, Singh &
Guestrin, KDD 2016): sample binary keep/mask vectors over the doc's
tokens, score the model on each masked text, fit a weighted ridge
surrogate (weight = exp(-d^2 / width^2), d = fraction of tokens
masked), read per-token attributions off the coefficients.
Deterministic for a fixed seed.

What is perturbed is the string `predict` scores, normalize(text), cut
once by `textnorm.split_tokens` into gaps and tokens; emoji are tokens
and show as themselves. A sample keeps every gap and drops its masked
tokens, as LIME's text perturbation does, and is scored as it stands.
So the unmasked sample is that string and score_full is the predict
score bit for bit, and the gaps alone give score_empty. The gaps stay
because char grams span them: tokens joined by single spaces would lose
the punctuation and spacing grams that `predict` sees.

Every text scored is spelled from the normalized text's characters, so
explain scores on the space cut to them (`FeatureSpace.spelled_from`):
the same bits through a gram index over a tenth to a quarter of the
vocabulary, which each call builds, where a one-request process such as
`anchorlex explain` would otherwise build the full one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linear import LinearModel, score_texts
from .textnorm import normalize, split_tokens

# ridge penalty of the surrogate fit; the intercept is not penalized
RIDGE_LAMBDA = 1.0
# width of the sample-weight kernel, in fraction of tokens masked
KERNEL_WIDTH = 0.25
# tokens kept in an explanation's ranked list
TOP_K = 10


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
    text = normalize(text)
    # every text scored below is spelled from text's characters, so no other gram can hit
    model = replace(model, space=model.space.spelled_from(text))
    parts = split_tokens(text)
    tokens, gaps = tuple(parts[1::2]), parts[2::2]
    m = len(tokens)
    if m == 0:
        raise ValueError("document has no tokens to explain")

    rng = np.random.default_rng(seed)
    keep = rng.integers(0, 2, size=(n_samples, m))  # 1 = kept
    # piece k of a sample: token k and the gap after it if kept, else that gap alone
    pieces = np.array([gaps, [t + g for t, g in zip(tokens, gaps)]], dtype=object)
    samples = [parts[0] + "".join(row) for row in pieces[keep, np.arange(m)].tolist()]
    *sample_scores, score_full, score_empty = score_texts(model, samples + [text, "".join(parts[::2])])
    scores = np.asarray(sample_scores)
    d = 1.0 - keep.mean(axis=1)
    weights = np.exp(-(d**2) / (KERNEL_WIDTH**2))

    # weighted ridge with unpenalized intercept
    A = np.hstack([np.ones((n_samples, 1)), keep])
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
