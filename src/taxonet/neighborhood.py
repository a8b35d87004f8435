"""Neighborhood selection: per-node lasso regressions combined into a graph.

Each node is regressed on the rest through the gram (or correlation) matrix
alone, so the same path serves standardized data and a correlation matrix
that is itself the estimate.
"""

from __future__ import annotations

import numpy as np

from .errors import EstimatorError
from .solvers import LASSO_MAX_SWEEPS, LASSO_TOL, _cd_gram_batch


def standardize_columns(x: np.ndarray) -> np.ndarray:
    """Mean 0, variance 1 per column (population variance). Constant
    columns are left at zero so they simply never enter a model."""
    centered = x - x.mean(axis=0)
    sd = centered.std(axis=0)
    flat = sd <= 1e-12
    z = centered / np.where(flat, 1.0, sd)
    z[:, flat] = 0.0
    return z


def _support_path(grams: np.ndarray, lambdas, betas=None):
    """Directed supports along a penalty path (descending lam) for a
    (R, p, p) stack of grams, as an (R, L, p, p) boolean stack whose entry
    (r, k, j, i) is set when variable i has a nonzero coefficient in the
    regression for node j, and the number of regressions that stopped at
    ``LASSO_MAX_SWEEPS``.

    All R * p node regressions are solved together by the batched kernel,
    each against its full gram with its own coordinate pinned by an
    infinite penalty, and warm-started from the previous penalty.  ``betas``
    is the (R * p, p) coefficient stack to start from, updated in place, so
    that a path walked in several calls is solved as in one.
    """
    grams = np.asarray(grams, dtype=float)
    r, p = grams.shape[:2]
    group = np.repeat(np.arange(r), p)
    targets = np.swapaxes(grams, 1, 2).reshape(r * p, p)   # row (i, j): gram i, column j
    pinned = np.tile(np.eye(p, dtype=bool), (r, 1))
    if betas is None:
        betas = np.zeros((r * p, p))
    out = np.zeros((r, len(lambdas), p, p), dtype=bool)
    unconverged = 0
    for k, lam in enumerate(lambdas):
        pen = np.where(pinned, np.inf, float(lam))
        sweeps = _cd_gram_batch(
            grams, targets, betas, pen, LASSO_TOL, LASSO_MAX_SWEEPS, group=group
        )
        unconverged += int((sweeps >= LASSO_MAX_SWEEPS).sum())
        out[:, k] = (betas != 0.0).reshape(r, p, p)
    return out, unconverged


def combine_supports(support: np.ndarray, rule: str) -> np.ndarray:
    """Symmetrize a support matrix, or a stack of them along the last two
    axes, by the OR or AND rule."""
    flipped = np.swapaxes(support, -1, -2)
    if rule == "or":
        return support | flipped
    if rule == "and":
        return support & flipped
    raise EstimatorError(f"unknown combination rule {rule!r}")


def mb_adjacency_path(grams: np.ndarray, lambdas, rule: str = "or", betas=None):
    """Adjacency matrices along a penalty path (descending lam) for a
    (R, p, p) stack of grams, as an (R, L, p, p) boolean stack, and the
    number of node regressions that stopped at their sweep limit.  Each
    replicate's regressions are warm-started along the path; passing the
    same (R * p, p) ``betas`` to consecutive calls continues the path."""
    support, unconverged = _support_path(grams, lambdas, betas)
    adj = combine_supports(support, rule)
    p = adj.shape[-1]
    adj[..., np.arange(p), np.arange(p)] = False
    return adj, unconverged
