"""Neighborhood selection: per-node lasso regressions combined into a graph.

Two drivers share the same coordinate-descent core: one standardizes a data
matrix and regresses each column on the rest, the other needs only a
correlation matrix (sufficient statistics) and never touches sample-level
data, the form used when the association matrix itself is the estimate.
"""

from __future__ import annotations

import numpy as np

from .errors import EstimatorError
from .network import BinaryNetwork, network_from_mask
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


def _support_path(grams: np.ndarray, lambdas, tol: float = LASSO_TOL) -> np.ndarray:
    """Directed supports along a penalty path (descending lam) for a
    (R, p, p) stack of grams, as an (R, L, p, p) boolean stack whose entry
    (r, k, j, i) is set when variable i has a nonzero coefficient in the
    regression for node j.

    All R * p node regressions are solved together by the batched kernel,
    each against its full gram with its own coordinate pinned by an
    infinite penalty, and warm-started from the previous penalty.
    """
    grams = np.asarray(grams, dtype=float)
    r, p = grams.shape[:2]
    group = np.repeat(np.arange(r), p)
    targets = np.swapaxes(grams, 1, 2).reshape(r * p, p)   # row (i, j): gram i, column j
    pinned = np.tile(np.eye(p, dtype=bool), (r, 1))
    betas = np.zeros((r * p, p))
    out = np.zeros((r, len(lambdas), p, p), dtype=bool)
    for k, lam in enumerate(lambdas):
        pen = np.where(pinned, np.inf, float(lam))
        _cd_gram_batch(grams, targets, betas, pen, tol, LASSO_MAX_SWEEPS, group=group)
        out[:, k] = (betas != 0.0).reshape(r, p, p)
    return out


def neighborhood_supports(
    gram: np.ndarray, lam: float, tol: float = LASSO_TOL
) -> np.ndarray:
    """Boolean support matrix: entry (j, i) set when variable i has a
    nonzero coefficient in the regression for node j."""
    return _support_path(np.asarray(gram, dtype=float)[None], [lam], tol)[0, 0]


def combine_supports(support: np.ndarray, rule: str) -> np.ndarray:
    """Symmetrize a support matrix, or a stack of them along the last two
    axes, by the OR or AND rule."""
    flipped = np.swapaxes(support, -1, -2)
    if rule == "or":
        return support | flipped
    if rule == "and":
        return support & flipped
    raise EstimatorError(f"unknown combination rule {rule!r}")


def mb_neighborhood(
    x: np.ndarray, lam: float, rule: str = "or", taxa=None
) -> BinaryNetwork:
    """Meinshausen-Buhlmann selection on a data matrix.

    Columns are standardized internally; each node is lasso-regressed on
    the rest at penalty ``lam`` and the supports are combined by the OR
    (default) or AND rule.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise EstimatorError("need a 2-d matrix with at least 2 rows")
    z = standardize_columns(x)
    gram = (z.T @ z) / z.shape[0]
    support = neighborhood_supports(gram, lam)
    adj = combine_supports(support, rule)
    labels = taxa if taxa is not None else [f"V{i}" for i in range(x.shape[1])]
    return network_from_mask(
        adj, labels, provenance={"method": "mb", "lambda": float(lam), "rule": rule}
    )


def mb_from_correlation(
    corr: np.ndarray, lam: float, rule: str = "or", taxa=None
) -> BinaryNetwork:
    """Neighborhood selection driven entirely by a correlation matrix."""
    corr = np.asarray(corr, dtype=float)
    support = neighborhood_supports(corr, lam)
    adj = combine_supports(support, rule)
    labels = taxa if taxa is not None else [f"V{i}" for i in range(corr.shape[0])]
    return network_from_mask(
        adj,
        labels,
        provenance={"method": "mb_corr", "lambda": float(lam), "rule": rule},
    )


def mb_adjacency_path(grams: np.ndarray, lambdas, rule: str = "or") -> np.ndarray:
    """Adjacency matrices along a penalty path (descending lam) for a
    (R, p, p) stack of grams, as an (R, L, p, p) boolean stack; each
    replicate's regressions are warm-started along the path."""
    adj = combine_supports(_support_path(grams, lambdas), rule)
    p = adj.shape[-1]
    adj[..., np.arange(p), np.arange(p)] = False
    return adj
