"""Correlation-family association estimators.

Four classical estimators over a transformed (or raw) samples x taxa
array, plus a rank-based latent correlation for zero-inflated counts that
maps Kendall concordance through the Gaussian-copula bridge and projects the
result to the positive semidefinite cone.  Each returns a plain taxa x taxa
array, exactly symmetric, in [-1, 1] and with a unit diagonal.

The rank statistics are plain numpy. Kendall tau-b for all column pairs is
one sign-product Gram matrix accumulated over samples, and Spearman uses
average ranks of ties. Both give exactly the values of
``scipy.stats.kendalltau(..., variant="b")`` and ``scipy.stats.rankdata``,
so the package does not import scipy.
"""

from __future__ import annotations

import numpy as np

from .data import CountTable, mclr_transform
from .errors import EstimatorError

BICOR_TUNING = 9.0
PSD_EIG_FLOOR = 1e-8

CORRELATION_METHODS = ("pearson", "spearman", "bicor", "kendall")


def _finalize(values: np.ndarray) -> np.ndarray:
    """Symmetrize, clip to [-1, 1] and set the unit diagonal."""
    v = 0.5 * (values + values.T)
    np.clip(v, -1.0, 1.0, out=v)
    np.fill_diagonal(v, 1.0)
    return v


def _check_columns(x: np.ndarray, taxa) -> None:
    if x.shape[0] < 4:
        raise EstimatorError("correlation needs at least 4 samples")
    # the standard deviation of a constant column can round to 1e-17
    constant = np.ptp(x, axis=0) == 0
    if constant.any():
        bad = taxa[int(np.argmax(constant))]
        raise EstimatorError(f"taxon {bad!r} is constant")


def _bicor_prepare(col: np.ndarray) -> np.ndarray:
    """Median/MAD biweight pseudo-observations for one column.

    A zero-MAD column falls back to plain mean centering (the Pearson
    contribution for every pair it appears in).
    """
    med = np.median(col)
    mad = np.median(np.abs(col - med))
    if mad == 0:
        return col - col.mean()
    u = (col - med) / (BICOR_TUNING * mad)
    w = (1.0 - u**2) ** 2 * (np.abs(u) < 1.0)
    return (col - med) * w


def correlation_matrix(x: np.ndarray, taxa, method: str = "pearson") -> np.ndarray:
    """Pairwise association matrix of the columns of a samples x taxa array.

    ``taxa`` labels the columns, and names a constant one in the error.
    Methods: ``pearson`` (product-moment), ``spearman`` (average ranks),
    ``bicor`` (biweight midcorrelation, tuning constant 9), ``kendall``
    (tau-b).
    """
    if method not in CORRELATION_METHODS:
        raise EstimatorError(f"unknown correlation method {method!r}")
    x = np.asarray(x, dtype=float)
    _check_columns(x, taxa)
    if method == "pearson":
        return _finalize(np.corrcoef(x, rowvar=False))
    if method == "spearman":
        ranks = np.apply_along_axis(average_ranks, 0, x)
        return _finalize(np.corrcoef(ranks, rowvar=False))
    if method == "bicor":
        cols = np.column_stack([_bicor_prepare(x[:, j]) for j in range(x.shape[1])])
        norms = np.sqrt((cols**2).sum(axis=0))
        out = (cols.T @ cols) / np.outer(norms, norms)
        return _finalize(out)
    return _finalize(kendall_matrix(x))


def average_ranks(col: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array; each block of tied values gets the
    mean of the ordinal ranks it spans (scipy's ``rankdata`` "average")."""
    order = np.argsort(col, kind="mergesort")
    s = col[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(np.r_[starts, len(s)])
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def kendall_matrix(x: np.ndarray) -> np.ndarray:
    """Tau-b over all column pairs (ties handled by the b-correction).

    For each sample i the signs of ``x[j] - x[i]`` over the later samples j
    form an (n-i-1, p) matrix S, and ``S.T @ S`` summed over i counts, for
    columns a and b, concordant minus discordant pairs (off the diagonal)
    and pairs not tied in a (on it). All sums are small integers, exact in
    float64, and the b-correction divides by the two square roots in
    scipy's order, so every entry equals ``kendalltau(x[:, a], x[:, b],
    variant="b")`` exactly. A constant column, where scipy gives NaN, gets
    0 off the diagonal.
    """
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    acc = np.zeros((p, p))
    for i in range(n - 1):
        signs = np.sign(x[i + 1:] - x[i])
        acc += signs.T @ signs
    # a constant column has no untied pair and an all-zero row in acc, so
    # dividing it by 1 leaves its tau at 0
    root = np.sqrt(np.diag(acc))
    root[root == 0] = 1.0
    tau = np.clip(acc / root[:, None] / root[None, :], -1.0, 1.0)
    out = np.triu(tau, 1)
    out += out.T
    np.fill_diagonal(out, 1.0)
    return out


def tau_bridge(tau):
    """Gaussian-copula bridge from Kendall concordance to correlation:
    r = sin(pi * tau / 2)."""
    return np.sin(np.pi * np.asarray(tau) / 2.0)


def nearest_psd_correlation(values: np.ndarray, floor: float = PSD_EIG_FLOOR):
    """Project to the PSD cone by eigenvalue clipping, then rescale the
    diagonal back to 1."""
    v = 0.5 * (values + values.T)
    try:
        eigval, eigvec = np.linalg.eigh(v)
    except np.linalg.LinAlgError as exc:
        raise EstimatorError(f"eigendecomposition failed: {exc}") from exc
    clipped = np.clip(eigval, floor, None)
    rebuilt = (eigvec * clipped) @ eigvec.T
    d = np.sqrt(np.diag(rebuilt))
    out = rebuilt / np.outer(d, d)
    np.clip(out, -1.0, 1.0, out=out)
    np.fill_diagonal(out, 1.0)
    return 0.5 * (out + out.T)


def latent_correlation(table: CountTable) -> np.ndarray:
    """Rank-based latent correlation for zero-inflated counts.

    Kendall tau-b on the modified-CLR transform (zeros kept as ties at 0),
    mapped through ``sin(pi*tau/2)`` and projected to the nearest positive
    semidefinite correlation matrix.
    """
    if table.n_samples < 4:
        raise EstimatorError("latent correlation needs at least 4 samples")
    transformed = mclr_transform(table)
    tau = kendall_matrix(transformed)
    bridged = tau_bridge(tau)
    return nearest_psd_correlation(bridged)


def safe_correlation(x: np.ndarray) -> np.ndarray:
    """Pearson matrix that tolerates constant columns (used on subsamples,
    where a column can lose all variation by chance): such columns get zero
    association with everything."""
    sd = x.std(axis=0)
    ok = sd > 1e-12
    out = np.zeros((x.shape[1], x.shape[1]))
    if ok.sum() >= 2:
        sub = np.corrcoef(x[:, ok], rowvar=False)
        out[np.ix_(ok, ok)] = sub
    return _finalize(out)
