"""Two-stage network pruning with Gaussian mutual information.

Stage one keeps the strongest pairwise dependencies by a quantile cut on
mutual information.  Stage two re-tests each surviving edge conditionally on
every shared neighbor; an edge survives only if even its weakest conditional
dependence clears a second quantile cut, so indirect links routed through a
third taxon are removed.  Edges whose endpoints share no neighbor have
nothing to condition on and pass through unchanged.

Both stages are array expressions on one correlation matrix, through the
same elementwise MI formula that ``gaussian_mi`` and ``conditional_mi`` use.
``cmimn_fit`` returns a ``MethodResult``: ``weighted`` is the MI matrix, and
the stage-1 network is ``weighted >= selection["mi_threshold"]`` off the
diagonal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import CountTable, check_pseudo, clr_transform, mclr_transform
from .errors import EstimatorError
from .network import MethodResult, network_from_mask

_R_CLIP = 1.0 - 1e-12


@dataclass
class CmimnParams:
    quantitative: bool = True
    q1: float = 0.7
    q2: float = 0.95
    pseudo: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.q1 <= self.q2 < 1.0):
            raise EstimatorError(
                f"quantiles must satisfy 0 < q1 <= q2 < 1, got q1={self.q1}, q2={self.q2}"
            )
        check_pseudo(self.pseudo)


def _mi_from_r(r):
    """-0.5 * ln(1 - r^2), elementwise, with |r| clipped to 1-1e-12."""
    r = np.clip(r, -_R_CLIP, _R_CLIP)
    return -0.5 * np.log1p(-r * r)


def _partial_mi(r_xy, r_xz, r_yz):
    """Conditional MI from the three pairwise correlations, elementwise
    (clipped, never raises: the quantile stages run it on estimated ones)."""
    r_xz = np.clip(r_xz, -_R_CLIP, _R_CLIP)
    r_yz = np.clip(r_yz, -_R_CLIP, _R_CLIP)
    denom = np.sqrt((1.0 - r_xz * r_xz) * (1.0 - r_yz * r_yz))
    return _mi_from_r((r_xy - r_xz * r_yz) / denom)


def _check_vector(v, name: str, min_len: int) -> np.ndarray:
    arr = np.asarray(v, dtype=float).ravel()
    if arr.size < min_len:
        raise EstimatorError(f"{name} needs at least {min_len} observations")
    if arr.std() == 0:
        raise EstimatorError(f"{name} is constant")
    return arr


def gaussian_mi(x, y) -> float:
    """Mutual information of two samples under a bivariate normal model:
    -0.5 * ln(1 - r^2) with r their correlation, clipped to |r| <= 1-1e-12."""
    xa = _check_vector(x, "x", 4)
    ya = _check_vector(y, "y", 4)
    if xa.size != ya.size:
        raise EstimatorError("x and y must have equal length")
    return float(_mi_from_r(np.corrcoef(xa, ya)[0, 1]))


def conditional_mi(x, y, z) -> float:
    """CMI(X;Y|Z) under a trivariate normal model, via the partial
    correlation of x and y given z."""
    xa = _check_vector(x, "x", 5)
    ya = _check_vector(y, "y", 5)
    za = _check_vector(z, "z", 5)
    if not (xa.size == ya.size == za.size):
        raise EstimatorError("x, y, z must have equal length")
    r = np.corrcoef(np.column_stack([xa, ya, za]), rowvar=False)
    r_xz, r_yz = r[0, 2], r[1, 2]
    if 1.0 - r_xz * r_xz <= 1e-12 or 1.0 - r_yz * r_yz <= 1e-12:
        raise EstimatorError("correlation matrix of (x, y, z) is singular")
    return float(_partial_mi(r[0, 1], r_xz, r_yz))


def _transformed_values(table: CountTable, params: CmimnParams) -> np.ndarray:
    if params.quantitative:
        return clr_transform(table, pseudo=params.pseudo)
    return mclr_transform(table)


def cmimn_fit(table: CountTable, params: CmimnParams | None = None) -> MethodResult:
    """Stage one is MI on the upper triangle of r; stage two tests one row's
    stage-1 edges against all taxa at once, as a (edges in row) x p array."""
    params = params or CmimnParams()
    p = table.n_taxa
    if p < 3:
        raise EstimatorError(f"need at least 3 taxa to condition on a third, got {p}")
    data = _transformed_values(table, params)
    r = np.corrcoef(data, rowvar=False)
    if np.isnan(r).any():
        bad = int(np.isnan(r).any(axis=0).argmax())
        raise EstimatorError(
            f"taxon {table.taxa[bad]!r} is constant after the transform"
        )

    # the upper triangle only, mirrored: np.corrcoef is not exactly symmetric
    iu = np.triu_indices(p, k=1)
    mi = np.zeros((p, p))
    mi[iu] = _mi_from_r(r[iu])
    mi += mi.T

    mi_threshold = float(np.quantile(mi[iu], params.q1))

    # the zero diagonal of adj leaves k = i and k = j out of `shared`; an edge
    # with no shared neighbour keeps weakest = inf and passes
    adj = (mi >= mi_threshold) & ~np.eye(p, dtype=bool)
    weakest = np.full((p, p), np.inf)
    pools = []
    for i in range(p):
        js = i + 1 + np.flatnonzero(adj[i, i + 1:])
        cmi = _partial_mi(r[i, js][:, None], r[i], r[js])
        shared = adj[i] & adj[js]
        pools.append(cmi[shared])
        weakest[i, js] = weakest[js, i] = np.where(shared, cmi, np.inf).min(axis=1)
    pool = np.concatenate(pools)
    cmi_threshold = float(np.quantile(pool, params.q2)) if pool.size else None
    keep = adj if cmi_threshold is None else adj & (weakest >= cmi_threshold)

    return MethodResult(
        method="cmimn",
        params=asdict(params),
        taxa=list(table.taxa),
        weighted=mi,
        network=network_from_mask(keep, table.taxa),
        selection={
            "mi_threshold": mi_threshold,
            "cmi_threshold": cmi_threshold,
            "stage1_edges": int(adj.sum()) // 2,
        },
    )
