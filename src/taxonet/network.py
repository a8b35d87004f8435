"""Network value types shared by the estimators and the consensus stage: a
vote is an adjacency over a roster of taxa, and what a method chose on the
way to it (penalty, thresholds, convergence) lives in ``MethodResult.selection``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConsensusError


@dataclass(frozen=True)
class BinaryNetwork:
    """Symmetric 0/1 adjacency with a zero diagonal over ``taxa``: one
    method's vote."""

    adj: np.ndarray
    taxa: list[str]

    def __post_init__(self):
        a = np.asarray(self.adj)
        if a.dtype != np.int8:
            a = a.astype(np.int8)
        object.__setattr__(self, "adj", a)
        p = len(self.taxa)
        if a.shape != (p, p):
            raise ConsensusError("adjacency shape does not match taxa labels")
        if not np.array_equal(a, a.T):
            raise ConsensusError("adjacency must be exactly symmetric")
        if np.diag(a).any():
            raise ConsensusError("adjacency diagonal must be zero")
        if not np.isin(a, (0, 1)).all():
            raise ConsensusError("adjacency entries must be 0 or 1")

    @property
    def n_edges(self) -> int:
        return int(self.adj.sum()) // 2

    def edge_set(self) -> set[tuple[int, int]]:
        iu, ju = np.triu_indices_from(self.adj, k=1)
        on = self.adj[iu, ju] == 1
        return set(zip(iu[on].tolist(), ju[on].tolist()))

    def density(self) -> float:
        p = len(self.taxa)
        if p < 2:
            return 0.0
        return self.n_edges / (p * (p - 1) / 2)


def network_from_mask(mask: np.ndarray, taxa) -> BinaryNetwork:
    """Build a network from any boolean/int matrix: symmetrized by OR,
    diagonal cleared."""
    m = np.asarray(mask) != 0
    m = m | m.T
    np.fill_diagonal(m, False)
    return BinaryNetwork(adj=m.astype(np.int8), taxa=list(taxa))


@dataclass
class MethodResult:
    """One algorithm's output.

    ``weighted`` holds the raw association matrix for correlation-family
    methods; sparse methods set ``network`` directly.  ``selection`` carries
    whatever the method chose along the way (penalty, stability curve,
    information-criterion table, convergence flags).
    """

    method: str
    params: dict[str, Any]
    taxa: list[str]
    weighted: np.ndarray | None = None
    pvalues: np.ndarray | None = None
    network: BinaryNetwork | None = None
    selection: dict[str, Any] = field(default_factory=dict)
