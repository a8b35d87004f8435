"""Vote aggregation: binarize each method's output, sum agreement into a
weighted consensus network, threshold it, and compare networks.

The consensus weight of a pair is simply the number of methods whose binary
network contains that edge, so weights live in [0, M] for M contributing
methods.  Thresholding at t keeps edges with weight strictly greater than t,
which makes the thresholded family a nested filtration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsensusError, RuleError, ThresholdError
from .network import BinaryNetwork, MethodResult, network_from_mask


@dataclass(frozen=True)
class BinarizationRule:
    """How a method's raw output becomes a 0/1 vote.

    kind is one of ``abs_threshold`` (|value| >= threshold),
    ``top_quantile`` (|value| >= the q quantile of off-diagonal magnitudes),
    ``pvalue`` (p <= alpha, optionally also |value| >= threshold), or
    ``native_sparse`` (the method already produced a binary network).
    """

    kind: str
    threshold: float | None = None
    q: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "abs_threshold":
            if self.threshold is None or not (0.0 < self.threshold <= 1.0):
                raise RuleError(f"abs_threshold needs a threshold in (0, 1], got {self.threshold}")
        elif self.kind == "top_quantile":
            if self.q is None or not (0.0 < self.q < 1.0):
                raise RuleError(f"top_quantile needs q in (0, 1), got {self.q}")
        elif self.kind == "pvalue":
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise RuleError(f"pvalue needs alpha in (0, 1], got {self.alpha}")
            if self.threshold is not None and not (0.0 < self.threshold <= 1.0):
                raise RuleError(f"pvalue abs threshold must be in (0, 1], got {self.threshold}")
        elif self.kind == "native_sparse":
            pass
        else:
            raise RuleError(f"unknown binarization rule kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "abs_threshold":
            return f"abs_threshold({self.threshold:g})"
        if self.kind == "top_quantile":
            return f"top_quantile({self.q:g})"
        if self.kind == "pvalue":
            if self.threshold is not None:
                return f"pvalue({self.alpha:g})+abs_threshold({self.threshold:g})"
            return f"pvalue({self.alpha:g})"
        return "native_sparse"


def binarize(result: MethodResult, rule: BinarizationRule) -> BinaryNetwork:
    """Apply one rule to one method result."""
    prov = {"method": result.method, "rule": rule.describe()}
    if rule.kind == "native_sparse":
        if result.network is None:
            raise RuleError(f"native_sparse rule but {result.method} produced no network")
        return result.network
    if rule.kind in ("abs_threshold", "top_quantile"):
        if result.weighted is None:
            raise RuleError(f"{rule.kind} rule but {result.method} produced no weighted matrix")
        mag = np.abs(result.weighted)
        if rule.kind == "abs_threshold":
            cut = rule.threshold
        else:
            iu = np.triu_indices(mag.shape[0], k=1)
            cut = float(np.quantile(mag[iu], rule.q))
        return network_from_mask(mag >= cut, result.taxa, prov | {"cut": float(cut)})
    # pvalue rule
    if result.pvalues is None:
        raise RuleError(f"pvalue rule but {result.method} produced no p-values")
    mask = result.pvalues <= rule.alpha
    if rule.threshold is not None:
        if result.weighted is None:
            raise RuleError(
                f"pvalue rule with abs threshold but {result.method} produced no weighted matrix"
            )
        mask = mask & (np.abs(result.weighted) >= rule.threshold)
    return network_from_mask(mask, result.taxa, prov)


def _check_roster(taxa_a: list[str], taxa_b: list[str], what: str) -> None:
    if len(taxa_a) != len(taxa_b):
        raise ConsensusError(
            f"{what}: rosters have different sizes ({len(taxa_a)} vs {len(taxa_b)})"
        )
    for a, b in zip(taxa_a, taxa_b):
        if a != b:
            raise ConsensusError(f"{what}: rosters disagree at taxon {a!r} vs {b!r}")


@dataclass(frozen=True)
class WeightedConsensus:
    """Elementwise sum of M binary networks over a common roster."""

    weights: np.ndarray
    taxa: list[str]
    methods: list[str]
    networks: list[BinaryNetwork] = field(default_factory=list)

    def __post_init__(self):
        w = np.asarray(self.weights)
        if not np.issubdtype(w.dtype, np.integer):
            raise ConsensusError("consensus weights must be integers")
        if not np.array_equal(w, w.T):
            raise ConsensusError("consensus weights must be symmetric")
        if np.diag(w).any():
            raise ConsensusError("consensus diagonal must be zero")
        if w.min() < 0 or w.max() > len(self.methods):
            raise ConsensusError("consensus weights must lie in [0, M]")

    @property
    def n_methods(self) -> int:
        return len(self.methods)

    @property
    def n_taxa(self) -> int:
        return len(self.taxa)


def build_consensus(
    nets: list[BinaryNetwork], methods: list[str] | None = None
) -> WeightedConsensus:
    """Sum the votes of two or more binary networks on an identical roster."""
    if len(nets) < 2:
        raise ConsensusError(f"a consensus needs at least 2 networks, got {len(nets)}")
    if methods is None:
        methods = [
            str(net.provenance.get("method", f"method_{k}")) for k, net in enumerate(nets)
        ]
    if len(methods) != len(nets):
        raise ConsensusError("one method identifier per network is required")
    if len(set(methods)) != len(methods):
        raise ConsensusError("method identifiers must be unique")
    taxa = list(nets[0].taxa)
    for net in nets[1:]:
        _check_roster(taxa, net.taxa, "build_consensus")
    weights = np.zeros((len(taxa), len(taxa)), dtype=np.int16)
    for net in nets:
        weights += net.adj
    return WeightedConsensus(
        weights=weights, taxa=taxa, methods=list(methods), networks=list(nets)
    )


def threshold_network(c: WeightedConsensus, t: int) -> BinaryNetwork:
    """Edges with consensus weight strictly greater than t."""
    if int(t) != t or t < 0:
        raise ThresholdError(f"threshold must be a nonnegative integer, got {t!r}")
    t = int(t)
    if t > c.n_methods:
        raise ThresholdError(f"threshold {t} exceeds the method count {c.n_methods}")
    return network_from_mask(c.weights > t, c.taxa, {"threshold": t})


@dataclass(frozen=True)
class SweepRow:
    t: int
    connected_node_count: int
    edge_count: int


def threshold_sweep(c: WeightedConsensus) -> list[SweepRow]:
    """Node/edge counts of the thresholded network for t = 0 .. M-1.

    Nodes with no surviving edge are not counted.
    """
    rows = []
    for t in range(c.n_methods):
        net = threshold_network(c, t)
        degrees = net.adj.sum(axis=0)
        rows.append(
            SweepRow(
                t=t,
                connected_node_count=int((degrees > 0).sum()),
                edge_count=net.n_edges,
            )
        )
    return rows


@dataclass(frozen=True)
class EdgeRecord:
    taxon_a: str
    taxon_b: str
    weight: int
    supporting_methods: tuple[str, ...]


def edge_records(c: WeightedConsensus) -> list[EdgeRecord]:
    """Positive-weight edges sorted by weight descending, then labels."""
    records = []
    iu, ju = np.triu_indices(c.n_taxa, k=1)
    for i, j in zip(iu.tolist(), ju.tolist()):
        w = int(c.weights[i, j])
        if w == 0:
            continue
        a, b = sorted((c.taxa[i], c.taxa[j]))
        supporting = tuple(
            m for m, net in zip(c.methods, c.networks) if net.adj[i, j]
        )
        records.append(EdgeRecord(taxon_a=a, taxon_b=b, weight=w, supporting_methods=supporting))
    records.sort(key=lambda r: (-r.weight, r.taxon_a, r.taxon_b))
    return records


def hamming_distance(a: BinaryNetwork, b: BinaryNetwork) -> int:
    """Number of unordered pairs whose adjacency differs."""
    _check_roster(a.taxa, b.taxa, "hamming_distance")
    diff = a.adj != b.adj
    iu = np.triu_indices_from(diff, k=1)
    return int(diff[iu].sum())


def hamming_matrix(nets: list[BinaryNetwork]) -> np.ndarray:
    """Pairwise Hamming distances; symmetric with a zero diagonal."""
    m = len(nets)
    out = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = hamming_distance(nets[i], nets[j])
    return out
