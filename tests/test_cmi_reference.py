"""cmimn's array stages against a per-pair, per-neighbour reference.

The reference is the scalar form of both stages: one MI call per taxon pair,
one conditional-MI call per (edge, shared neighbour), with the edges in a
list and each edge's weakest conditional MI in a dict.  The array form must
give the same bits: the MI matrix, both thresholds and both networks.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxonet import cmi
from taxonet.cmi import _R_CLIP, CmimnParams, cmimn_fit
from taxonet.network import network_from_mask

from conftest import make_table


def ref_mi_from_r(r: float) -> float:
    r = float(np.clip(r, -_R_CLIP, _R_CLIP))
    return -0.5 * float(np.log1p(-r * r))


def ref_partial_mi(r_xy: float, r_xz: float, r_yz: float) -> float:
    r_xz = float(np.clip(r_xz, -_R_CLIP, _R_CLIP))
    r_yz = float(np.clip(r_yz, -_R_CLIP, _R_CLIP))
    denom = np.sqrt((1.0 - r_xz * r_xz) * (1.0 - r_yz * r_yz))
    partial = (r_xy - r_xz * r_yz) / denom
    return ref_mi_from_r(partial)


def reference_stages(data: np.ndarray, q1: float, q2: float):
    """(mi, mi_threshold, cmi_threshold, stage-1 adj, final adj), pair by pair."""
    r = np.corrcoef(data, rowvar=False)
    p = r.shape[0]
    taxa = [f"T{j:02d}" for j in range(p)]
    iu = np.triu_indices(p, k=1)
    mi = np.zeros((p, p))
    for i, j in zip(*iu):
        mi[i, j] = mi[j, i] = ref_mi_from_r(r[i, j])

    mi_threshold = float(np.quantile(mi[iu], q1))
    stage1 = network_from_mask((mi >= mi_threshold) & ~np.eye(p, dtype=bool), taxa)

    adj = stage1.adj.astype(bool)
    edges = [(i, j) for i, j in zip(*iu) if adj[i, j]]
    min_cmi: dict[tuple[int, int], float] = {}
    pool: list[float] = []
    for i, j in edges:
        shared = np.flatnonzero(adj[i] & adj[j])
        shared = shared[(shared != i) & (shared != j)]
        if shared.size == 0:
            continue
        vals = [ref_partial_mi(r[i, j], r[i, k], r[j, k]) for k in shared]
        pool.extend(vals)
        min_cmi[(i, j)] = min(vals)

    if pool:
        cmi_threshold = float(np.quantile(pool, q2))
        keep = np.zeros((p, p), dtype=bool)
        for i, j in edges:
            if (i, j) not in min_cmi or min_cmi[(i, j)] >= cmi_threshold:
                keep[i, j] = keep[j, i] = True
    else:
        cmi_threshold = None
        keep = adj.copy()
    return mi, mi_threshold, cmi_threshold, stage1.adj, network_from_mask(keep, taxa).adj


def array_stages(data: np.ndarray, q1: float, q2: float):
    """cmimn_fit with its transform replaced by ``data``: the reference's five
    values, the stage-1 adjacency rebuilt as the MI matrix at or above the
    first cut off the diagonal, then the recorded stage-1 edge count."""
    table = make_table(np.ones(data.shape))
    with mock.patch.object(cmi, "_transformed_values", lambda table, params: data):
        fit = cmimn_fit(table, CmimnParams(q1=q1, q2=q2))
    sel = fit.selection
    stage1 = (fit.weighted >= sel["mi_threshold"]) & ~np.eye(data.shape[1], dtype=bool)
    return (fit.weighted, sel["mi_threshold"], sel["cmi_threshold"],
            stage1.astype(np.int8), fit.network.adj, sel["stage1_edges"])


def assert_same_bits(data: np.ndarray, q1: float, q2: float):
    ref = reference_stages(data, q1, q2)
    got = array_stages(data, q1, q2)
    assert got[0].tobytes() == ref[0].tobytes()
    assert repr(got[1]) == repr(ref[1])
    assert repr(got[2]) == repr(ref[2])
    assert got[3].tobytes() == ref[3].tobytes()
    assert got[4].tobytes() == ref[4].tobytes()
    assert got[5] == int(ref[3].sum()) // 2
    return got[:5]


def gaussian_with_copies(seed: int, n: int, p: int, copies=()) -> np.ndarray:
    """Gaussian columns; each (dst, src, sign) in ``copies`` makes column dst
    sign times column src, so that |r| between them reaches 1."""
    x = np.random.default_rng(seed).standard_normal((n, p))
    for dst, src, sign in copies:
        x[:, dst] = sign * x[:, src]
    return x


@st.composite
def cmimn_inputs(draw):
    n = draw(st.integers(5, 30))
    p = draw(st.integers(3, 14))
    copies = []
    for dst in draw(st.lists(st.integers(1, p - 1), max_size=3, unique=True)):
        copies.append((dst, draw(st.integers(0, dst - 1)), draw(st.sampled_from([1.0, -1.0]))))
    data = gaussian_with_copies(draw(st.integers(0, 2**32 - 1)), n, p, copies)
    q1 = draw(st.floats(0.05, 0.95))
    q2 = draw(st.one_of(st.just(q1), st.floats(q1, 0.99)))
    return data, q1, q2


# a copied column (r = 1) and a negated one (r = -1); on three taxa with q1
# high the single stage-1 edge has no shared neighbour and the pool is empty
CLIPPED = (gaussian_with_copies(1, 20, 8, [(3, 0, 1.0), (5, 2, -1.0)]), 0.6, 0.9)
EMPTY_POOL = (gaussian_with_copies(2, 12, 3), 0.9, 0.95)
EQUAL_QUANTILES = (gaussian_with_copies(3, 25, 10), 0.7, 0.7)


@settings(max_examples=150, deadline=None)
@given(case=cmimn_inputs())
@example(case=CLIPPED)
@example(case=EMPTY_POOL)
@example(case=EQUAL_QUANTILES)
def test_array_stages_match_the_per_pair_reference(case):
    assert_same_bits(*case)


class TestReferenceCases:
    """The fixed examples above really reach the cases they are named for."""

    def test_clipped_correlations(self):
        data, q1, q2 = CLIPPED
        r = np.corrcoef(data, rowvar=False)
        assert r[0, 3] >= _R_CLIP and r[2, 5] <= -_R_CLIP
        mi, _, _, stage1, _ = assert_same_bits(data, q1, q2)
        assert mi[0, 3] == mi[2, 5] == ref_mi_from_r(1.0)
        assert stage1[0, 3] == stage1[2, 5] == 1

    def test_empty_pool(self):
        _, _, cmi_threshold, stage1, final = assert_same_bits(*EMPTY_POOL)
        assert cmi_threshold is None
        assert stage1.sum() == 2
        assert np.array_equal(final, stage1)

    @pytest.mark.parametrize("case", [CLIPPED, EQUAL_QUANTILES])
    def test_edges_without_a_shared_neighbour_pass(self, case):
        data, q1, q2 = case
        _, _, cmi_threshold, stage1, final = assert_same_bits(data, q1, q2)
        assert cmi_threshold is not None
        adj = stage1.astype(bool)
        lone = adj & ~((adj.astype(int) @ adj.astype(int)) > 0)
        assert lone.any()
        assert final[lone].all()
