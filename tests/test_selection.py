import numpy as np
import pytest

from taxonet import (
    LambdaPath,
    PathError,
    SelectionError,
    StarsParams,
    ebic_score,
    lambda_path,
    stars_select,
)
from taxonet.selection import default_subsample_ratio, ebic_choose

from conftest import chain_edges, chain_precision, f1_score


class TestLambdaPath:
    def test_three_point_decade_path(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        path = lambda_path(s, nlambda=3, lambda_min_ratio=0.01)
        np.testing.assert_allclose(path.values, [0.5, 0.05, 0.005], atol=1e-12)

    def test_log_equispaced(self, rng):
        a = rng.normal(size=(10, 6))
        s = np.corrcoef(a, rowvar=False)
        path = lambda_path(s, nlambda=8, lambda_min_ratio=1e-3)
        ratios = path.values[1:] / path.values[:-1]
        np.testing.assert_allclose(ratios, ratios[0], atol=1e-12)
        assert path.values[0] == pytest.approx(
            np.abs(s - np.diag(np.diag(s))).max(), abs=1e-15
        )
        assert path.values[-1] == pytest.approx(path.values[0] * 1e-3, rel=1e-12)

    def test_single_point_path(self):
        s = np.array([[1.0, 0.3], [0.3, 1.0]])
        path = lambda_path(s, nlambda=1)
        np.testing.assert_allclose(path.values, [0.3])

    def test_diagonal_input_has_no_path(self):
        with pytest.raises(PathError, match="off-diagonal"):
            lambda_path(np.eye(4))

    def test_bad_ratio(self):
        s = np.array([[1.0, 0.3], [0.3, 1.0]])
        with pytest.raises(PathError):
            lambda_path(s, lambda_min_ratio=1.0)
        with pytest.raises(PathError):
            lambda_path(s, lambda_min_ratio=0.0)

    def test_bad_nlambda(self):
        s = np.array([[1.0, 0.3], [0.3, 1.0]])
        with pytest.raises(PathError):
            lambda_path(s, nlambda=0)

    def test_constructor_rejects_increasing_values(self):
        with pytest.raises(PathError):
            LambdaPath(values=np.array([0.1, 0.5]), nlambda=2, lambda_min_ratio=0.1)


class TestSubsampleRatio:
    def test_small_n_uses_fixed_ratio(self):
        assert default_subsample_ratio(100) == 0.8
        assert default_subsample_ratio(144) == 0.8

    def test_large_n_shrinks(self):
        assert default_subsample_ratio(400) == pytest.approx(0.5)
        assert default_subsample_ratio(145) == pytest.approx(10 * np.sqrt(145) / 145)


def two_lambda_path():
    return LambdaPath(values=np.array([0.5, 0.05]), nlambda=2, lambda_min_ratio=0.1)


class TestStars:
    def test_fully_stable_fitter_selects_densest(self, rng, caplog):
        x = rng.normal(size=(30, 3))
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True

        def fitter(subs, lams):
            for _ in lams:
                yield np.tile(adj, (len(subs), 1, 1)), 0

        res = stars_select(x, fitter, two_lambda_path(), StarsParams(rep_num=10))
        np.testing.assert_allclose(res.instability, [0.0, 0.0])
        assert res.lambda_index == 1
        assert res.lam == pytest.approx(0.05)
        assert res.threshold_met
        assert res.network.edge_set() == {(0, 1)}
        assert res.unconverged_fits == 0
        assert not caplog.records

    def test_coin_flip_fitter_hits_maximum_instability(self, rng, caplog):
        x = rng.normal(size=(20, 2))
        calls = {"k": 0}

        def fitter(subs, lams):
            # alternate the lone edge on and off across subsamples; the
            # final full-data refit lands on the "on" phase
            for _ in lams:
                out = []
                for _ in subs:
                    on = calls["k"] % 2 == 0
                    calls["k"] += 1
                    adj = np.full((2, 2), on, dtype=bool)
                    np.fill_diagonal(adj, False)
                    out.append(adj)
                yield np.stack(out), 0

        res = stars_select(
            x, fitter, two_lambda_path(), StarsParams(rep_num=10),
            method="coin_flip",
        )
        # selection frequency 1/2 gives edge variability 2*f*(1-f) = 1/2
        np.testing.assert_allclose(res.instability, 0.5, atol=1e-12)
        assert not res.threshold_met
        assert res.lambda_index == 0
        assert res.network.edge_set() == {(0, 1)}
        [record] = caplog.records
        assert record.levelname == "WARNING"
        assert record.name == "taxonet"
        assert "coin_flip" in record.getMessage()
        assert "instability 0.5" in record.getMessage()

    def test_monotonization_from_sparse_end(self, rng):
        x = rng.normal(size=(20, 2))
        calls = {"k": 0}

        def fitter(subs, lams):
            # first penalty unstable, second perfectly stable
            for k in range(len(lams)):
                out = np.zeros((len(subs), 2, 2), dtype=bool)
                for r in range(len(subs)):
                    on = calls["k"] % 2 == 0 if k == 0 else True
                    calls["k"] += 1
                    out[r, 0, 1] = out[r, 1, 0] = on
                yield out, 0

        res = stars_select(x, fitter, two_lambda_path(), StarsParams(rep_num=10))
        # the unstable sparse end poisons everything denser than it, so the
        # stable second penalty is never fitted
        np.testing.assert_allclose(res.instability, [0.5], atol=1e-12)
        np.testing.assert_allclose(res.monotone_instability, [0.5], atol=1e-12)
        assert res.lambda_index == 0
        assert not res.threshold_met

    def test_walk_stops_after_first_unstable_penalty(self, rng):
        x = rng.normal(size=(20, 2))
        path = LambdaPath(
            values=np.geomspace(0.5, 0.005, 5), nlambda=5, lambda_min_ratio=0.01
        )
        drawn = []

        def fitter(subs, lams, unstable_from):
            # stable, then half the subsamples gain the edge from penalty
            # ``unstable_from`` on; each fit reports one unconverged fit
            for k, lam in enumerate(lams):
                drawn.append((len(subs), float(lam)))
                out = np.zeros((len(subs), 2, 2), dtype=bool)
                if len(subs) > 1 and k >= unstable_from:
                    out[::2, 0, 1] = out[::2, 1, 0] = True
                yield out, len(subs)

        res = stars_select(
            x, lambda s, l: fitter(s, l, 2), path, StarsParams(rep_num=10)
        )
        assert drawn == [(10, lam) for lam in path.values[:3]] + [(1, path.values[1])]
        np.testing.assert_allclose(res.instability, [0.0, 0.0, 0.5])
        assert res.lambda_index == 1
        assert res.threshold_met
        assert res.unconverged_fits == 3 * 10 + 1

        drawn.clear()
        res = stars_select(
            x, lambda s, l: fitter(s, l, 5), path, StarsParams(rep_num=10)
        )
        assert drawn == [(10, lam) for lam in path.values] + [(1, path.values[4])]
        np.testing.assert_allclose(res.instability, 0.0)
        assert res.lambda_index == 4
        assert res.unconverged_fits == 5 * 10 + 1

    def test_subsamples_are_distinct_rows_of_requested_size(self, rng):
        n = 10
        x = np.column_stack([np.arange(float(n)), np.arange(float(n)) * 2])
        seen = []

        def fitter(subs, lams):
            seen.extend(sub[:, 0].copy() for sub in subs)
            for _ in lams:
                yield np.zeros((len(subs), 2, 2), dtype=bool), 0

        stars_select(
            x,
            fitter,
            two_lambda_path(),
            StarsParams(rep_num=5, subsample_ratio=0.5),
        )
        subsamples = seen[:-1]   # last call is the full-data refit
        assert len(subsamples) == 5
        for rows in subsamples:
            assert len(rows) == 5
            assert len(np.unique(rows)) == 5
            assert np.all(np.diff(rows) > 0)

    def test_seed_reproducibility(self, rng):
        x = rng.normal(size=(40, 3))

        def fitter(subs, lams):
            rs = [np.corrcoef(sub, rowvar=False) for sub in subs]
            for lam in lams:
                yield np.array([np.abs(r) > lam for r in rs]), 0

        a = stars_select(x, fitter, two_lambda_path(), StarsParams(rep_num=8, seed=3))
        b = stars_select(x, fitter, two_lambda_path(), StarsParams(rep_num=8, seed=3))
        np.testing.assert_array_equal(a.instability, b.instability)
        assert a.network.edge_set() == b.network.edge_set()


class TestEbicScore:
    def test_formula(self):
        assert ebic_score(-10.0, 3, 100, 8, 0.5) == pytest.approx(
            20.0 + 3 * np.log(100) + 4 * 3 * 0.5 * np.log(8)
        )

    def test_gamma_zero_is_bic(self):
        for e in (0, 2, 7):
            assert ebic_score(-5.0, e, 50, 12, 0.0) == pytest.approx(
                10.0 + e * np.log(50)
            )

    def test_gamma_term_scales_with_edges(self):
        base = ebic_score(0.0, 4, 100, 10, 0.0)
        assert ebic_score(0.0, 4, 100, 10, 0.7) - base == pytest.approx(
            4 * 4 * 0.7 * np.log(10)
        )


class TestEbicChoose:
    def test_least_ebic_wins(self):
        scores = np.array([[0.5, 12.0, 0], [0.2, 9.0, 3], [0.1, 10.0, 5]])
        assert ebic_choose(scores) == 1

    def test_ties_at_ten_decimals_go_to_fewer_edges(self):
        scores = np.array([[0.5, 9.0 + 1e-12, 4], [0.2, 9.0, 3], [0.1, 9.0, 5]])
        assert ebic_choose(scores) == 1

    def test_then_to_the_larger_penalty(self):
        scores = np.array([[0.1, 9.0, 3], [0.5, 9.0, 3], [0.2, 9.0, 3]])
        assert ebic_choose(scores) == 1
