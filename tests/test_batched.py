"""The batched StARS path against the scalar solvers it replaces.

Every subsample problem solved by the batched kernel must come out exactly
as the scalar kernel would have solved it on its own: same sweeps, same
coefficients, hence the same supports.
"""

import numpy as np
import pytest

from taxonet import SolverError, graphical_lasso, lambda_path
from taxonet import estimators, solvers
from taxonet.correlation import safe_correlation
from taxonet.estimators import _glasso_adjacency, _mb_adjacency_steps
from taxonet.neighborhood import mb_adjacency_path, standardize_columns
from taxonet.solvers import _cd_gram, _cd_gram_batch, graphical_lasso_batch

from conftest import chain_precision, gaussian_from_precision, lasso_from_gram


@pytest.fixture(scope="module")
def subsamples():
    """Four row subsamples of a seeded 6-taxon chain table; in the first,
    taxon 3 is constant."""
    rng = np.random.default_rng(2024)
    x = gaussian_from_precision(chain_precision(6), 30, rng)
    x[:15, 3] = 0.7
    rows = [np.arange(15)] + [np.sort(rng.choice(30, 15, replace=False)) for _ in range(3)]
    return x, np.array([x[r] for r in rows])


def sequential_mb_path(gram, lams):
    """Node-by-node lasso regressions on the scalar kernel, warm-started
    along the path and combined by the OR rule."""
    p = gram.shape[0]
    idx = np.arange(p)
    betas = [np.zeros(p - 1) for _ in range(p)]
    out = np.zeros((len(lams), p, p), dtype=bool)
    for k, lam in enumerate(lams):
        support = np.zeros((p, p), dtype=bool)
        for j in range(p):
            rest = idx != j
            v = np.ascontiguousarray(gram[np.ix_(rest, rest)])
            betas[j] = lasso_from_gram(v, gram[rest, j], lam, beta0=betas[j])
            support[j, rest] = betas[j] != 0.0
        adj = support | support.T
        np.fill_diagonal(adj, False)
        out[k] = adj
    return out


def test_batched_kernel_matches_scalar_kernel():
    rng = np.random.default_rng(7)
    n, p = 12, 7
    a = rng.normal(size=(n, p, p))
    v = a @ np.swapaxes(a, 1, 2) / p + 0.3 * np.eye(p)
    v[2, :, 4] = v[2, 4, :] = 0.0      # a coordinate the kernel must skip
    b = rng.normal(size=(n, p))
    lam = rng.uniform(0.01, 0.5, size=(n, p))
    lam[rng.random((n, p)) < 0.15] = np.inf
    beta0 = rng.normal(size=(n, p)) * (rng.random((n, p)) < 0.5)
    beta0[np.isinf(lam)] = 0.0
    batch = beta0.copy()
    sweeps = _cd_gram_batch(v, b, batch, lam, 1e-9, 1000)
    for i in range(n):
        ref = beta0[i].copy()
        ref_sweeps = _cd_gram(v[i], b[i], ref, lam[i], 1e-9, 1000)
        assert sweeps[i] == ref_sweeps
        np.testing.assert_array_equal(batch[i], ref)


def test_glasso_path_matches_sequential_fits(subsamples):
    x, subs = subsamples
    corrs = np.array([safe_correlation(s) for s in subs])
    assert np.all(corrs[0, 3, np.arange(6) != 3] == 0.0)
    lams = lambda_path(safe_correlation(x), nlambda=5).values
    steps = [_glasso_adjacency(corrs, lam) for lam in lams]
    assert [unconverged for _, unconverged in steps] == [0] * len(lams)
    batched = np.stack([adj for adj, _ in steps], axis=1)
    omega, converged, n_iter = graphical_lasso_batch(
        np.repeat(corrs, len(lams), axis=0), np.tile(lams, len(corrs))
    )
    off = ~np.eye(6, dtype=bool)
    for r, s in enumerate(corrs):
        for k, lam in enumerate(lams):
            est = graphical_lasso(s, lam)
            np.testing.assert_array_equal(batched[r, k], (est.omega != 0) & off)
            i = r * len(lams) + k
            assert converged[i] == est.converged
            assert n_iter[i] == est.n_iter
    assert batched.any() and not batched.all()


def test_glasso_batch_slices_give_the_same_fits(subsamples, monkeypatch):
    _, subs = subsamples
    corrs = np.array([safe_correlation(s) for s in subs])
    lam = np.full(len(corrs), 0.1)
    whole = graphical_lasso_batch(corrs, lam)
    monkeypatch.setattr(solvers, "BATCH_MAX_ENTRIES", 2 * 6 * 6)
    sliced = graphical_lasso_batch(corrs, lam)
    for a, b in zip(whole, sliced):
        np.testing.assert_array_equal(a, b)


def test_mb_path_matches_sequential_regressions(subsamples, monkeypatch):
    x, subs = subsamples
    zs = [standardize_columns(s) for s in subs]
    grams = np.array([z.T @ z / z.shape[0] for z in zs])
    assert grams[0, 3, 3] == 0.0   # the constant column is immovable
    lams = lambda_path(safe_correlation(x), nlambda=6).values
    batched, unconverged = mb_adjacency_path(grams, lams)
    assert unconverged == 0
    for r, gram in enumerate(grams):
        np.testing.assert_array_equal(batched[r], sequential_mb_path(gram, lams))
    assert batched.any() and not batched.all()
    # the path walked one penalty at a time, as StARS draws it, carries one
    # warm-start stack from penalty to penalty and gives the same supports
    starts = []

    def recording(grams, lambdas, rule="or", betas=None):
        starts.append((betas, None if betas is None else betas.copy()))
        return mb_adjacency_path(grams, lambdas, rule, betas)

    monkeypatch.setattr(estimators, "mb_adjacency_path", recording)
    steps = [adj for adj, _ in _mb_adjacency_steps(grams, lams, "or")]
    np.testing.assert_array_equal(np.stack(steps, axis=1), batched)
    assert all(b is starts[0][0] for b, _ in starts)
    assert not starts[0][1].any() and starts[-1][1].any()


def test_constant_column_standardizes_to_exact_zeros(subsamples):
    # centering fifteen 0.7 values alone leaves ~1e-16 rounding residue
    _, subs = subsamples
    assert np.ptp(subs[0][:, 3]) == 0.0
    assert (subs[0][:, 3] - subs[0][:, 3].mean()).any()
    z = standardize_columns(subs[0])
    gram = z.T @ z / z.shape[0]
    assert (z[:, 3] == 0.0).all()
    assert (gram[3] == 0.0).all() and (gram[:, 3] == 0.0).all()
    np.testing.assert_allclose(np.diag(gram)[[0, 1, 2, 4, 5]], 1.0)


def test_glasso_batch_rejects_bad_input():
    s = np.stack([np.eye(3), np.eye(3)])
    asym = s.copy()
    asym[1, 0, 2] = 0.5
    with pytest.raises(SolverError, match="symmetric"):
        graphical_lasso_batch(asym, [0.1, 0.1])
    with pytest.raises(SolverError, match="nonnegative"):
        graphical_lasso_batch(s, [0.1, -0.1])
    with pytest.raises(SolverError, match="one penalty"):
        graphical_lasso_batch(s, [0.1])
