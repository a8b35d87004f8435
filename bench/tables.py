"""Seeded count tables for the benchmark workloads.

Every table carries a planted chain: the latent log-abundances are Gaussian
with the precision of a chain 0-1-...-(p-1) whose partial correlations
alternate in sign (see ``mixed_chain_precision``), so the chain pairs are the
true edges.  The same seed always gives the same table.
"""

from __future__ import annotations

import numpy as np


def mixed_chain_precision(p: int) -> np.ndarray:
    """Chain precision with alternating edge weights (-0.35, +0.5, ...)."""
    omega = np.eye(p)
    for i in range(p - 1):
        omega[i, i + 1] = omega[i + 1, i] = -0.35 if i % 2 == 0 else 0.5
    return omega


def _latent(p: int, n: int, rng) -> np.ndarray:
    chol = np.linalg.cholesky(np.linalg.inv(mixed_chain_precision(p)))
    return rng.standard_normal((n, p)) @ chol.T


def chain_table(seed: int, p: int, n: int) -> np.ndarray:
    """Exponentiated latent, closed, scaled to depth 1e4 and rounded."""
    basis = np.exp(_latent(p, n, np.random.default_rng(seed)))
    return np.round(basis / basis.sum(axis=1, keepdims=True) * 1e4)


def acceptance_table(seed: int) -> np.ndarray:
    """20 taxa x 80 samples; seed 7 gives the acceptance test's fixture."""
    return chain_table(seed, 20, 80)


def _poisson_table(seed: int, p: int, n: int, spread: float, depth: float) -> np.ndarray:
    """Poisson counts around a closed composition whose mean log-abundance
    falls linearly by ``spread`` from the first taxon to the last."""
    rng = np.random.default_rng(seed)
    logits = _latent(p, n, rng) - np.linspace(0.0, spread, p)
    comp = np.exp(logits)
    comp /= comp.sum(axis=1, keepdims=True)
    counts = rng.poisson(comp * depth).astype(float)
    # every sample keeps a read, so each row has a nonzero entry
    counts[:, 0] = np.maximum(counts[:, 0], 1.0)
    return counts


def zeroheavy_table(seed: int) -> np.ndarray:
    """40 taxa x 120 samples, uneven abundances, shallow depth.  The rarest
    taxon is kept in exactly one sample, so most subsamples see it as a
    constant column."""
    counts = _poisson_table(seed, 40, 120, spread=6.0, depth=250.0)
    last = counts[:, -1]
    keep = int(np.argmax(last))
    last[:] = 0.0
    last[keep] = 1.0
    return counts


def wide_table(seed: int) -> np.ndarray:
    """200 taxa x 300 samples with moderate depth."""
    return _poisson_table(seed, 200, 300, spread=5.0, depth=3000.0)


def write_tsv(counts: np.ndarray, path: str) -> None:
    """Samples in rows, taxa in columns, integer counts."""
    n, p = counts.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("sample\t" + "\t".join(f"T{j:03d}" for j in range(p)) + "\n")
        for i, row in enumerate(counts):
            fh.write(f"s{i:03d}\t" + "\t".join(str(int(v)) for v in row) + "\n")
