"""L1 solvers: gram-driven lasso coordinate descent and the graphical lasso.

The lasso kernel works entirely from sufficient statistics (a gram/
covariance block V and a target vector b), which lets the same routine
serve the graphical-lasso inner problem and neighborhood selection driven
by a correlation matrix alone.  Its batched twin solves many independent
problems side by side with the same arithmetic, which keeps plain numpy
fast without a JIT.  One graphical-lasso solver runs every fit, one scalar
penalty per problem, on a stack of problems and picks the kernel by the
working stack's size: the scalar kernel for a stack of one, the batched
kernel for more.  A fit held to a known support has no penalty and needs no
lasso: :func:`graphical_lasso_support` solves each column exactly.

Each inner lasso solve of the graphical lasso (Friedman, Hastie &
Tibshirani, *Biostatistics* 2008) ends exactly: coordinate descent to a
loose tolerance finds the active set and its signs, one linear solve gives
the solution on them (the active-set step of Lee et al., "Efficient sparse
coding algorithms", NIPS 2006), and the lasso's optimality conditions,
checked as computed, certify it.  A certified solve is converged.  A solve
whose coordinate descent stops at ``LASSO_MAX_SWEEPS`` without a
certificate is capped, and its fit is not converged.  A fit that meets a
singular block of its working covariance, as with p >= n, is solved again
from the start by coordinate descent alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

try:
    from numba import njit
except ImportError:  # numba is optional: without it _cd_gram runs as plain Python

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


GLASSO_TOL = 1e-4
GLASSO_MAX_ITER = 200
LASSO_TOL = 1e-6
LASSO_MAX_SWEEPS = 1000
# inner solves must be tighter than the outer covariance tolerance
GLASSO_INNER_TOL = 1e-9
# an inner solve first runs coordinate descent to this tolerance, then tries
# the exact solve on its active set; each failed try tightens it 100-fold,
# down to GLASSO_INNER_TOL
GLASSO_INNER_LOOSE_TOL = 1e-2
# a node's variance given its neighbours below this share of its own
# variance means a singular block, in a support-constrained fit and in the
# inner problems whose exact solution a graphical-lasso fit certifies
SUPPORT_RTOL = 1e-10
# largest number of float64 entries one working array of a batched
# graphical-lasso solve may hold; bigger batches are solved in slices
BATCH_MAX_ENTRIES = 1 << 19


@njit(cache=True)
def _cd_gram(v, b, beta, lam, tol, max_sweeps):
    """Coordinate descent for min 0.5 b'Vb - b.beta + sum_k lam[k]|beta_k|.

    ``lam`` holds one penalty per coordinate (an infinite entry pins that
    coordinate at zero).  ``beta`` is updated in place; returns the sweep
    count.  Scalars are kept as Python floats and the gradient is updated
    as one vector, which is what makes the uncompiled kernel fast enough.
    """
    p = b.shape[0]
    grad = b - v @ beta
    cols = np.ascontiguousarray(v.T)
    diag = [float(v[k, k]) for k in range(p)]
    pen = [float(lam[k]) for k in range(p)]
    for sweep in range(max_sweeps):
        max_delta = 0.0
        for k in range(p):
            vkk = diag[k]
            if vkk <= 0.0:
                continue
            old = float(beta[k])
            lk = pen[k]
            rho = float(grad[k]) + vkk * old
            if rho > lk:
                new = (rho - lk) / vkk
            elif rho < -lk:
                new = (rho + lk) / vkk
            else:
                new = 0.0
            delta = new - old
            if delta != 0.0:
                beta[k] = new
                grad -= cols[k] * delta
                ad = abs(delta)
                if ad > max_delta:
                    max_delta = ad
        if max_delta < tol:
            return sweep + 1
    return max_sweeps


def _cd_gram_batch(v, b, beta, lam, tol, max_sweeps, group=None):
    """:func:`_cd_gram` over a batch of independent problems at once.

    Problem ``i`` has gram ``v[group[i]]`` (``v[i]`` when ``group`` is
    None), target ``b[i]``, penalties ``lam[i]`` and iterate ``beta[i]``,
    which is updated in place.  Coordinates are visited one at a time in
    the scalar kernel's order with its arithmetic, vectorized across
    problems; a problem stops at the sweep at which the scalar kernel
    would stop and is then dropped from the working set.  Returns the
    per-problem sweep counts.
    """
    n, p = b.shape
    group = np.arange(n) if group is None else np.asarray(group)
    cols = np.ascontiguousarray(np.swapaxes(v, 1, 2))   # cols[g, k] = v[g][:, k]
    grad = np.array(b, dtype=np.float64)
    warm = np.flatnonzero(beta.any(axis=1))
    for i in warm:
        grad[i] -= v[group[i]] @ beta[i]
    diag = np.diagonal(v, axis1=1, axis2=2)[group]
    movable = diag > 0.0
    skip = not movable.all()
    scale = np.where(movable, diag, 1.0)
    lam = np.broadcast_to(lam, (n, p))
    idx = np.arange(n)
    x = np.array(beta, dtype=np.float64)
    sweeps = np.full(n, max_sweeps)
    for sweep in range(max_sweeps):
        max_delta = np.zeros(len(idx))
        for k in range(p):
            old = x[:, k]
            rho = grad[:, k] + diag[:, k] * old
            # |rho| - lam clipped at 0 and given rho's sign is exactly the
            # scalar kernel's (rho - lam) or (rho + lam) branch, or zero
            mag = np.abs(rho) - lam[:, k]
            np.maximum(mag, 0.0, out=mag)
            new = np.copysign(mag, rho) / scale[:, k]
            if skip:
                new = np.where(movable[:, k], new, old)
            delta = new - old
            x[:, k] = new
            grad -= cols[group, k] * delta[:, None]
            np.maximum(max_delta, np.abs(delta), out=max_delta)
        done = max_delta < tol
        if done.any():
            beta[idx[done]] = x[done]
            sweeps[idx[done]] = sweep + 1
            keep = ~done
            idx, x, grad, group = idx[keep], x[keep], grad[keep], group[keep]
            diag, movable, scale, lam = diag[keep], movable[keep], scale[keep], lam[keep]
            if not len(idx):
                break
    beta[idx] = x
    return sweeps


def _active_set_solve(v, b, beta, lam):
    """Exact lasso solutions on the active sets of a stack of iterates.

    For problem ``i``, with active set A where ``beta[i]`` is nonzero and
    its signs s_A, solves V_AA x_A = b_A - lam_i s_A with x zero off A, as
    one stacked linear solve of systems that hold the identity on the
    inactive coordinates; every V must pass :func:`_nonsingular`.  ``lam``
    is an (n, 1) column of penalties.  Returns x and, per problem, whether
    x passes the lasso's optimality (KKT) conditions as computed: every
    sign on A is kept and |b - V x| <= lam off A.  Each problem's bits do
    not depend on the others in the stack.
    """
    active = beta != 0.0
    sign = np.sign(beta)
    m = np.where(active[:, :, None] & active[:, None, :], v, np.eye(b.shape[1]))
    rhs = np.where(active, b - lam * sign, 0.0)
    x = np.where(active, np.linalg.solve(m, rhs[:, :, None])[:, :, 0], 0.0)
    grad = b - np.matmul(v, x[:, :, None])[:, :, 0]
    ok = np.where(active, np.sign(x) == sign, np.abs(grad) <= lam).all(axis=1)
    return x, ok


def _nonsingular(v):
    """Per matrix of a stack, whether it is positive definite with every
    variable's variance given the ones before it (a squared Cholesky
    pivot) above ``SUPPORT_RTOL`` of its own variance."""
    try:
        chol = np.linalg.cholesky(v)
    except np.linalg.LinAlgError:
        if len(v) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_nonsingular(v[i : i + 1]) for i in range(len(v))])
    pivots = np.diagonal(chol, axis1=1, axis2=2) ** 2
    return (pivots > SUPPORT_RTOL * np.diagonal(v, axis1=1, axis2=2)).all(axis=1)


def _coordinate_descent(v, b, beta, pen, tol):
    """Run the lasso kernel on a stack of problems, updating ``beta`` in
    place; returns the sweep counts.  A stack of one goes through the scalar
    kernel, which is faster for a single problem; the batched kernel gives
    the same bits, once its -0.0 entries are made +0.0."""
    if len(b) == 1:
        return np.array([_cd_gram(v[0], b[0], beta[0], pen[0], tol, LASSO_MAX_SWEEPS)])
    sweeps = _cd_gram_batch(v, b, beta, pen, tol, LASSO_MAX_SWEEPS)
    beta += 0.0
    return sweeps


def _inner_lasso(v, b, beta, pen, certify):
    """Solve the graphical lasso's column problems min 0.5 x'Vx - b.x +
    lam |x|_1 for a stack of problems, warm-started from ``beta`` and
    updated in place.  Returns which problems are capped.

    Without ``certify``, coordinate descent runs to ``GLASSO_INNER_TOL``.
    With it, coordinate descent runs to ``GLASSO_INNER_LOOSE_TOL``, then
    :func:`_active_set_solve` tries the exact solution on the active set it
    found.  A problem whose exact solution fails its certificate goes back
    to coordinate descent at a 100-fold tighter tolerance and tries again;
    after the try at ``GLASSO_INNER_TOL`` it keeps the coordinate-descent
    iterate.  Each run of coordinate descent may use ``LASSO_MAX_SWEEPS``
    sweeps; a problem whose run stops there without a certificate is capped.
    """
    n = len(b)
    if not certify:
        return _coordinate_descent(v, b, beta, pen, GLASSO_INNER_TOL) >= LASSO_MAX_SWEEPS
    todo = np.arange(n)
    capped = np.zeros(n, dtype=bool)
    tol = GLASSO_INNER_LOOSE_TOL
    while len(todo):
        part = slice(None) if len(todo) == n else todo
        vt, bt, lt, x = v[part], b[part], pen[part], beta[part]
        sweeps = _coordinate_descent(vt, bt, x, lt, tol)
        exact, ok = _active_set_solve(vt, bt, x, lt[:, :1])
        x[ok] = exact[ok]
        beta[part] = x
        out = ~ok & (sweeps >= LASSO_MAX_SWEEPS)
        capped[todo[out]] = True
        todo = todo[~(ok | out)] if tol > GLASSO_INNER_TOL else todo[:0]
        tol = max(tol / 100, GLASSO_INNER_TOL)
    return capped


@dataclass
class PrecisionEstimate:
    """Precision matrix of one :func:`graphical_lasso` fit, whether the fit
    converged, and its outer sweep count."""

    omega: np.ndarray
    converged: bool
    n_iter: int


def _precision_diagonal(w, betas):
    """Diagonal of :func:`_assemble_precision`, with its
    positive-definiteness check."""
    n, p = w.shape[:2]
    diag = np.empty((n, p))
    for j in range(p):
        rest = np.arange(p) != j
        # a contiguous copy keeps every product on the BLAS dot, so a batch
        # gives bit for bit what a stack of one gives
        w12 = np.ascontiguousarray(w[:, rest, j])
        denom = w[:, j, j] - np.matmul(w12[:, None, :], betas[:, j, :, None])[:, 0, 0]
        if not (denom > 0).all():   # NaN too: the iterate diverged
            raise SolverError("working covariance lost positive definiteness")
        diag[:, j] = 1.0 / denom
    return diag


def _assemble_precision(w, betas):
    """Precision matrices from a (n, p, p) stack of working covariances and
    the matching (n, p, p - 1) stack of column regressions."""
    n, p = w.shape[:2]
    diag = _precision_diagonal(w, betas)
    omega = np.zeros((n, p, p))
    for j in range(p):
        rest = np.arange(p) != j
        omega[:, j, j] = diag[:, j]
        omega[:, rest, j] = -betas[:, j] * diag[:, j, None]
    omega += np.swapaxes(omega, 1, 2)
    omega *= 0.5
    return omega


def graphical_lasso(
    s: np.ndarray,
    lam: float,
    tol: float = GLASSO_TOL,
    max_iter: int = GLASSO_MAX_ITER,
) -> PrecisionEstimate:
    """L1-penalized precision estimation by blockwise coordinate descent.

    Maximizes log det(omega) - tr(S omega) - lam sum_{i!=j} |omega_ij|
    with an unpenalized diagonal.  Convergence is declared when the
    largest elementwise change of the working covariance in a sweep drops
    below ``tol`` and no inner lasso solve was capped.  An inner solve is
    converged when its exact active-set solution is certified, or when its
    coordinate descent reaches ``GLASSO_INNER_TOL``; it is capped when its
    coordinate descent used all ``LASSO_MAX_SWEEPS`` sweeps without a
    certificate.  A non-converged fit is returned flagged, not raised.
    This is :func:`graphical_lasso_batch` on a stack of one.
    """
    omega, converged, n_iter = graphical_lasso_batch(
        np.asarray(s, dtype=float)[None], [lam], tol, max_iter
    )
    return PrecisionEstimate(omega[0], bool(converged[0]), int(n_iter[0]))


def _glasso_batch_slice(s, lam, tol, max_iter, certify, omega, converged, n_iter):
    """Solve one slice of :func:`graphical_lasso_batch` into the given
    output views; ``lam`` holds the slice's penalties.  With ``certify``,
    every inner solve ends with the exact active-set solve, and a problem
    is dropped as soon as a block of its working covariance is singular by
    :func:`_nonsingular`: the certificate identifies the coordinate-descent
    answer only when each inner problem has a unique minimizer that
    coordinate descent approaches.  Returns the indices of the dropped
    problems."""
    n, p = s.shape[:2]
    asym = s - np.swapaxes(s, 1, 2)
    if np.abs(asym, out=asym).max(initial=0) > 1e-8:
        raise SolverError("input matrices must be square and symmetric")
    del asym
    # working state of the problems still iterating, compacted as they stop
    live = np.arange(n)
    w = s.copy()
    betas = np.zeros((n, p, p - 1))
    pen = np.repeat(lam[:, None], p - 1, axis=1)
    # problems with a capped inner solve: one whose coordinate descent used
    # its last allowed sweep without a certified exact solution (the kernels
    # report a solve that converged on that sweep as one stopped there, so
    # both count).  A certified solve, or one whose coordinate descent met
    # GLASSO_INNER_TOL, is converged
    capped = np.zeros(n, dtype=bool)
    dropped = [live[:0]]
    for it in range(max_iter):
        n_iter[live] = it + 1
        max_change = np.zeros(len(live))
        for j in range(p):
            rest = np.arange(p) != j
            v = np.ascontiguousarray(w[:, rest][:, :, rest])
            if certify:
                keep = _nonsingular(v)
                if not keep.all():
                    dropped.append(live[~keep])
                    live, w, betas, pen, capped, max_change, v = (
                        a[keep] for a in (live, w, betas, pen, capped, max_change, v)
                    )
                    if not len(live):
                        return np.concatenate(dropped)
            beta = betas[:, j]
            b = s[:, rest, j][live]
            capped |= _inner_lasso(v, b, beta, pen, certify)
            w12 = np.matmul(v, beta[:, :, None])[:, :, 0]
            change = np.abs(w12 - w[:, rest, j]).max(axis=1, initial=0.0)
            np.maximum(max_change, change, out=max_change)
            w[:, rest, j] = w12
            w[:, j, rest] = w12
        _precision_diagonal(w, betas)
        done = max_change < tol
        converged[live[done & ~capped]] = True
        if it == max_iter - 1:
            done[:] = True
        if done.any():
            omega[live[done]] = _assemble_precision(w[done], betas[done])
            keep = ~done
            live, w, betas, pen, capped = live[keep], w[keep], betas[keep], pen[keep], capped[keep]
            if not len(live):
                break
    return np.concatenate(dropped)


def graphical_lasso_batch(
    s: np.ndarray,
    lam,
    tol: float = GLASSO_TOL,
    max_iter: int = GLASSO_MAX_ITER,
):
    """:func:`graphical_lasso` over a stack of independent problems.

    ``s`` is a (B, p, p) stack of covariances and ``lam`` holds B
    penalties, one per problem.  Every problem starts cold and stops at
    its own convergence, and gives the bits it gives in a stack of one.
    Returns the (B, p, p) precision stack, the per-problem ``converged``
    flags and the outer sweep counts.
    """
    s = np.asarray(s, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise SolverError("input matrices must be square and symmetric")
    n, p = s.shape[:2]
    if lam.shape != (n,):
        raise SolverError("need one penalty per problem")
    if not (lam >= 0).all():
        raise SolverError("penalty must be nonnegative")
    omega = np.empty((n, p, p))
    converged = np.zeros(n, dtype=bool)
    n_iter = np.zeros(n, dtype=int)
    step = max(1, BATCH_MAX_ENTRIES // (p * p))
    for i in range(0, n, step):
        part = slice(i, i + step)
        redo = i + _glasso_batch_slice(
            s[part], lam[part], tol, max_iter, True, omega[part], converged[part], n_iter[part]
        )
        if len(redo):
            # solved again from the start by coordinate descent alone
            out = omega[redo], np.zeros(len(redo), dtype=bool), n_iter[redo]
            _glasso_batch_slice(s[redo], lam[redo], tol, max_iter, False, *out)
            omega[redo], converged[redo], n_iter[redo] = out
    return omega, converged, n_iter


def graphical_lasso_support(s: np.ndarray, support: np.ndarray) -> PrecisionEstimate:
    """Maximum-likelihood precision with known zeros: ESL Algorithm 17.1
    (Hastie, Tibshirani & Friedman, *The Elements of Statistical
    Learning*, 2nd ed., section 17.3.1).

    Maximizes log det(omega) - tr(S omega) subject to omega_ij = 0 wherever
    the symmetric boolean ``support`` is false off the diagonal.  The outer
    column loop, convergence test and positive-definiteness check are
    :func:`graphical_lasso`'s, but each column's inner problem is an
    unpenalized regression on the node's neighbours, solved exactly by one
    linear solve on their block of the working covariance.  A singular
    block, as with p > n, raises :class:`SolverError`.
    """
    s = np.asarray(s, dtype=float)
    p = s.shape[0]
    idx = np.arange(p)
    w = s.copy()
    betas = np.zeros((1, p, p - 1))
    converged = False
    for it in range(GLASSO_MAX_ITER):
        max_change = 0.0
        for j in range(p):
            rest = idx[idx != j]
            on = support[rest, j]   # which of the other nodes are neighbours
            nb = rest[on]
            try:
                coef = np.linalg.solve(w[nb[:, None], nb], s[nb, j])
            except np.linalg.LinAlgError:
                coef = None
            # node j's variance given its neighbours; when their block with j
            # is singular, what is left of it is rounding noise
            if coef is None or not w[j, j] - s[nb, j] @ coef > SUPPORT_RTOL * w[j, j]:
                raise SolverError("singular neighbour block in the working covariance")
            betas[0, j, on] = coef
            w12 = w[rest[:, None], nb] @ coef
            max_change = max(max_change, np.abs(w12 - w[rest, j]).max(initial=0.0))
            w[rest, j] = w12
            w[j, rest] = w12
        _precision_diagonal(w[None], betas)
        if max_change < GLASSO_TOL:
            converged = True
            break
    return PrecisionEstimate(_assemble_precision(w[None], betas)[0], converged, it + 1)
