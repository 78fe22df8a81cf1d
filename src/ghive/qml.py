"""Per-response estimation: modified quasi-likelihood and naive MLE.

Each response column is fit separately by maximising either

* the modified quasi-log-likelihood
  ``Q(f) = (1/n) sum_i integral_0^{f.x_i} (y_i - b'(s)) / b''(s) ds``
  whose closed-form terms live in :mod:`ghive.families`, or
* the ordinary log-likelihood ``(1/n) sum_i [y_i f.x_i - b(f.x_i)]``
  (the naive baseline that ignores hidden confounding).

Each objective has two named kernels. :func:`quasi_objective` and
:func:`loglik_objective` return the mean objective at a coefficient row or
block and the predictors ``eta = x . coef`` it was evaluated at;
:func:`quasi_gradient` and :func:`loglik_gradient` take those predictors and
return the gradient and the input of the curvature weight: the weighted
residual for :func:`~ghive.families.hessian_weight`, or ``b'`` for
:func:`~ghive.families.cumulant_d2`. A column block picks its objective,
gradient and weight once, by the kind of fit, and runs on them alone.

Both use the same damped Newton ascent: solve the Newton system against the
negated Hessian (one batched Cholesky solve over a block's columns, see
:func:`_cholesky_solve`, which flags each matrix whose factorisation
fails; the flagged columns are solved again as one stack after
:func:`bump_diagonal`), fall back to a plain gradient step when the
curvature matrix is not usable, and halve the step until the objective
strictly increases.
Accepted iterates therefore have a monotone objective path. The full step is
tried first; the halvings after it run in stacked rounds, each evaluating
some of a column's next steps ``2**-j`` in one objective call, and the
column takes the first of them that increases the objective: the step the
one-at-a-time search would take. Each round shares the block's candidate
rows, the larger of its columns and ``STACK_ELEMENTS // n``, among its
failing columns, at least one halving each: a column stalled alone runs its
29 halvings in one call on a 100-row fold, and in four (8, 8, 8, 5) on a
5000-row fold's block of 8 columns. A column stops once its
gradient sup-norm is below TOL, after MAX_ITER iterations or when no step
increases the objective. This stopping rule belongs to the solver, so no
caller sets it; a fit document records both constants.

As in IRLS, each iterate is evaluated once: the predictors ``x . f`` of the
candidate a column accepts serve its next gradient and curvature, and the
score residual behind the gradient also gives the curvature weight (the
quasi-Hessian weight, or ``b''`` from the gradient's ``b'``), with the same
bits as evaluating each quantity afresh.

On small folds an iteration's arithmetic is a few microseconds per column,
so its fixed cost, the numpy calls the loop makes, weighs as much. The loop
skips the calls that no column's arithmetic needs, and each call it makes
has the bits of the call it replaces. :func:`_cholesky_solve` calls the
LAPACK gufuncs behind ``np.linalg.cholesky`` and ``np.linalg.solve``
directly, without the wrappers' argument checks: the same LAPACK routines
on the same arrays. Row means are ``np.add.reduce`` over n, the reduction
and the division ``np.mean`` performs. One helper, :func:`_cap_rows`,
caps starts and line-search candidates at RADIUS and Newton directions at
``2 * RADIUS``; it and the gradient fallback assign nothing when no row
needs it. The full step is evaluated without the halving rounds'
bookkeeping, its candidates ``f + d`` having the bits of ``f + 1.0 * d``.
A gathered block copies its live columns' design and response rows only
when a column stops, not on every iteration.

One ascent solves many coefficient columns at once (every response, and both
starts of a quasi-likelihood fit outside the gaussian family, whose fit climbs
from zero alone): predictors, gradients and curvatures are stacked matmuls
over the columns, while each column steps and stops by its own rules,
bit-identical to solving it alone. :func:`_newton_ascent` is the one way in:
it takes ``(x, y)`` designs of any row counts (both folds of a fit, the
folds of many datasets in ``ghive_fit_many`` and :func:`fit_naive_many`, an
oracle draw) and runs their columns in blocks whose (columns, n) working
arrays stay within BLOCK_ELEMENTS. The columns of a block may sit on
different designs of one row count: such a block gathers each column's
design rows, and its products stay per-column batched matmuls, so a column
keeps its bits. Designs share a block while the gathered (columns, n, p)
rows fit BLOCK_ELEMENTS too: both 100-row folds of a fit at p = 4 with 20
responses run as one block per stage, as do the 40 folds of a study grid
point. A design whose columns fill that alone (the folds of a 5000-row or a
2000-row, 50-response fit, a 100k-row oracle fit) runs by itself, its design
broadcast over blocks of ``BLOCK_ELEMENTS // n`` columns. The ascent returns
stacked arrays, coefficients (designs, C, p) and gradient sup-norms
(designs, C), so callers split them by axis; :func:`_fit_matrix` adds only
the start rule, and :func:`fit_naive_many` wraps each design's rows in a
:class:`CoefMatrix`.

Each :func:`_newton_ascent` call allocates one float workspace, sized for
its largest block, and every block carves its (columns, n) arrays out of it
as views: the predictors; the gradient's residual, later a line-search
round's candidate predictors; the curvature weight, later the objective
terms; the kernels' temporaries; and the :func:`gram_buffer`. The kernels
write into these arrays, passed as ``out``, and allocate their own when
called without them, as :mod:`ghive.inference` and the tests call them,
with the same bits either way. So a block's iterations, and the blocks
after it, reuse the pages the first block touched rather than map and
page-fault fresh arrays; the workspace goes when the call returns, and
nothing is kept across calls.

:func:`weighted_gram` sums each column's curvature matrix over consecutive
row chunks sized by p alone, so its operands stay in cache and its bits do
not depend on the columns beside it; each chunk's rows are scaled for a
chunk of columns at a time, and the whole (columns, p, n) weighted design
never exists. The interval curvature matrices are built by
one :func:`weighted_gram` call over all responses, with the same chunks.

The two-fold split used for cross-fitting is a seeded permutation; all
randomness here is confined to :func:`make_split`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .data_io import Dataset
from .errors import DataValidationError, require_instance, require_integer
from .families import (
    VARIANCE_FLOOR,
    GlmFamily,
    cumulant,
    cumulant_d1,
    cumulant_d2,
    hessian_weight,
    is_quadratic,
    quasi_residual,
    quasi_response,
    quasi_term,
    validate_response,
)

TOL = 1e-8
MAX_ITER = 100
MAX_STEP_HALVINGS = 30

# Element budget (1 MB) of a column block's per-column working set: its
# (columns, n) predictors, responses, residuals and weights, all but the
# responses views of the solve's workspace (see _block_size). A solve with
# more columns runs them in several blocks, each paying its own iteration and
# line-search bookkeeping, so a 5000-row fold runs up to 26 columns in one
# block while a 100k-row oracle fit still runs one column at a time. The same
# budget bounds the (columns, p, rows) buffer of scaled design rows that
# weighted_gram fills for a chunk of columns at a time (see gram_buffer), and
# the (columns, n, p) design rows that a block of several designs gathers (see
# _newton_ascent).
BLOCK_ELEMENTS = 2**17

# Element budget of the (candidates, n) predictors of one stacked round of
# step halvings (64 KB). A block's workspace holds max(columns,
# STACK_ELEMENTS // n) candidate rows (see _block_size), and every round
# after the full step shares them among the failing columns: a stalled
# column on a 100-row fold gets all its halvings in one objective call, and
# one stalled alone in a block of 8 columns on a 5000-row fold gets 8 per
# call. A fit-large op makes 264 objective calls on 2210 coefficient rows
# (median of pool entries 0-3, scripts/ab.py REV --workload fit-large
# --pairs 4).
# A larger budget makes fewer calls but evaluates more halvings that no
# column takes: with BLOCK_ELEMENTS // n candidate rows a fit-small op made
# 106 instead of 132 calls, on 1.00M instead of 0.61M row elements, and took
# 10% more CPU (paired ratio 1.10, slower in 23 of 24 pairs; 2-core Xeon VM,
# one BLAS thread); a fit-large op made 209 calls on 14.4M instead of 13.25M
# row elements, with about twice the minor page faults.
STACK_ELEMENTS = 2**13

# Element budget (128 KB) of one column's (p, rows) chunk of scaled design
# rows in weighted_gram: each curvature matrix is summed over consecutive
# chunks of _GRAM_ELEMENTS // p rows (4096 at p = 4, 819 at p = 20), small
# enough for the operands of each product to stay in cache. The row count
# fixes the summation order, hence the bits, of every matrix, so it depends on
# p alone; it has its own constant so that tests shrinking STACK_ELEMENTS
# change only the line search. 2**14 beat 2**13 by 5% on a 100k-row, p = 4
# oracle fit and tied it on 5000-row, p = 20 folds (one BLAS thread).
_GRAM_ELEMENTS = 2**14

# Coefficient-norm bound for the quasi-likelihood ascent. The quasi-objective
# rewards correctly classified bernoulli observations linearly in the linear
# predictor, so on (near-)separated folds the unconstrained maximum sits at
# infinity or at an absurd norm; the theory behind the estimator restricts
# attention to a compact coefficient class anyway (a lower bound on b'' along
# fitted predictors amounts to the same thing). Fits are therefore maximised
# over the L2 ball of this radius. Population-level coefficient rows in every
# setting exercised by the study and the tests stay below norm 6.2 (the
# largest, 6.12, is a gaussian fig1-bias row at eta = 10), so the bound leaves
# regular problems untouched.
RADIUS = 20.0


@dataclass(frozen=True)
class SplitPlan:
    """A two-fold partition of row indices {0..n-1}.

    ``d1`` holds ceil(n/2) indices, ``d2`` the rest; both are sorted.
    The plan is a deterministic function of (n, seed).
    """

    n: int
    seed: int
    d1: np.ndarray
    d2: np.ndarray


def make_split(n: int, seed: int) -> SplitPlan:
    """Randomly split ``range(n)`` into two folds via a seeded permutation."""
    require_integer("n", n, low=2)
    require_integer("split seed", seed, low=0)
    perm = np.random.default_rng(seed).permutation(n)
    half = (n + 1) // 2
    d1 = np.sort(perm[:half])
    d2 = np.sort(perm[half:])
    return SplitPlan(n=n, seed=seed, d1=d1, d2=d2)


def check_fold_rows(n: int, p: int) -> None:
    """Refuse n rows whose smaller :func:`make_split` fold, n // 2 rows, cannot fit p covariates."""
    if n // 2 < p:
        msg = f"n={n} leaves a fold of {n // 2} rows, too few for p={p} covariates"
        raise DataValidationError(msg)


@dataclass
class CoefMatrix:
    """Stacked per-response coefficient fits.

    values     : (M, p) coefficient rows
    grad_norm  : final gradient sup-norms, (M,) for one fit per response or
                 (M, 2) for a fold average, one column per fold
    family     : the family the coefficients were fitted under
    """

    values: np.ndarray
    grad_norm: np.ndarray
    family: GlmFamily

    @property
    def converged(self) -> np.ndarray:
        """Whether each fit's gradient sup-norm is below TOL, shaped as ``grad_norm``."""
        return self.grad_norm < TOL


# ---------------------------------------------------------------------------
# objective / gradient evaluations, at one ``coef`` (p,) with y (n,) or row by
# row at a block (C, p) with y (C, n), by stacked matmuls and row means only


def _eta(x: np.ndarray, coef, out=None) -> np.ndarray:
    coef = np.asarray(coef, dtype=float)[..., None]
    return np.matmul(x, coef, out=None if out is None else out[..., None])[..., 0]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (C, p) blocks."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_mean(terms: np.ndarray):
    """``np.mean(terms, axis=-1)`` bit for bit: the reduction and the division
    it performs, without its wrapper's dispatch."""
    return np.add.reduce(terms, axis=-1) / terms.shape[-1]


def _gradient(x: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Mean of ``score`` times x: the gradient, given the score residual."""
    return (x.swapaxes(-1, -2) @ score[..., None])[..., 0] / x.shape[-2]


# Each kernel below allocates its (rows, n) arrays, or writes them into
# ``out``, arrays of the predictors' shape: for an objective the predictors,
# the terms and a temporary; for a gradient the curvature weight's input and
# a temporary.


def quasi_objective(x: np.ndarray, r: np.ndarray, family: GlmFamily, coef, out=(None,) * 3):
    """Mean modified quasi-log-likelihood at ``coef``, and the predictors
    ``eta = x . coef`` it was evaluated at. ``r`` is the response as
    :func:`~ghive.families.quasi_response` forms it."""
    eta, term, tmp = out
    eta = _eta(x, coef, eta)
    return _row_mean(quasi_term(family, r, eta, out=term, tmp=tmp)), eta


def quasi_gradient(
    x: np.ndarray, r: np.ndarray, family: GlmFamily, eta: np.ndarray, out=(None,) * 2
):
    """Gradient of :func:`quasi_objective` at the predictors ``eta``, the mean
    of weighted residual times x, and that residual, from which
    :func:`~ghive.families.hessian_weight` gives the curvature weight."""
    res, tmp = out
    residual = quasi_residual(family, r, eta, VARIANCE_FLOOR, out=res, tmp=tmp)
    return _gradient(x, residual), residual


def loglik_objective(x: np.ndarray, y: np.ndarray, family: GlmFamily, coef, out=(None,) * 3):
    """Mean ordinary log-likelihood (up to the y-only term) at ``coef``, and
    the predictors ``eta = x . coef`` it was evaluated at."""
    eta, b, tmp = out
    eta = _eta(x, coef, eta)
    b = cumulant(family, eta, out=b, tmp=tmp)
    with np.errstate(invalid="ignore"):
        term = np.multiply(y, eta, out=tmp)
        term -= b
        return _row_mean(term), eta


def loglik_gradient(
    x: np.ndarray, y: np.ndarray, family: GlmFamily, eta: np.ndarray, out=(None,) * 2
):
    """Gradient of :func:`loglik_objective` at the predictors ``eta``, the mean
    of ``y - b'`` times x, and ``b'``, from which
    :func:`~ghive.families.cumulant_d2` gives the curvature weight."""
    d1, tmp = out
    d1 = cumulant_d1(family, eta, out=d1)
    return _gradient(x, np.subtract(y, d1, out=tmp)), d1


def gram_buffer(x: np.ndarray, n_cols: int, out=None) -> np.ndarray:
    """A buffer for :func:`weighted_gram` over ``x`` (n, p), or (C, n, p),
    with up to ``n_cols`` weight rows: room for one row chunk of the scaled
    design, (columns, p, rows), with ``rows = min(n, _GRAM_ELEMENTS // p)``
    and as many columns as keep it within BLOCK_ELEMENTS (at least one of
    each). Given ``out``, a flat float array, the buffer is a view of its
    first elements."""
    width, p, rows = shape = _gram_shape(*x.shape[-2:], n_cols)
    return np.empty(shape) if out is None else out[: width * p * rows].reshape(shape)


def _gram_shape(n: int, p: int, n_cols: int) -> tuple:
    rows = min(n, max(1, _GRAM_ELEMENTS // p))
    return max(1, min(n_cols, BLOCK_ELEMENTS // (p * rows))), p, rows


def weighted_gram(x: np.ndarray, weights: np.ndarray, xt=None, buf=None) -> np.ndarray:
    """``x.T @ diag(w) @ x`` for each row w of ``weights`` (C, n), without the
    diagonal matrix: (C, p, p).

    ``x`` is one (n, p) design for every weight row, or (C, n, p), each
    row's own design. The weights scale ``xt``: for one design a C-contiguous
    copy of ``x.T``, so the product runs along rows of length n rather than
    p (a caller building many grams over one x makes that copy once and
    passes it); for many, the transposed view of ``x``. Each column's gram is the
    sum, in row order, of its products over consecutive chunks of ``rows``
    rows: per chunk, one pass scales the rows into ``buf`` (from
    :func:`gram_buffer`, which fixes ``rows``; a caller building grams on
    every iteration passes the same one) for a chunk of columns, and
    ``x[s:e].T`` times each column's scaled rows is added to its gram. A
    chunk's operands stay in cache, and no call holds the whole (C, p, n)
    weighted design. ``rows`` depends on p alone, so a column's sum does not
    depend on the columns beside it; when ``n <= rows`` it is
    ``x.T @ (weights[..., None] * x)`` bit for bit.

    On one design, weight rows with the bits of the first (every gaussian
    curvature weight is 1) get one gram, computed as above and repeated.
    """
    repeats = len(weights)
    if x.ndim == 2 and repeats > 1 and _same_rows(weights):
        weights = weights[:1]
    if xt is None:
        xt = np.ascontiguousarray(x.T) if x.ndim == 2 else x.swapaxes(-1, -2)
    if buf is None:
        buf = gram_buffer(x, len(weights))
    (n, p), rows = x.shape[-2:], buf.shape[2]
    out = np.empty((len(weights), p, p))
    part = np.empty_like(out[: len(buf)]) if n > rows else None
    for start in range(0, len(weights), len(buf)):
        cols = slice(start, start + len(buf))
        w = weights[cols]
        xc, xtc = (x, xt) if x.ndim == 2 else (x[cols], xt[cols])
        gram = out[cols]
        for s in range(0, n, rows):
            e = min(n, s + rows)
            scaled = np.multiply(xtc[..., s:e], w[:, None, s:e], out=buf[: len(w), :, : e - s])
            # the first chunk's product starts the gram; later ones add to it
            np.matmul(
                xc[..., s:e, :].swapaxes(-1, -2), scaled.swapaxes(-1, -2),
                out=part[: len(w)] if s else gram,
            )
            if s:
                gram += part[: len(w)]
    return out if len(out) == repeats else np.repeat(out, repeats, axis=0)


def _same_rows(weights: np.ndarray) -> bool:
    """Whether every row of the float ``weights`` (C, n) has the bits of row 0,
    signed zeros and NaNs included; column 0 rules most unequal rows out."""
    bits = weights.view(np.int64)
    return bool((bits[:, 0] == bits[0, 0]).all() and (bits == bits[0]).all())


def _ascent_directions(curv: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton directions from the finite negated Hessians ``curv`` (C, p, p),
    and the gradient where those are unusable.

    All columns are solved by one :func:`_cholesky_solve`, which flags each
    matrix whose factorisation fails. The flagged columns are solved again,
    as one stack, after :func:`bump_diagonal` by their smallest eigenvalue;
    a column that fails again has a NaN row, so it takes the gradient.
    """
    d, failed = _cholesky_solve(curv, grad)
    if failed.any():
        bumped = bump_diagonal(curv[failed], np.linalg.eigvalsh(curv[failed])[:, 0])
        d[failed] = _cholesky_solve(bumped, grad[failed])[0]
    usable = np.isfinite(d).all(axis=1) & (_dots(grad, d) > 0.0)
    return d if usable.all() else np.where(usable[:, None], d, grad)


def bump_diagonal(a: np.ndarray, min_eig: np.ndarray) -> np.ndarray:
    """A copy of the stack ``a`` (C, p, p) with ``1e-8 * (1 + |min_eig|)``
    added to each matrix's diagonal, ``min_eig`` (C,) its smallest
    eigenvalue: the added multiple of the identity in Nocedal & Wright,
    *Numerical Optimization*, section 3.4. The solver's retry and
    ``inference._g_matrices`` both bump by this rule."""
    delta = 1e-8 * (1.0 + np.abs(min_eig))
    return a + delta[:, None, None] * np.eye(a.shape[-1])


def _cholesky_solve(a: np.ndarray, b: np.ndarray):
    """Rows ``a[c]^{-1} b[c]`` for a stack of symmetric (p, p) matrices, by one
    batched Cholesky factorisation and two batched triangular solves, and
    a (C,) flag per matrix, true where its factorisation failed (the matrix
    is not positive definite); a flagged matrix's row is NaN. It never
    raises.

    The system solved is equilibrated by powers of two, as in LAPACK's
    ``dpoequb``: ``s = 2**-(e >> 1)`` from the exponents ``e`` of the
    diagonal, so ``s_i s_j a_ij`` has its diagonal in [0.5, 2) and its
    factor entries below sqrt(2). The scaling is exact, so it moves no bit
    of a solve that neither overflows nor underflows. Each triangular solve
    is an LU solve of an upper-triangular matrix (the lower factor with its
    rows and columns reversed, then its transpose), where LU's pivoting never
    swaps a row. A matrix's bits, and its flag, do not depend on the
    matrices beside it.

    The factorisation and the solves call the LAPACK gufuncs that
    ``np.linalg.cholesky`` and ``np.linalg.solve`` wrap, skipping those
    wrappers' checks, which cost about as much as a small stack's
    arithmetic: the same LAPACK calls on the same arrays, so the same bits.
    A gufunc fills a matrix whose factorisation fails with NaN and raises
    the invalid flag, which the wrapper turns into LinAlgError for the
    whole stack; here the flag is ignored, and a NaN factor flags that
    matrix alone. The factor of a positive definite matrix has a
    positive diagonal, so its solves cannot fail.
    """
    s = np.ldexp(1.0, -(np.frexp(a.diagonal(0, 1, 2))[1] >> 1))
    with np.errstate(invalid="ignore"):
        low = _umath_linalg.cholesky_lo(a * s[:, :, None] * s[:, None, :])
        y = _umath_linalg.solve(low[:, ::-1, ::-1], (b * s)[:, ::-1, None])[:, ::-1]
        x = s * _umath_linalg.solve(low.swapaxes(1, 2), y)[..., 0]
    return x, np.isnan(low[:, 0, 0])  # a failed factor is NaN throughout


def _cap_rows(a: np.ndarray, limit: float) -> np.ndarray:
    """Scale the rows of ``a`` (C, p) longer than ``limit``, or of NaN
    length, to that length, in place. A row whose squared norm overflows
    (entries past about 1e154) is measured after scaling by the power of two
    that brings its largest entry into [0.5, 1), which is exact, as
    ``inference.Contrast`` measures a contrast; every row whose squared norm
    is finite keeps its bits."""
    norm = np.sqrt(_dots(a, a))
    long = ~(norm <= limit)  # NaN norms included
    if long.any():
        huge = np.isinf(norm)
        if huge.any():
            a[huge] = np.ldexp(a[huge], -np.frexp(np.abs(a[huge]).max(axis=1))[1][:, None])
            norm[huge] = np.sqrt(_dots(a[huge], a[huge]))
        a[long] = a[long] * (limit / norm[long])[:, None]
    return a


def _newton_ascent(designs, family, starts, kind):
    """Damped Newton ascent on D ``(x, y)`` designs, x (n, p) with responses
    y (n, M), of any row counts: from each row c of ``starts[d]`` (D, C, p)
    on response ``y[:, c % M]`` of design d. Returns the per-column
    ``(f, value, grad_norm)``, shaped (D, C, p), (D, C) and (D, C).

    Designs of one row count share a block while the design rows gathered
    for its columns, (columns, n, p), stay within BLOCK_ELEMENTS, the budget
    of its (columns, n) arrays and gram buffer too: both folds of a
    fit-small fit (two 100-row folds, p = 4, 20 responses) run as one block
    per stage, and so do the 40 folds of a table1 grid point. A design whose
    C columns fill that alone (a fit-large or cli-roundtrip fold, the
    100k-row oracle) runs by itself, its design broadcast over blocks of
    ``BLOCK_ELEMENTS // n`` columns rather than gathered.

    Every block runs in one workspace, allocated once per call and sized for
    the largest block (see :func:`_block_size`): later blocks reuse the
    pages the first one touched, and nothing is kept across calls."""
    d_dim, c_dim, p = starts.shape
    f, value, grad_norm = np.empty(starts.shape), np.empty((d_dim, c_dim)), np.empty((d_dim, c_dim))
    plan = []  # (n, designs, columns per block of each design)
    for n in dict.fromkeys(len(x) for x, _ in designs):
        group = [d for d, (x, _) in enumerate(designs) if len(x) == n]
        per = max(1, BLOCK_ELEMENTS // (p * c_dim * n))
        for chunk in (group[g : g + per] for g in range(0, len(group), per)):
            width = min(c_dim, max(1, BLOCK_ELEMENTS // n)) if len(chunk) == 1 else c_dim
            plan.append((n, chunk, width))
    work = np.empty(max((_block_size(n, p, len(c) * width) for n, c, width in plan), default=0))
    for n, chunk, width in plan:
        response = np.arange(c_dim) % designs[chunk[0]][1].shape[1]
        if len(chunk) == 1:  # its design broadcast over blocks of columns
            (d,) = chunk
            x, y = designs[d]
            xt = np.ascontiguousarray(x.T)
            for cols in np.split(np.arange(c_dim), range(width, c_dim, width)):
                block = _ascent_block(
                    x, xt, y.T[response[cols]], family, starts[d, cols], kind, work=work
                )
                f[d, cols], value[d, cols], grad_norm[d, cols] = block[:3]
        else:  # each column gets its design's rows, passed as temporaries so
            # that the block holds the only reference once it compacts them
            block = _ascent_block(
                np.repeat(np.stack([designs[d][0] for d in chunk]), c_dim, axis=0), None,
                np.concatenate([designs[d][1].T[response] for d in chunk]),
                family, starts[chunk].reshape(-1, p), kind, work=work,
            )
            f[chunk] = block[0].reshape(-1, c_dim, p)
            value[chunk], grad_norm[chunk] = (a.reshape(-1, c_dim) for a in block[1:3])
    return f, value, grad_norm


def _block_size(n: int, p: int, columns: int) -> int:
    """Elements of an :func:`_ascent_block` workspace: the (columns, n)
    predictors, three (rows, n) arrays, where rows is the most candidates a
    line-search round evaluates, the larger of ``columns`` and
    ``STACK_ELEMENTS // n``, and the :func:`gram_buffer`."""
    width, _, rows = _gram_shape(n, p, columns)
    return (columns + 3 * max(columns, STACK_ELEMENTS // n)) * n + width * p * rows


@np.errstate(over="ignore", invalid="ignore")
def _ascent_block(x, xt, y, family, f, kind, work):
    """One block of :func:`_newton_ascent`, ``y`` (C, n). ``x`` is the
    design the columns share, (n, p), with ``xt`` its C-contiguous transpose
    for :func:`weighted_gram`, or each column's own design, (C, n, p), with
    ``xt`` None; a column's products, hence its bits, are the same either
    way. A column stops on ``grad_norm < TOL``, after MAX_ITER iterations or
    on a line search with no increase; one whose start, gradient or
    curvature is not finite (overflow, not warned about) stops where it is,
    unconverged. The line search tries the full step for every column, then
    gives each failing column ``max(1, stack // failing)`` of its next
    halvings per round, where ``stack``, the larger of the block's columns
    and ``STACK_ELEMENTS // n``, is the workspace's candidate rows, and
    takes the first that increases the objective, as one halving at a time
    would: in a block of 8 columns on a 5000-row fold, a column stalled
    alone makes 5 calls where one halving per call makes 30. A round's
    candidates broadcast over their columns' design rows, which are never
    copied per candidate. One helper, :func:`_cap_rows`, scales the start
    and every candidate longer than RADIUS onto the coefficient ball, and a
    direction longer than ``2 * RADIUS`` to that length.

    Once a column stops, the block replaces its response rows, and in a
    gathered block its design rows, by the live columns' rows: one copy per
    stop rather than several per iteration. Each iteration's gradient, gram
    and full step read them as they are.

    The block picks its objective, gradient and curvature-weight kernels
    once, by ``kind``, reading them by their module-level names as it runs.
    Each iterate is evaluated once: the predictors of the accepted
    candidate are kept for the next gradient and curvature, and the second
    value of the gradient kernel gives the curvature weight. A "quasi" block
    forms its :func:`~ghive.families.quasi_response` once. Also returns each
    column's iteration count and its objective after every iteration run,
    ``path`` (C, iterations + 1).

    The kernels write their (C, n) arrays into views of ``work``, a flat
    float array of at least :func:`_block_size` elements, made once per
    block, or per round for the candidates: the predictors; the gradient's
    residual, then the candidates' predictors; the curvature weight, then
    the objective terms; the kernels' temporaries; and the gram buffer of
    every iteration."""
    n, shared, width = x.shape[-2], x.ndim == 2, len(f)
    stack = max(width, STACK_ELEMENTS // n)
    eta = work[: width * n].reshape(width, n)
    bufs = work[width * n : (width + 3 * stack) * n].reshape(3, stack, n)
    buf = gram_buffer(x, width, work[(width + 3 * stack) * n :])
    if kind == "quasi":
        y = quasi_response(family, y)
        objective, gradient, weight = quasi_objective, quasi_gradient, hessian_weight
    else:
        objective, gradient, weight = loglik_objective, loglik_gradient, cumulant_d2
    f = _cap_rows(f, RADIUS)  # callers pass a copy; it is updated in place
    value = objective(x, y, family, f, (eta, *bufs[1:, :width]))[0]
    path = [value.copy()]
    grad_norm, n_iter = np.full(width, np.inf), np.zeros(width, dtype=int)
    live = np.isfinite(value).nonzero()[0]
    # from here on x and y hold the live columns' rows (a shared design
    # stays whole), gathered again only when a column stops
    if live.size < width:
        x, y = x if shared else x[live], y[live]

    def kept(rows):  # the entries ``rows`` of live, with their design and response rows
        return live[rows], x if shared else x[rows], y[rows]

    for it in range(MAX_ITER + 1):
        if not live.size:
            break
        rows = slice(None) if live.size == width else live
        eta_live = eta[rows]
        grad, score = gradient(x, y, family, eta_live, bufs[::2, : live.size])
        norm = grad_norm[live] = np.maximum.reduce(np.abs(grad), axis=1)
        going = (norm >= TOL) & np.isfinite(norm)
        if not going.all():
            (live, x, y), grad = kept(going), grad[going]
            eta_live, score = eta_live[going], score[going]
        if it == MAX_ITER or not live.size:
            break
        w = weight(family, eta_live, score, bufs[1, : live.size])
        del eta_live, score  # a copy once some column has stopped
        curv = weighted_gram(x, w, xt, buf)
        curv /= n
        del w
        if not np.isfinite(curv).all():
            finite = np.isfinite(curv).all(axis=(1, 2))
            (live, x, y), curv, grad = kept(finite), curv[finite], grad[finite]
        n_iter[live] = it + 1
        # keep the backtracking scale meaningful: a near-singular curvature
        # matrix can suggest steps many orders of magnitude longer than the
        # feasible ball
        direction = _cap_rows(_ascent_directions(curv, grad), 2.0 * RADIUS)
        # round 0: the full step, its candidates f + direction (the bits of
        # f + 1.0 * direction), passed as one round of (1, columns) rows
        rows = slice(None) if live.size == width else live
        cand = _cap_rows(f[rows] + direction, RADIUS)
        cand_value, cand_eta = objective(x, y, family, cand[None], bufs[:, None, : live.size])
        cand_value, cand_eta = cand_value[0], cand_eta[0]
        hit = np.isfinite(cand_value) & (cand_value > value[rows])
        if not hit.all():
            rows, cand, cand_value, cand_eta = live[hit], cand[hit], cand_value[hit], cand_eta[hit]
        f[rows], value[rows], eta[rows] = cand, cand_value, cand_eta
        todo, halving = (~hit).nonzero()[0], 1
        while todo.size and halving < MAX_STEP_HALVINGS:
            # later rounds share the workspace's stack candidate rows among
            # the failing columns' next halvings
            k = min(max(1, stack // todo.size), MAX_STEP_HALVINGS - halving)
            steps = np.ldexp(1.0, -np.arange(halving, halving + k))
            cols = live[todo]
            cand = f[cols] + steps[:, None, None] * direction[todo]
            cand = _cap_rows(cand.reshape(-1, f.shape[1]), RADIUS)
            # a column's k candidates broadcast over its rows, gathered once
            out = bufs[:, : k * cols.size].reshape(3, k, cols.size, n)
            cand_value, cand_eta = objective(
                x if shared else x[todo], y[todo], family, cand.reshape(k, cols.size, -1), out
            )
            up = np.isfinite(cand_value) & (cand_value > value[cols])
            # each column takes its first (longest) increasing step, as when
            # the halvings run one at a time
            hit = up.any(axis=0)
            first = up.argmax(axis=0)[hit] * todo.size + hit.nonzero()[0]
            f[cols[hit]], value[cols[hit]] = cand[first], cand_value.ravel()[first]
            eta[cols[hit]] = cand_eta.reshape(-1, n)[first]
            todo, halving = todo[~hit], halving + k
        if todo.size:  # no step increased these columns' objective: they stop
            stays = np.ones(live.size, dtype=bool)
            stays[todo] = False
            live, x, y = kept(stays)
        path.append(value.copy())
    return f, value, grad_norm, n_iter, np.array(path).T


# ---------------------------------------------------------------------------
# public fitting entry points


def fit_naive_mle(data, family: GlmFamily) -> CoefMatrix:
    """Ordinary per-response GLM maximum likelihood on the full sample.

    This is the baseline that treats each response as a plain GLM in x,
    ignoring any hidden structure. The log-likelihood is concave under the
    canonical link, so a single zero start suffices. The same coefficient
    ball as the quasi-likelihood fits applies (separation sends the MLE to
    infinity just the same). The response is validated against the family
    here, once.
    """
    return fit_naive_many([data], family)[0]


def fit_naive_many(datasets, family: GlmFamily) -> list:
    """:func:`fit_naive_mle` of each of several datasets with one p and M,
    as one solve: designs of one row count share the solver's blocks (see
    :func:`_newton_ascent`), and each fit is the one its dataset gets alone,
    bit for bit. Every response is validated first."""
    require_instance("datasets", datasets, (list, tuple))
    for data in datasets:
        require_instance("data", data, Dataset)
        validate_response(family, data.y)
    values, norms = _fit_matrix([(data.x, data.y) for data in datasets], family, kind="loglik")
    return [CoefMatrix(f, g, family) for f, g in zip(values, norms)]


def _fit_matrix(designs, family, kind):
    """Fit every response column of each of D ``(x, y)`` designs: the
    coefficients (D, M, p) and gradient sup-norms (D, M), row d for design d.
    ``kind="loglik"`` is the naive MLE from zero; ``kind="quasi"`` maximises
    the quasi-likelihood from both zero and that MLE, as 2M columns of one
    ascent (the zero start wins ties). On the small folds of a data fit a
    column can stall near TOL, and there the start decides the last digits;
    the oracle (:func:`~ghive.simulate.fstar_oracle`) climbs from its head
    instead. A gaussian quasi fit (:func:`~ghive.families.is_quadratic`)
    climbs once, from zero: its MLE stage would replay that climb bit for
    bit, and the MLE start would tie it and lose. Each stage is one
    :func:`_newton_ascent` over every design, whatever its row count. The
    designs must share p and M."""
    shapes = sorted({(x.shape[1], y.shape[1]) for x, y in designs})
    if len(shapes) > 1:
        raise DataValidationError(f"a batched fit needs one p and M; got (p, M) in {shapes}")
    ((p, m_dim),) = shapes or [(0, 0)]
    zero = np.zeros((len(designs), m_dim, p))
    # ROADMAP item 13 removes this branch once every family climbs once
    if kind == "loglik" or is_quadratic(family):
        return _newton_ascent(designs, family, zero, kind)[::2]  # f and grad_norm
    mle = _newton_ascent(designs, family, zero, "loglik")[0]
    f, value, gnorm = _newton_ascent(designs, family, np.concatenate([zero, mle], axis=1), kind)
    mle_wins = value[:, m_dim:] > value[:, :m_dim]
    f = np.where(mle_wins[..., None], f[:, m_dim:], f[:, :m_dim])
    return f, np.where(mle_wins, gnorm[:, m_dim:], gnorm[:, :m_dim])
