"""Per-response quasi-likelihood and naive-MLE fitting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import gaussian_design, small_sim_dataset
from ghive import BERNOULLI, GAUSSIAN, POISSON
from ghive.data_io import Dataset
from ghive import families, qml
from ghive.errors import DataValidationError
from ghive.pipeline import ghive_fit, ghive_fit_many
from ghive.qml import (
    RADIUS,
    CoefMatrix,
    fit_naive_many,
    fit_naive_mle,
    loglik_gradient,
    loglik_objective,
    make_split,
    quasi_gradient,
    quasi_objective,
    weighted_gram,
)


@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
def test_make_split_is_a_sorted_half_partition(n, seed):
    split = make_split(n, seed)
    d1, d2 = np.asarray(split.d1), np.asarray(split.d2)
    assert len(d1) == (n + 1) // 2
    assert len(d1) + len(d2) == n
    assert np.array_equal(d1, np.sort(d1))
    assert np.array_equal(d2, np.sort(d2))
    assert np.array_equal(np.sort(np.concatenate([d1, d2])), np.arange(n))
    again = make_split(n, seed)
    assert np.array_equal(again.d1, split.d1) and np.array_equal(again.d2, split.d2)


def _ascent(x, y, family, starts):
    """One quasi-likelihood block on the design ``x`` from each row of
    ``starts`` on the response ``y`` (n,): ``(f, value, grad_norm, n_iter,
    path)``, one row per start, as :func:`qml._ascent_block` returns them."""
    starts = np.array(starts, dtype=float)
    work = np.empty(qml._block_size(len(x), x.shape[1], len(starts)))
    y = np.tile(y, (len(starts), 1))
    return qml._ascent_block(x, np.ascontiguousarray(x.T), y, family, starts, "quasi", work=work)


def test_gaussian_qml_and_naive_mle_equal_least_squares():
    x, y, _ = gaussian_design(n=80, p=5, m_dim=3, seed=2)
    ols = np.linalg.lstsq(x, y, rcond=None)[0].T
    naive = fit_naive_mle(Dataset(x, y), GAUSSIAN)
    assert np.allclose(naive.values, ols, atol=1e-10)
    f, _, grad_norm = qml._newton_ascent([(x, y)], GAUSSIAN, np.zeros((1, 3, 5)), "quasi")
    assert np.allclose(f[0], ols, atol=1e-10)
    assert np.all(grad_norm < qml.TOL)


def test_objective_path_is_monotone_nondecreasing():
    data, _, _ = small_sim_dataset(n=60, seed=8, rep_seed=1)
    _, value, _, _, path = _ascent(data.x, data.y[:, 0], BERNOULLI, [np.zeros(data.p)])
    assert path.shape[1] >= 1
    assert np.all(np.diff(path) >= -1e-12)
    assert np.array_equal(path[:, -1], value)


def _num_grad(f, coef, h=1e-6):
    g = np.zeros_like(coef)
    for j in range(coef.size):
        e = np.zeros_like(coef)
        e[j] = h
        g[j] = (f(coef + e) - f(coef - e)) / (2.0 * h)
    return g


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON])
def test_gradients_match_finite_differences(family):
    rng = np.random.default_rng(17)
    n, p = 50, 4
    x = 0.5 * rng.standard_normal((n, p))
    eta = x @ rng.uniform(-0.5, 0.5, size=p)
    if family.kind == "bernoulli":
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    elif family.kind == "poisson":
        y = rng.poisson(np.exp(eta)).astype(float)
    else:
        y = eta + rng.standard_normal(n)
    coef = rng.uniform(-0.3, 0.3, size=p)
    for obj, grad, r in (
        (quasi_objective, quasi_gradient, families.quasi_response(family, y)),
        (loglik_objective, loglik_gradient, y),
    ):
        ana = grad(x, r, family, obj(x, r, family, coef)[1])[0]
        num = _num_grad(lambda c: obj(x, r, family, c)[0], coef)
        assert np.allclose(ana, num, rtol=1e-5, atol=1e-7)


def test_separated_bernoulli_fit_stays_inside_the_ball():
    # Perfectly separated data: the unconstrained maximizer runs to
    # infinity, so the radius constraint must bind instead.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 2))
    y = (x[:, 0] > 0).astype(float)
    f = _ascent(x, y, BERNOULLI, [np.zeros(2)])[0]
    norm = np.linalg.norm(f[0])
    assert norm <= RADIUS * (1 + 1e-12)
    assert norm >= RADIUS - 1e-6  # the boundary is genuinely attained


@pytest.mark.parametrize("overflows", ["curvature", "gradient"])
def test_a_column_whose_curvature_or_gradient_overflows_stops_where_it_is(overflows):
    rng = np.random.default_rng(0)
    x, y = np.abs(rng.standard_normal((40, 2))), rng.standard_normal(40)
    if overflows == "curvature":
        x *= 1e160  # x'x / n overflows, the gradient does not
    else:
        y = np.full(40, 1e308)  # x'y / n overflows, the curvature x'x / n does not
    f, _, grad_norm, n_iter, path = _ascent(x, y, GAUSSIAN, [np.zeros(2)])
    assert (n_iter[0], grad_norm[0] < qml.TOL, path.any()) == (0, False, False)
    assert not f.any() and (grad_norm[0] < np.inf) == (overflows == "curvature")
    # in a shared solve the column fails only its own dataset
    good = Dataset(rng.standard_normal((40, 2)), rng.standard_normal((40, 1)))
    together = fit_naive_many([good, Dataset(x, y[:, None])], GAUSSIAN)
    assert not together[1].converged.any() and not together[1].values.any()
    (alone,) = fit_naive_many([good], GAUSSIAN)
    assert together[0].values.tobytes() == alone.values.tobytes() and alone.converged.all()


def test_a_curvature_indefinite_after_its_bump_gets_the_gradient_as_its_direction():
    curv = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, -5.0]]])
    grad = np.array([[0.3, -1.2], [0.7, 0.4]])
    d = qml._ascent_directions(curv, grad)
    solved, failed = qml._cholesky_solve(curv[:1], grad[:1])
    assert not failed[0] and d[0].tobytes() == solved[0].tobytes()
    assert d[1].tobytes() == grad[1].tobytes()


def _linalg_cholesky_solve(a, b):
    """:func:`qml._cholesky_solve` through the ``np.linalg`` wrappers."""
    s = np.ldexp(1.0, -(np.frexp(np.diagonal(a, axis1=1, axis2=2))[1] >> 1))
    low = np.linalg.cholesky(a * s[:, :, None] * s[:, None, :])
    y = np.linalg.solve(low[:, ::-1, ::-1], (b * s)[:, ::-1, None])[:, ::-1]
    return s * np.linalg.solve(low.swapaxes(1, 2), y)[..., 0]


def _curvature_stacks(seed):
    """Stacks of C symmetric (p, p) matrices, p in 1-20 and C in 1-80, with
    diagonals spread over 1e-150 to 1e150: positive definite ones, and
    stacks holding rank-deficient (semidefinite) or indefinite ones."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        p, c = int(rng.integers(1, 21)), int(rng.integers(1, 81))
        g = rng.standard_normal((c, p, p + 2))
        kind = rng.integers(3)
        if kind == 1:  # some matrices of rank below p
            g[rng.random(c) < 0.3, :, max(p - 2, 1):] = 0.0
        a = g @ g.swapaxes(1, 2) / (p + 2)
        if kind == 2:  # some matrices indefinite
            bad = rng.random(c) < 0.3
            a[bad] -= (1.0 + rng.random((bad.sum(), 1, 1))) * np.eye(p)
        scale = 10.0 ** rng.uniform(-75.0, 75.0, (c, p))
        yield a * scale[:, :, None] * scale[:, None, :], rng.standard_normal((c, p)) * scale


def test_cholesky_solve_has_the_bits_of_numpy_linalg_and_fails_where_it_does():
    # a matrix is flagged exactly where numpy cannot factor it alone, and
    # every unflagged row has numpy's bits, in stacks holding flagged ones too
    clean = mixed = 0
    for a, b in _curvature_stacks(0):
        got, failed = qml._cholesky_solve(a, b)
        assert failed.shape == (len(a),) and failed.dtype == bool
        for c in range(len(a)):
            try:
                want = _linalg_cholesky_solve(a[c : c + 1], b[c : c + 1])
            except np.linalg.LinAlgError:
                assert failed[c] and np.isnan(got[c]).all()
            else:
                assert not failed[c] and got[c].tobytes() == want[0].tobytes()
        if failed.any():
            mixed += not failed.all()
            with pytest.raises(np.linalg.LinAlgError):
                _linalg_cholesky_solve(a, b)
        else:
            clean += 1
            assert got.tobytes() == _linalg_cholesky_solve(a, b).tobytes()
    assert 0 < clean < 40 and mixed > 0  # both kinds of stack ran


def _one_column_directions(curv, grad, counts):
    """The Newton directions of :func:`qml._ascent_directions`, one column at
    a time through ``np.linalg``: solve; where the factorisation fails, add
    ``1e-8 * (1 + |min eigenvalue|)`` to the diagonal and retry once; where
    that fails too, the gradient; then the gradient wherever the direction
    is not finite or not an ascent direction. ``counts`` tallies the
    retries and the retries that failed."""
    d = grad.copy()
    for c in range(len(grad)):
        a, b = curv[c : c + 1], grad[c : c + 1]
        try:
            d[c] = _linalg_cholesky_solve(a, b)[0]
        except np.linalg.LinAlgError:
            counts["retried"] += 1
            delta = 1e-8 * (1.0 + abs(float(np.linalg.eigvalsh(a[0])[0])))
            try:
                d[c] = _linalg_cholesky_solve(a + delta * np.eye(a.shape[1]), b)[0]
            except np.linalg.LinAlgError:
                counts["failed again"] += 1
        if not (np.isfinite(d[c]).all() and qml._dots(b, d[c : c + 1])[0] > 0.0):
            d[c] = grad[c]
    return d


def test_ascent_directions_equal_the_one_column_at_a_time_rule(monkeypatch):
    counts = dict.fromkeys(("retried", "failed again"), 0)
    for curv, grad in _curvature_stacks(0):
        got = qml._ascent_directions(curv, grad)
        assert got.tobytes() == _one_column_directions(curv, grad, counts).tobytes()
    assert counts["retried"] > counts["failed again"] > 0  # both outcomes of the retry ran
    # the stacks the solver builds on a design with a duplicated covariate
    stacks, directions = [], qml._ascent_directions

    def ascent_directions(curv, grad):
        stacks.append((curv.copy(), grad.copy()))
        return directions(curv, grad)

    monkeypatch.setattr(qml, "_ascent_directions", ascent_directions)
    for family in (GAUSSIAN, BERNOULLI, POISSON):
        x, y = _column_cases(family)
        _all_fits(np.column_stack([x, x[:, 1]]), y, family)
    counts = dict.fromkeys(counts, 0)
    for curv, grad in stacks:
        got = directions(curv, grad)
        assert got.tobytes() == _one_column_directions(curv, grad, counts).tobytes()
    assert counts["retried"] > 0


def test_a_direction_whose_squared_norm_overflows_is_capped_not_zeroed():
    # a least-squares fit whose Newton direction has norm c: past c ~ 1e154
    # its squared norm overflows, and the cap must still scale the
    # direction to 2 * RADIUS rather than to zero
    x = np.random.default_rng(0).standard_normal((40, 2))
    lin = x @ [1.0, 0.5]
    fits = [
        fit_naive_mle(Dataset(x, (c / np.abs(lin).max() * lin)[:, None]), GAUSSIAN).values[0]
        for c in (1e150, 1e155, 1e160, 1e200)
    ]
    for f in fits:  # each ends on the ball, along (1, 0.5)
        assert np.allclose(f, RADIUS * np.array([2.0, 1.0]) / np.sqrt(5.0), rtol=1e-12)
    # one helper caps directions at 2 * RADIUS and candidates at RADIUS: an
    # overflowing row is capped at either limit, and rows whose squared norm
    # is finite keep their bits
    d = np.array([[3e153, -4e153], [30.0, 40.0], [3.0, 4.0]])
    capped = qml._cap_rows(d.copy(), 2.0 * RADIUS)
    assert np.allclose(capped[0], [24.0, -32.0], rtol=1e-15)
    assert capped[1].tobytes() == (d[1] * (2.0 * RADIUS / 50.0)).tobytes()
    assert capped[2].tobytes() == d[2].tobytes()
    f = np.array([[3e154, -4e154], [30.0, 40.0], [3.0, 4.0], [np.nan, 1.0]])
    with np.errstate(over="ignore"):  # as inside the ascent
        capped = qml._cap_rows(f.copy(), RADIUS)
    assert np.allclose(capped[0], [12.0, -16.0], rtol=1e-15)
    assert capped[1].tobytes() == (f[1] * (RADIUS / 50.0)).tobytes()
    assert capped[2].tobytes() == f[2].tobytes()
    assert np.isnan(capped[3]).all()  # a NaN-length row is scaled, to NaN


_X = np.random.default_rng(2).standard_normal((40, 2))
_Y01 = (_X[:, 0] > 0).astype(float)[:, None]


@pytest.mark.parametrize(
    "call",
    [
        lambda: ghive_fit_many([Dataset(np.where(_X > 2.0, np.nan, _X), _Y01)], BERNOULLI, [0]),
        lambda: ghive_fit_many([Dataset(_X, np.where(_Y01 == 1.0, 0.5, 0.0))], BERNOULLI, [0]),
        lambda: fit_naive_mle(Dataset(_X, np.where(_X[:, 1:] > 1.5, np.nan, _X[:, :1])), GAUSSIAN),
        lambda: fit_naive_mle(Dataset(_X, _Y01[:30]), BERNOULLI),
        lambda: ghive_fit_many([Dataset(_X, np.c_[_Y01, 2.0 * _Y01])], BERNOULLI, [0]),
        lambda: ghive_fit_many([Dataset(_X, np.c_[_Y01, -_Y01])], POISSON, [0]),
        lambda: fit_naive_mle(Dataset(_X, np.c_[_Y01, 2.0 * _Y01]), BERNOULLI),
        lambda: fit_naive_mle(Dataset(_X, np.c_[_Y01, -_Y01]), POISSON),
        lambda: fit_naive_mle(Dataset(np.zeros((0, 3)), np.zeros((0, 1))), GAUSSIAN),
        lambda: fit_naive_mle(Dataset(np.zeros((5, 0)), np.zeros((5, 1))), GAUSSIAN),
        lambda: fit_naive_mle(Dataset(_X[:1], _Y01[:1]), BERNOULLI),
    ],
    ids=["nan-x", "bernoulli-half", "nan-gaussian-y", "short-y", "all-non-binary",
         "all-negative-poisson", "naive-non-binary", "naive-negative-poisson", "no-rows",
         "no-columns", "one-row"],
)
def test_fits_validate_their_inputs_once_at_the_boundary(call):
    with pytest.raises(DataValidationError):
        call()


def test_fold_smaller_than_covariate_count_is_rejected():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 4))
    y = (rng.random((5, 2)) < 0.5).astype(float)
    with pytest.raises(DataValidationError):
        ghive_fit_many([Dataset(x, y)], BERNOULLI, [1])


def test_poisson_naive_mle_recovers_coefficients():
    rng = np.random.default_rng(12)
    n, p = 4000, 3
    x = 0.6 * rng.standard_normal((n, p))
    coef = np.array([[0.5, -0.3, 0.2], [0.1, 0.4, -0.2]])
    y = rng.poisson(np.exp(x @ coef.T)).astype(float)
    fit = fit_naive_mle(Dataset(x, y), POISSON)
    assert np.all(fit.converged)
    assert np.allclose(fit.values, coef, atol=0.1)


def test_weighted_gram_matches_dense_product():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((12, 3))
    w = rng.uniform(0.1, 2.0, size=12)
    assert np.allclose(weighted_gram(x, w[None])[0], x.T @ np.diag(w) @ x, atol=1e-12)


def _chunked_gram(x, w, rows):
    """The row-chunked sum weighted_gram computes, written out: one product
    per chunk of ``rows`` rows, added in row order."""
    gram = x[:rows].T @ (w[..., :rows, None] * x[:rows])
    for s in range(rows, len(x), rows):
        gram += x[s : s + rows].T @ (w[..., s : s + rows, None] * x[s : s + rows])
    return gram


def _rows_per_chunk(p):
    return qml._GRAM_ELEMENTS // p


@pytest.mark.parametrize("weights", ["distinct", "equal", "equal-but-the-last"])
@pytest.mark.parametrize("shape", [(40, 100, 4), (26, 1000, 10), (2, 5000, 20), (1, 100000, 4)])
def test_weighted_gram_is_the_literal_product_bit_for_bit(shape, weights):
    n_cols, n, p = shape
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, p))
    w = rng.uniform(-0.5, 3.0, size=(n_cols, n))
    if weights != "distinct":  # equal rows share one gram, as gaussian weights do
        w[:] = w[0]
        if weights == "equal-but-the-last":
            w[-1, -1] += 1.0
    rows = _rows_per_chunk(p)
    assert qml.gram_buffer(x, n_cols).shape[1:] == (p, min(n, rows))
    literal = _chunked_gram(x, w, rows)
    if n <= rows:  # one chunk: the one-shot product
        assert np.array_equal(literal, x.T @ (w[..., None] * x))
    xt = np.ascontiguousarray(x.T)
    assert np.array_equal(weighted_gram(x, w), literal)
    assert np.array_equal(weighted_gram(x, w, xt), literal)
    assert np.array_equal(weighted_gram(x, w[0][None], xt)[0], _chunked_gram(x, w[0], rows))


@pytest.mark.parametrize("per_chunk", [1, 2, 3])
def test_weighted_gram_chunks_are_the_per_column_grams_bit_for_bit(per_chunk, monkeypatch):
    rng = np.random.default_rng(per_chunk)
    x = rng.standard_normal((50, 3))
    w = rng.uniform(-0.5, 3.0, size=(7, 50))  # 7 columns: the last chunk is short
    # 16-row chunks, the last of 2 rows
    monkeypatch.setattr(qml, "_GRAM_ELEMENTS", 16 * 3)
    monkeypatch.setattr(qml, "BLOCK_ELEMENTS", per_chunk * 16 * 3)
    buf = qml.gram_buffer(x, len(w))
    assert buf.shape == (per_chunk, 3, 16)
    got = weighted_gram(x, w, buf=buf)
    for c in range(len(w)):
        assert np.array_equal(got[c], _chunked_gram(x, w[c], 16))
    assert np.array_equal(weighted_gram(x, w), got)
    # columns on designs of their own get their own grams, equal weights or not
    designs, ones = x * np.arange(1.0, 8.0)[:, None, None], np.ones_like(w)
    got = weighted_gram(designs, ones, buf=buf)
    for c in range(len(w)):
        assert np.array_equal(got[c], _chunked_gram(designs[c], ones[c], 16))


def _multi_chunk_design(p, seed):
    """An (n, p) design spanning three row chunks of weighted_gram, the last
    one short."""
    rows = _rows_per_chunk(p)
    return 0.3 * np.random.default_rng(seed).standard_normal((2 * rows + rows // 2, p))


def test_multi_chunk_grams_of_a_block_are_the_grams_of_each_column_alone(monkeypatch):
    x = _multi_chunk_design(20, seed=8)
    w = np.random.default_rng(9).uniform(-0.5, 3.0, size=(10, len(x)))
    together = weighted_gram(x, w)
    monkeypatch.setattr(qml, "BLOCK_ELEMENTS", 3 * x.shape[1] * _rows_per_chunk(20))
    assert len(qml.gram_buffer(x, len(w))) == 3  # 3 columns per scaling pass
    assert np.array_equal(weighted_gram(x, w), together)
    for c in range(len(w)):
        assert np.array_equal(weighted_gram(x, w[c : c + 1])[0], together[c])


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=str)
def test_multi_chunk_ascent_columns_solved_together_equal_columns_solved_alone(family):
    x = _multi_chunk_design(10, seed=3)
    rng = np.random.default_rng(4)
    eta = x @ rng.standard_normal((10, 3))
    if family is GAUSSIAN:
        y = eta + rng.standard_normal(eta.shape)
    elif family is BERNOULLI:
        y = (rng.random(eta.shape) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        y = rng.poisson(np.exp(eta)).astype(float)
    starts = np.vstack([np.zeros((3, 10)), 0.1 * rng.standard_normal((3, 10))])
    together = qml._newton_ascent([(x, y)], family, starts[None], "quasi")
    assert np.all(together[2] < 1e-8)
    for c in range(len(starts)):
        alone = qml._newton_ascent([(x, y[:, [c % 3]])], family, starts[None, [c]], "quasi")
        for got, want in zip(together, alone):
            assert np.array_equal(got[0, c], want[0, 0])


def test_multi_chunk_grams_stay_close_to_the_one_shot_product():
    eps = np.finfo(float).eps
    for n, p in ((100000, 4), (5000, 20), (len(_multi_chunk_design(10, 0)), 10)):
        rng = np.random.default_rng(n)
        x = rng.uniform(0.1, 10.0) * rng.standard_normal((n, p))
        w = rng.uniform(-0.5, 3.0, size=(3, n))
        error = np.abs(weighted_gram(x, w) - x.T @ (w[..., None] * x))
        scale = np.abs(x).T @ (np.abs(w)[..., None] * np.abs(x))
        # measured at most 22 eps over 100 such designs; the worst-case
        # rounding bound of either sum is n eps
        assert np.all(error <= 64 * eps * scale)


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=str)
def test_a_quasi_fit_keeps_the_better_of_its_zero_and_mle_starts(family):
    # each column of each design, here of 100 and 51 rows (two row-count
    # groups), is bit for bit the better of two ascents, one from zero and one
    # from the naive MLE, the zero start winning ties (every gaussian column)
    data, _, _ = small_sim_dataset(n=100, p=3, m_dim=4, k=2, seed=2, rep_seed=2, family=family.kind)
    designs = [(data.x, data.y), (data.x[:51], data.y[:51])]
    values, norms = qml._fit_matrix(designs, family, "quasi")
    mle_wins = []
    for d, (x, y) in enumerate(designs):
        zero = np.zeros((1, 4, 3))
        mle = qml._newton_ascent([(x, y)], family, zero, "loglik")[0]
        from_zero, from_mle = (qml._newton_ascent([(x, y)], family, s, "quasi") for s in (zero, mle))
        wins = from_mle[1][0] > from_zero[1][0]
        for m in range(4):
            f, _, g = from_mle if wins[m] else from_zero
            assert values[d, m].tobytes() == f[0, m].tobytes()
            assert norms[d, m].tobytes() == g[0, m].tobytes()
        mle_wins += wins.tolist()
    # the MLE start strictly wins some bernoulli and poisson columns
    assert any(mle_wins) == (family is not GAUSSIAN)


def test_a_gaussian_quasi_fit_is_one_zero_start_quasi_ascent(monkeypatch):
    # b'' == 1 makes the quasi-likelihood the log-likelihood, so a gaussian
    # fit runs no naive-MLE stage and no MLE start: each design, here of 100
    # and 51 rows (two row-count groups), is one zero-start quasi ascent
    data, _, _ = small_sim_dataset(n=100, p=3, m_dim=4, k=2, seed=2, rep_seed=2, family="gaussian")
    designs = [(data.x, data.y), (data.x[:51], data.y[:51])]
    calls, ascent = [], qml._newton_ascent

    def recorded(designs, family, starts, kind):
        calls.append((kind, starts.shape, starts.any()))
        return ascent(designs, family, starts, kind)

    monkeypatch.setattr(qml, "_newton_ascent", recorded)
    values, norms = qml._fit_matrix(designs, GAUSSIAN, "quasi")
    assert calls == [("quasi", (2, 4, 3), False)]  # both row counts in one call
    for d, (x, y) in enumerate(designs):
        f, _, g = ascent([(x, y)], GAUSSIAN, np.zeros((1, 4, 3)), "quasi")
        assert values[d].tobytes() == f[0].tobytes()
        assert norms[d].tobytes() == g[0].tobytes()


def _column_cases(family):
    """Responses on a 3-covariate design: two ordinary columns plus the
    family's hard case (a poisson count column of 5..5e7, where the
    absolute tolerance lies below what the objective resolves, and a
    separated bernoulli column whose fit sits on the ball)."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, 3))
    eta = x @ np.array([[0.8, -0.5, 0.3], [-0.4, 0.6, 0.2]]).T
    if family is GAUSSIAN:
        return x, eta + rng.standard_normal(eta.shape)
    if family is BERNOULLI:
        regular = rng.random(eta.shape) < 1.0 / (1.0 + np.exp(-eta))
        return x, np.column_stack([regular, x[:, 0] > 0]).astype(float)
    counts = rng.poisson(np.exp(x @ np.array([2.0, 1.2, -0.8]) + 10.0))
    return x, np.column_stack([rng.poisson(np.exp(eta)), counts]).astype(float)


def _all_fits(x, y, family):
    """The two fold fits of a ghive fit, as ``ghive_fit_many`` solves them,
    and the naive MLE."""
    split = make_split(len(x), seed=5)
    folds = qml._fit_matrix([(x[rows], y[rows]) for rows in (split.d1, split.d2)], family, "quasi")
    return (*(CoefMatrix(*fold, family) for fold in zip(*folds)), fit_naive_mle(Dataset(x, y), family))


def _assert_same_fits(got, want):
    for a, b in zip(got, want):
        for name in ("values", "converged", "grad_norm"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _one_column_at_a_time(x, y, family):
    alone = [_all_fits(x, y[:, [m]], family) for m in range(y.shape[1])]
    return [
        CoefMatrix(*(np.concatenate([getattr(a[i], k) for a in alone])
                     for k in ("values", "grad_norm")), family)
        for i in range(3)
    ]


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=str)
def test_columns_solved_together_equal_columns_solved_alone(family, monkeypatch):
    x, y = _column_cases(family)
    together = _all_fits(x, y, family)
    _assert_same_fits(together, _one_column_at_a_time(x, y, family))
    fold1, fold2, naive = together
    if family is POISSON:  # stalled at precision: stopped short of tol
        stalled = [f.grad_norm[-1] for f in (fold1, fold2, naive) if not f.converged[-1]]
        assert stalled and max(stalled) < 1e-3
    if family is BERNOULLI:  # separated: both fold fits on the ball
        norms = [np.linalg.norm(f.values[-1]) for f in (fold1, fold2)]
        assert np.allclose(norms, RADIUS, rtol=1e-9)
    # a duplicated covariate makes the curvature matrices singular, so the
    # columns go through the Cholesky retry and the gradient fallback: a
    # call that flags columns is followed by one call holding just those,
    # each bumped
    calls, solve = [], qml._cholesky_solve

    def cholesky_solve(a, b):
        d, failed = solve(a, b)
        calls.append((a.copy(), failed))
        return d, failed

    monkeypatch.setattr(qml, "_cholesky_solve", cholesky_solve)
    x_dup = np.column_stack([x, x[:, 1]])
    _assert_same_fits(_all_fits(x_dup, y, family), _one_column_at_a_time(x_dup, y, family))
    retries, calls = 0, iter(calls)
    for a, failed in calls:
        if failed.any():
            flagged = a[failed]
            bumped, _ = next(calls)
            want = qml.bump_diagonal(flagged, np.linalg.eigvalsh(flagged)[:, 0])
            assert bumped.tobytes() == want.tobytes()
            retries += 1
    assert retries


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=str)
def test_column_blocks_split_by_the_element_budget_give_the_same_fits(family, monkeypatch):
    x, y = _column_cases(family)
    one_block = _all_fits(x, y, family)
    # 50-row folds: two columns per block, each gram built one column at a
    # time (a column's 50 x 3 design fills the budget); the 100-row naive fit
    # one column per block
    monkeypatch.setattr(qml, "BLOCK_ELEMENTS", 2 * 50)
    _assert_same_fits(_all_fits(x, y, family), one_block)


def test_a_wide_poisson_ascent_never_holds_the_whole_weighted_design():
    rng = np.random.default_rng(3)
    n, p, m_dim = 5000, 20, 8
    x = 0.3 * rng.standard_normal((n, p))
    y = rng.poisson(np.exp(x @ (0.3 * rng.standard_normal((m_dim, p))).T)).astype(float)
    starts = np.vstack([np.zeros((m_dim, p)), np.full((m_dim, p), 0.1)])
    assert len(starts) <= qml.BLOCK_ELEMENTS // n  # all 16 columns in one block
    tracemalloc.start()
    try:
        _, _, gnorm = qml._newton_ascent([(x, y)], POISSON, starts[None], "quasi")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(gnorm < 1e-8)
    # measured at 5.3 MB; the (16, 20, 5000) weighted design alone is 12.8 MB
    assert peak < 8 * 2**20


def _one_response_fits(x, y, family):
    starts = [np.zeros(x.shape[1]), np.ones(x.shape[1])]
    return [_ascent(x, y[:, m], family, starts) for m in range(y.shape[1])]


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=str)
def test_stacked_halvings_take_the_one_at_a_time_step(family, monkeypatch):
    x, y = _column_cases(family)
    designs = (x, np.column_stack([x, x[:, 1]]))  # the second has singular curvatures
    stacked = [(_all_fits(xd, y, family), _one_response_fits(xd, y, family)) for xd in designs]
    # one column per block and one halving per objective call
    monkeypatch.setattr(qml, "BLOCK_ELEMENTS", 1)
    monkeypatch.setattr(qml, "STACK_ELEMENTS", 1)
    for xd, (fits, ones) in zip(designs, stacked):
        _assert_same_fits(fits, _all_fits(xd, y, family))
        for got, want in zip(ones, _one_response_fits(xd, y, family)):
            for a, b in zip(got, want):  # f, value, grad_norm, n_iter, path
                assert np.array_equal(a, b)


def test_a_stalled_column_costs_one_objective_call_per_iteration_after_the_full_step(
    monkeypatch,
):
    x, y = _column_cases(POISSON)
    calls, costs = [0], []

    def count(kernel):  # the objective kernels, which the line search calls
        def counted(*args):
            calls[0] += 1
            return kernel(*args)

        return counted

    for name in ("quasi_objective", "loglik_objective"):
        monkeypatch.setattr(qml, name, count(getattr(qml, name)))
    block = qml._ascent_block

    def measured(*args, **kwargs):
        calls[0] = 0
        out = block(*args, **kwargs)
        costs.append((calls[0], out[4].shape[1] - 1))  # (calls, iterations)
        return out

    monkeypatch.setattr(qml, "_ascent_block", measured)
    fold1, fold2, naive = _all_fits(x, y, POISSON)
    assert not all(f.converged[-1] for f in (fold1, fold2, naive))  # stalled columns ran
    assert costs
    for n_calls, iterations in costs:
        assert n_calls <= 1 + 2 * iterations


def test_a_stalled_column_on_a_large_fold_fills_the_candidate_rows(monkeypatch):
    # fit-large's shape: 10000 rows, p = 20 and 8 poisson responses, one
    # block of 8 columns, where STACK_ELEMENTS allows less than one halving
    # per call and the workspace holds the block's 8 candidate rows
    data = small_sim_dataset(
        n=10000, p=20, m_dim=8, k=3, eta=4.0, seed=0, rep_seed=0, family="poisson"
    )[0]
    assert qml.STACK_ELEMENTS // data.n <= 1
    blocks, calls, block = [], [], qml._ascent_block

    def objective(*args, **kwargs):
        coef = args[3]
        if np.ndim(coef) == 3:  # a line-search round: (steps, columns, p)
            calls[-1].append(coef.shape[:2])
        return loglik_objective(*args, **kwargs)

    def gradient(*args, **kwargs):  # once per iteration: the next calls are its line search
        calls.append([])
        return loglik_gradient(*args, **kwargs)

    def recorded(*args, **kwargs):
        out = block(*args, **kwargs)
        blocks.append((len(args[4]), out))
        return out

    monkeypatch.setattr(qml, "_ascent_block", recorded)
    monkeypatch.setattr(qml, "loglik_objective", objective)
    monkeypatch.setattr(qml, "loglik_gradient", gradient)
    fit = fit_naive_mle(data, POISSON)
    ((width, together),), searches = blocks, [s for s in calls if s]
    assert width == 8 and not fit.converged.all()  # stalled columns ran
    # after the full step, a round gives each failing column its share of
    # the candidate rows, at least one halving, up to the last one
    stack = max(width, qml.STACK_ELEMENTS // data.n)
    for rounds in searches:
        assert rounds[0][0] == 1
        halving = 1
        for k, columns in rounds[1:]:
            assert k == min(max(1, stack // columns), qml.MAX_STEP_HALVINGS - halving)
            halving += k
    # so no round passes the kernel more candidate rows than the workspace holds
    assert max(k * columns for rounds in searches for k, columns in rounds) == stack
    # a column that searches alone past the full step runs its 29 halvings in
    # 4 calls where one halving per call takes 29
    assert [(8, 1), (8, 1), (8, 1), (5, 1)] in [rounds[1:] for rounds in searches]
    # the fits of the one-at-a-time search: one column per block, one
    # halving per call
    blocks.clear()
    monkeypatch.setattr(qml, "BLOCK_ELEMENTS", 1)
    monkeypatch.setattr(qml, "STACK_ELEMENTS", 1)
    fit_naive_mle(data, POISSON)
    assert [w for w, _ in blocks] == [1] * width
    for c, (_, one) in enumerate(blocks):
        *got, path = (a[c] for a in together)
        for a, b in zip(got, (a[0] for a in one[:4])):  # f, value, grad_norm, n_iter
            assert np.array_equal(a, b)
        # a column that stopped keeps its value for the block's later iterations
        assert np.array_equal(path, np.pad(one[4][0], (0, len(path) - one[4].shape[1]), "edge"))


def test_memory_follows_the_iterations_run_not_max_iter(monkeypatch):
    x, y = _column_cases(GAUSSIAN)
    short = _ascent(x, y[:, 0], GAUSSIAN, [np.zeros(3), np.ones(3)])
    monkeypatch.setattr(qml, "MAX_ITER", 10**6)
    tracemalloc.start()
    try:
        long = _ascent(x, y[:, 0], GAUSSIAN, [np.zeros(3), np.ones(3)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # a path sized by max_iter would take 16 MB
    for a, b in zip(long, short):  # f, value, grad_norm, n_iter, path
        assert np.array_equal(a, b)
    _, value, _, n_iter, path = long
    assert np.array_equal(path[:, -1], value) and path.shape[1] - 1 == n_iter.max()


def test_each_iterate_is_evaluated_once(monkeypatch):
    """Per block, x . coef runs once per objective evaluation (the start and
    each line-search round), never again for the gradient or the curvature,
    a quasi iteration computes its weighted residual once, and a quasi block
    forms the response its kernels read (the bernoulli sign) once. The
    solver runs on the named kernels of the block's kind: its objective
    kernel makes every evaluation, its gradient kernel runs once per
    iteration, and the other kind's kernels never run."""
    counts, costs = {}, []

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # quasi_term and cumulant are called once per objective evaluation; the
    # residual is counted wherever the solver or a families kernel asks
    kernels = ("quasi_objective", "quasi_gradient", "loglik_objective", "loglik_gradient")
    names = ("_eta", "quasi_term", "cumulant", "quasi_residual", "quasi_response", *kernels)
    for name in names:
        count(qml, name)
    count(families, "quasi_residual")
    block = qml._ascent_block

    def measured(*args, **kwargs):
        counts.update(dict.fromkeys(names, 0))
        out = block(*args, **kwargs)
        costs.append((args[-1], dict(counts), out[4].shape[1] - 1))  # kind, counts, iterations
        return out

    monkeypatch.setattr(qml, "_ascent_block", measured)
    for family in (GAUSSIAN, BERNOULLI, POISSON):
        x, y = _column_cases(family)
        _all_fits(x, y, family)
        _one_response_fits(x, y, family)
    assert {kind for kind, _, _ in costs} == {"quasi", "loglik"}
    assert any(iterations > 1 for _, _, iterations in costs)
    for kind, n, iterations in costs:
        evaluations = n["quasi_term"] + n["cumulant"]  # 1 + line-search rounds
        assert n["_eta"] <= evaluations
        other = "loglik" if kind == "quasi" else "quasi"
        assert n[f"{kind}_objective"] == evaluations
        assert 1 <= n[f"{kind}_gradient"] <= iterations + 1
        assert n[f"{other}_objective"] == n[f"{other}_gradient"] == 0
        if kind == "quasi":
            assert n["quasi_residual"] <= iterations + 1
            assert n["quasi_response"] == 1


def _datasets(family, n, p, m_dim, count, seed=0):
    """``count`` simulated datasets of one shape, each with its own truth."""
    k = min(2, p, m_dim)
    return [
        small_sim_dataset(n=n, p=p, m_dim=m_dim, k=k, eta=2.0, seed=seed + g,
                          rep_seed=seed + g, family=family.kind)[0]
        for g in range(count)
    ]


def _block_designs(monkeypatch, record=np.ndim):
    """Record ``record`` of the design each _ascent_block call gets: by
    default its ndim, 2 for one design shared by the block's columns, 3 for
    designs gathered per column; ``np.shape`` gives (n, p) or (columns, n, p)."""
    seen, block = [], qml._ascent_block

    def recorded(*args, **kwargs):
        seen.append(record(args[0]))
        return block(*args, **kwargs)

    monkeypatch.setattr(qml, "_ascent_block", recorded)
    return seen


def _assert_columns_alone(designs, family, starts, kind, together):
    """Each column of ``together`` is the column solved alone on its design."""
    for g, (x, y) in enumerate(designs):
        for c in range(starts.shape[1]):
            alone = qml._newton_ascent(
                [(x, y[:, [c % y.shape[1]]])], family, starts[g : g + 1, [c]], kind
            )
            for got, want in zip(together, alone):
                assert np.array_equal(got[g, c], want[0, 0])


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=str)
@pytest.mark.parametrize("kind", ["quasi", "loglik"])
def test_columns_on_different_designs_solved_together_equal_columns_solved_alone(
    family, kind, monkeypatch
):
    designs = [(d.x, d.y) for d in _datasets(family, n=35, p=4, m_dim=4, count=5)]
    starts = 0.3 * np.random.default_rng(7).standard_normal((5, 8, 4))
    seen = _block_designs(monkeypatch)
    together = qml._newton_ascent(designs, family, starts, kind)
    assert seen == [3]  # the five designs share one block
    _assert_columns_alone(designs, family, starts, kind, together)


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=str)
def test_stacked_designs_over_several_gram_chunks_and_halving_rounds(family, monkeypatch):
    designs = [(d.x, d.y) for d in _datasets(family, n=40, p=3, m_dim=3, count=4, seed=20)]
    starts = np.concatenate([np.zeros((4, 3, 3)), np.ones((4, 3, 3))], axis=1)
    seen = _block_designs(monkeypatch)
    # 16-row gram chunks: each 40-row design spans three, the last one short
    monkeypatch.setattr(qml, "_GRAM_ELEMENTS", 16 * 3)
    together = qml._newton_ascent(designs, family, starts, "quasi")
    assert seen == [3]  # the four designs share one block
    _assert_columns_alone(designs, family, starts, "quasi", together)
    # a halving budget of the four designs' 4 * 6 * 40 * 3 gathered rows,
    # well below the default: fewer halvings per objective call, the same
    # steps, hence the same fits; BLOCK_ELEMENTS alone budgets the gathered
    # rows, so the designs still share one block
    seen.clear()
    monkeypatch.setattr(qml, "STACK_ELEMENTS", 4 * 6 * 40 * 3)
    for got, want in zip(qml._newton_ascent(designs, family, starts, "quasi"), together):
        assert np.array_equal(got, want)
    assert seen == [3]


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=str)
@pytest.mark.parametrize("kind", ["quasi", "loglik"])
def test_blocks_reusing_one_workspace_keep_the_bits_of_each_column_alone(
    family, kind, monkeypatch
):
    # one solve over a gathered block of two 40-row designs, then a 300-row
    # design broadcast over two blocks of columns, which needs a larger
    # workspace, then a 60-row design, which needs a smaller one
    datasets = _datasets(family, n=40, p=3, m_dim=3, count=2, seed=50)
    datasets += [_datasets(family, n=n, p=3, m_dim=3, count=1, seed=n)[0] for n in (300, 60)]
    designs = [(d.x, d.y) for d in datasets]
    starts = 0.3 * np.random.default_rng(8).standard_normal((4, 6, 3))
    monkeypatch.setattr(qml, "BLOCK_ELEMENTS", 1500)  # 5 columns per 300-row block
    assert qml._block_size(300, 3, 5) > qml._block_size(40, 3, 12) > qml._block_size(60, 3, 6)
    seen, works = _block_designs(monkeypatch, np.shape), []
    block = qml._ascent_block

    def recorded(*args, **kwargs):
        works.append(kwargs["work"])
        return block(*args, **kwargs)

    monkeypatch.setattr(qml, "_ascent_block", recorded)
    together = qml._newton_ascent(designs, family, starts, kind)
    assert seen == [(12, 40, 3), (300, 3), (300, 3), (60, 3)]
    assert all(np.shares_memory(w, works[0]) for w in works)  # one array's views
    kept = [a.copy() for a in together]
    _assert_columns_alone(designs, family, starts, kind, together)
    # a later solve writes into a workspace of its own, never the results
    qml._newton_ascent(designs[::-1], family, -starts, kind)
    for a, b in zip(together, kept):  # f, value, grad_norm
        assert a.tobytes() == b.tobytes()


def _f_hat_alone(data, split, family):
    """``f_hat`` from each fold of ``split`` fitted alone: the fold fits'
    average, with both folds' norms, fold d1 first."""
    (v1, g1), (v2, g2) = (qml._fit_matrix([(data.x[idx], data.y[idx])], family, "quasi")
                          for idx in (split.d1, split.d2))
    return CoefMatrix(0.5 * (v1[0] + v2[0]), np.column_stack([g1[0], g2[0]]), family)


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=str)
@pytest.mark.parametrize("n", [70, 101])
def test_many_datasets_fit_as_each_dataset_alone(family, n, monkeypatch):
    datasets = _datasets(family, n=n, p=3, m_dim=6, count=4, seed=30)
    seen = _block_designs(monkeypatch)
    many = ghive_fit_many(datasets, family, range(4))
    naive = qml.fit_naive_many(datasets, family)
    assert 3 in seen and 2 not in seen  # every ascent stacked designs
    for seed, (data, fit, mle) in enumerate(zip(datasets, many, naive)):
        _assert_same_fits([fit.f_hat], [_f_hat_alone(data, fit.split, family)])
        _assert_same_fits([fit.f_hat], [ghive_fit_many([data], family, [seed])[0].f_hat])
        values, norms = qml._fit_matrix([(data.x, data.y)], family, "loglik")
        _assert_same_fits([mle], [CoefMatrix(values[0], norms[0], family)])


def test_a_design_whose_columns_fill_a_block_is_never_gathered(monkeypatch):
    # with BLOCK_ELEMENTS 2**17 no two folds share a block, nor two naive
    # fits: 400-row folds at p = 20, whose 10 naive-start columns alone gather
    # 80,000 elements (two folds would take 160,000), and cli-roundtrip's
    # 1000-row folds at p = 10 with 50 responses, whose naive-start columns
    # alone gather 500,000
    seen = _block_designs(monkeypatch)
    for n, p, m_dim in ((800, 20, 10), (2000, 10, 50)):
        datasets = _datasets(POISSON, n=n, p=p, m_dim=m_dim, count=2)
        ghive_fit_many(datasets, POISSON, range(2))
        qml.fit_naive_many(datasets, POISSON)
    assert seen and set(seen) == {2}


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI, POISSON], ids=str)
def test_both_folds_of_a_small_fit_run_as_one_gathered_block_per_stage(family, monkeypatch):
    # the benchmark's fit-small shape: two 100-row folds at p = 4 with 20
    # responses gather 2 * 20 * 100 * 4 = 16,000 elements for the naive
    # starts and 32,000 for the quasi columns, well within one block; a
    # gaussian fit has only its 16,000 zero-start quasi columns
    (data,) = _datasets(family, n=200, p=4, m_dim=20, count=1, seed=40)
    seen = _block_designs(monkeypatch, np.shape)
    fit = ghive_fit(data, family, seed=3)
    assert seen == ([(40, 100, 4)] if family is GAUSSIAN else [(40, 100, 4), (80, 100, 4)])
    _assert_same_fits([fit.f_hat], [_f_hat_alone(data, fit.split, family)])


@pytest.mark.parametrize("budget", [None, 3 * 8 * 35 * 4])
def test_no_block_gathers_more_design_rows_than_its_budget(budget, monkeypatch):
    # the default budget, and one that fits exactly three of the table1
    # quasi stage's 35-row folds with 8 columns each
    if budget is not None:
        monkeypatch.setattr(qml, "BLOCK_ELEMENTS", budget)
    seen = _block_designs(monkeypatch, np.shape)
    for n, p, m_dim, count in ((70, 4, 4, 20), (200, 4, 20, 3), (800, 20, 10, 2)):
        datasets = _datasets(POISSON, n=n, p=p, m_dim=m_dim, count=count)
        ghive_fit_many(datasets, POISSON, range(count))
        qml.fit_naive_many(datasets, POISSON)
    gathered = [np.prod(shape) for shape in seen if len(shape) == 3]
    assert gathered and max(gathered) <= qml.BLOCK_ELEMENTS
    if budget is not None:
        assert max(gathered) == budget
