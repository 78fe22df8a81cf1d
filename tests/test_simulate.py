"""Synthetic-data generator, pseudo-true-coefficient oracle, error metrics."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import circulant
from scipy.special import expit

from conftest import replay_draw
from ghive import qml, simulate
from ghive.errors import DataValidationError, NumericalError
from ghive.experiments import TABLE1_ORACLE_ROWS, _mix, experiment_spec
from ghive.families import (
    VARIANCE_FLOOR,
    family_from_name,
    hessian_weight,
    quasi_residual,
    quasi_response,
)
from ghive.pipeline import ghive_fit
from ghive.qml import _fit_matrix
from ghive.simulate import (
    ORACLE_SALT,
    SimConfig,
    circulant_cov,
    frob_err,
    fstar_oracle,
    gaussian_fstar_closed_form,
    make_truth,
    oracle_bias,
    proj_err,
    sample_dataset,
)


@pytest.mark.parametrize("decay", ["negative", "positive"])
@pytest.mark.parametrize("k", range(1, 9))
def test_circulant_cov_is_the_scipy_circulant_construction_bit_for_bit(k, decay):
    d = np.arange(k)
    first = (-0.5 if decay == "negative" else 0.5) ** np.minimum(d, k - d).astype(float)
    first[0] = 1.0
    want = circulant(first)
    assert np.array_equal(circulant_cov(k, decay), 0.5 * (want + want.T))


def test_circulant_cov_matches_hand_values():
    got = circulant_cov(3, "negative")
    want = np.array([[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]])
    assert np.array_equal(got, want)
    eig = np.sort(np.linalg.eigvalsh(got))
    assert np.allclose(eig, [0.0, 1.5, 1.5], atol=1e-12)
    assert np.array_equal(circulant_cov(1, "negative"), np.array([[1.0]]))
    got2 = circulant_cov(2, "negative")
    assert np.array_equal(got2, np.array([[1.0, -0.5], [-0.5, 1.0]]))
    pos = circulant_cov(4, "positive")
    assert np.all(np.linalg.eigvalsh(pos) >= -1e-12)
    assert pos[0, 1] == 0.5
    for k in range(1, 65):  # exactly symmetric and PSD in both conventions
        for decay in ("negative", "positive"):
            cov = circulant_cov(k, decay)
            assert np.array_equal(cov, cov.T) and np.linalg.eigvalsh(cov)[0] >= -1e-12
    with pytest.raises(DataValidationError):
        circulant_cov(3, "sideways")


def test_make_truth_row_norms_and_projection():
    cfg = SimConfig(n=50, p=6, m_dim=5, k=3, eta=7.0, seed=4)
    truth = make_truth(cfg)
    assert truth.a.shape == (6, 3) and truth.b.shape == (5, 3)
    assert np.allclose(np.linalg.norm(truth.a, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(truth.b, axis=1), 7.0, atol=1e-12)
    # the direct coefficient matrix lives in the complement of col(B)
    assert np.linalg.norm(truth.theta - truth.p_b_perp @ truth.theta) < 1e-10
    assert np.allclose(truth.p_b_perp @ truth.b, 0.0, atol=1e-12)
    assert np.allclose(truth.p_b_perp @ truth.p_b_perp, truth.p_b_perp, atol=1e-10)


def test_make_truth_is_deterministic_and_seed_sensitive():
    cfg = SimConfig(n=50, p=4, m_dim=4, k=2, eta=3.0, seed=11)
    t1, t2 = make_truth(cfg), make_truth(cfg)
    assert np.array_equal(t1.a, t2.a)
    assert np.array_equal(t1.b, t2.b)
    assert np.array_equal(t1.theta, t2.theta)
    other = make_truth(dataclasses.replace(cfg, seed=12))
    assert not np.array_equal(t1.a, other.a)


def test_full_factor_rank_collapses_the_direct_effect():
    # K = M: col(B) spans everything, so the complement projector and the
    # direct coefficient matrix both vanish identically.
    cfg = SimConfig(n=50, p=5, m_dim=3, k=3, eta=10.0, seed=0)
    truth = make_truth(cfg)
    assert np.allclose(truth.p_b_perp, 0.0, atol=1e-10)
    assert np.allclose(truth.theta, 0.0, atol=1e-10)


def test_zero_confounding_strength_zeroes_the_factor_loadings():
    cfg = SimConfig(n=50, p=4, m_dim=4, k=2, eta=0.0, seed=3)
    truth = make_truth(cfg)
    assert np.array_equal(truth.b, np.zeros((4, 2)))
    assert np.allclose(truth.p_b_perp, np.eye(4), atol=1e-12)


def test_sample_dataset_shapes_families_and_determinism():
    cfg = SimConfig(n=40, p=3, m_dim=4, k=2, eta=2.0, seed=8)
    truth = make_truth(cfg)
    ds = sample_dataset(truth, cfg, rep_seed=5)
    assert ds.x.shape == (40, 3) and ds.y.shape == (40, 4)
    assert set(np.unique(ds.y)) <= {0.0, 1.0}
    again = sample_dataset(truth, cfg, rep_seed=5)
    assert np.array_equal(ds.x, again.x) and np.array_equal(ds.y, again.y)
    other = sample_dataset(truth, cfg, rep_seed=6)
    assert not np.array_equal(ds.x, other.x)
    pois = dataclasses.replace(cfg, family="poisson", eta=1.0)
    dp = sample_dataset(make_truth(pois), pois, rep_seed=1)
    assert np.all(dp.y >= 0) and np.allclose(dp.y, np.round(dp.y))


def test_poisson_rates_beyond_numpys_draw_limit_are_a_numerical_error():
    # e^lin passes numpy's largest poisson rate (about 9.2e18) on this draw;
    # the message names the largest lin, which the draw's exp overwrites
    cfg = SimConfig(n=1000, p=3, m_dim=3, k=2, eta=12.0, seed=3, family="poisson")
    truth = make_truth(cfg)
    _, _, lin = replay_draw(truth, cfg, 1)
    with pytest.raises(NumericalError, match=re.escape(f"poisson rate exp({lin.max():.4g}) is")):
        sample_dataset(truth, cfg, rep_seed=1)


def _assert_bernoulli_replay(cfg, rep_seed):
    truth = make_truth(cfg)
    rng, x, lin = replay_draw(truth, cfg, rep_seed)
    y = (rng.random((cfg.n, cfg.m_dim)) < expit(lin)).astype(float)
    ds = sample_dataset(truth, cfg, rep_seed=rep_seed)
    assert np.array_equal(ds.x, x)
    assert np.array_equal(ds.y, y)


def test_bernoulli_responses_replay_the_documented_stream_through_expit():
    # The response rule is u < scipy.special.expit(lin), not the fitting
    # kernels' sigmoid, so simulated datasets stay fixed when those change.
    _assert_bernoulli_replay(
        SimConfig(n=2000, p=4, m_dim=4, k=2, eta=4.0, seed=15, family="bernoulli"), 3
    )


def _table1_oracle_draw():
    """The config and seed of the default table1 run's 100k-row oracle draw."""
    spec = experiment_spec("table1")
    cfg = dataclasses.replace(spec.grid[0], n=TABLE1_ORACLE_ROWS, seed=_mix(spec.seed, 0))
    return cfg, cfg.seed ^ ORACLE_SALT


def test_bernoulli_responses_replay_at_the_table1_oracle_draw():
    cfg, rep_seed = _table1_oracle_draw()
    assert (cfg.n, cfg.p, cfg.m_dim, cfg.k, cfg.eta) == (100_000, 4, 4, 3, 4.0)
    _assert_bernoulli_replay(cfg, rep_seed)


@pytest.mark.parametrize("family, eta", [("gaussian", 4.0), ("poisson", 1.0)])
def test_responses_replay_the_documented_stream(family, eta):
    cfg = SimConfig(n=2000, p=4, m_dim=4, k=2, eta=eta, seed=15, family=family)
    truth = make_truth(cfg)
    rng, x, lin = replay_draw(truth, cfg, 3)
    if family == "gaussian":
        y = lin + rng.standard_normal((cfg.n, cfg.m_dim))
    else:
        y = rng.poisson(np.exp(lin)).astype(float)
    ds = sample_dataset(truth, cfg, rep_seed=3)
    assert np.array_equal(ds.x, x)
    assert np.array_equal(ds.y, y)


def test_the_table1_oracle_draw_is_built_in_place():
    cfg, rep_seed = _table1_oracle_draw()
    truth = make_truth(cfg)
    tracemalloc.start()
    try:
        sample_dataset(truth, cfg, rep_seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured at 11.8 MiB, 20.6 MiB with a fresh array per operation; z, x, lin
    # and one 100k x 4 temporary alone are 11.4 MiB
    assert peak < 14 * 2**20


def test_covariate_covariance_obeys_the_factor_structure():
    # Cov(X) = A Sigma_Z A' + I; check the empirical covariance at a large
    # sample size, entrywise.
    cfg = SimConfig(n=100_000, p=4, m_dim=3, k=3, eta=2.0, seed=17)
    truth = make_truth(cfg)
    ds = sample_dataset(truth, cfg, rep_seed=2)
    emp = ds.x.T @ ds.x / cfg.n
    want = truth.a @ truth.sigma_z @ truth.a.T + np.eye(4)
    assert np.max(np.abs(emp - want)) < 0.05


def _sampled_fstar(truth, cfg, rows):
    """F* fitted on a sample: a zero-start quasi-likelihood ascent on one salted
    draw of ``rows`` rows, and its gradient sup-norms. It checks the exact
    gaussian and poisson oracle independently of it."""
    ds = sample_dataset(truth, dataclasses.replace(cfg, n=rows), rep_seed=cfg.seed ^ ORACLE_SALT)
    zero = np.zeros((1, cfg.m_dim, cfg.p))
    family = family_from_name(cfg.family)
    f, _, grad_norm = qml._newton_ascent([(ds.x, ds.y)], family, zero, "quasi")
    return f[0], grad_norm[0]


def test_gaussian_oracle_matches_the_closed_form():
    cfg = SimConfig(n=100, p=5, m_dim=4, k=2, eta=2.0, seed=7, family="gaussian")
    truth = make_truth(cfg)
    closed = gaussian_fstar_closed_form(truth)
    sampled, grad_norm = _sampled_fstar(truth, cfg, 50_000)
    bound = 3.0 / np.sqrt(50_000)
    assert np.max(np.abs(sampled - closed)) < bound
    assert np.all(grad_norm < qml.TOL)


def test_poisson_oracle_matches_the_gaussian_closed_form():
    # Under the simulator's gaussian (x, z) the poisson quasi-score vanishes
    # at the population least-squares coefficients (Stein's lemma), so the
    # closed form is the poisson F* too. Measured max abs 0.0043-0.0121 over
    # truth seeds 0-7 at 100k rows.
    for seed in range(8):
        cfg = SimConfig(n=100, p=4, m_dim=4, k=3, eta=1.0, family="poisson", seed=seed)
        truth = make_truth(cfg)
        sampled, _ = _sampled_fstar(truth, cfg, 100_000)
        assert np.max(np.abs(sampled - gaussian_fstar_closed_form(truth))) < 0.02


@pytest.mark.parametrize("family", ["gaussian", "poisson"])
def test_the_gaussian_and_poisson_oracle_is_the_closed_form_and_draws_nothing(
    family, monkeypatch
):
    def refuse(*args):
        pytest.fail("the exact oracle drew or fitted")

    for name in ("sample_dataset", "_newton_ascent"):
        monkeypatch.setattr(simulate, name, refuse)
    monkeypatch.setattr(qml, "_newton_ascent", refuse)
    cfg = SimConfig(n=50, p=4, m_dim=5, k=3, eta=12.0, seed=3, family=family)
    truth = make_truth(cfg)
    for n_mc in (10_000, 50_000, 200_000, 10**12):
        oracle = fstar_oracle(truth, cfg, n_mc=n_mc)
        assert np.array_equal(oracle.values, gaussian_fstar_closed_form(truth))
        assert oracle.converged.shape == (5,) and np.all(oracle.converged)
        assert oracle.family.kind == family
    for n_mc in (5_000, 10000.7, "20000"):  # n_mc is checked though nothing is drawn
        with pytest.raises(DataValidationError, match="n_mc must be"):
            fstar_oracle(truth, cfg, n_mc=n_mc)


@pytest.mark.parametrize(
    ("family", "eta", "bound"), [("gaussian", 4.0, 12.0), ("poisson", 1.0, 8.0)]
)
def test_fits_approach_the_closed_form_at_the_root_n_rate(family, eta, bound):
    # Median sqrt(n) ||F_hat - F*||_F over truth seeds 0-7 at n = 500, 2000,
    # 8000 was measured at 7.25, 9.06, 7.13 (gaussian) and 5.80, 5.39, 5.01
    # (poisson); the median error fell 4.1x (gaussian) and 4.6x (poisson)
    # from n = 500 to 8000.
    median_err = {}
    for n in (500, 2000, 8000):
        errs = []
        for seed in range(8):
            cfg = SimConfig(n=n, p=4, m_dim=4, k=3, eta=eta, family=family, seed=seed)
            truth = make_truth(cfg)
            data = sample_dataset(truth, cfg, rep_seed=seed)
            f_hat = ghive_fit(data, family_from_name(family), seed=seed).f_hat.values
            errs.append(np.linalg.norm(f_hat - gaussian_fstar_closed_form(truth)))
        median_err[n] = float(np.median(errs))
        assert np.sqrt(n) * median_err[n] < bound, (n, median_err[n])
    assert median_err[8000] < 0.5 * median_err[500], median_err


def test_oracle_without_confounding_recovers_the_direct_effect():
    cfg = SimConfig(n=100, p=4, m_dim=4, k=3, eta=0.0, seed=0)
    truth = make_truth(cfg)
    oracle = fstar_oracle(truth, cfg, n_mc=100_000)
    assert oracle_bias(oracle.values, truth)[0] < 0.05


def test_projection_removes_most_of_the_oracle_bias():
    cfg = SimConfig(n=100, p=10, m_dim=3, k=3, eta=10.0, seed=1)
    truth = make_truth(cfg)
    oracle = fstar_oracle(truth, cfg, n_mc=50_000)
    bias1, bias2 = oracle_bias(oracle.values, truth)
    assert bias1 > 0.0
    assert bias2 < 0.2 * bias1


def test_the_oracle_climbs_from_its_head_then_on_the_whole_draw(monkeypatch):
    calls, ascent = [], qml._newton_ascent

    def recorded(designs, family, starts, kind):
        out = ascent(designs, family, starts, kind)
        calls.append((designs, starts.copy(), kind, out))
        return out

    # the name simulate imports, and the one a naive-MLE stage would call
    monkeypatch.setattr(simulate, "_newton_ascent", recorded)
    monkeypatch.setattr(qml, "_newton_ascent", recorded)
    cfg = SimConfig(n=50, p=3, m_dim=4, k=2, eta=1.0, seed=0)
    truth = make_truth(cfg)
    oracle = fstar_oracle(truth, cfg, n_mc=10_000)
    ds = sample_dataset(truth, dataclasses.replace(cfg, n=10_000), rep_seed=cfg.seed ^ ORACLE_SALT)
    assert len(calls) == 2
    assert all((len(designs), kind) == (1, "quasi") for designs, _, kind, _ in calls)
    ([(head_x, head_y)], head_start, _, head), ([(x, y)], start, _, whole) = calls
    assert np.array_equal(head_x, ds.x[:625]) and np.array_equal(head_y, ds.y[:625])
    assert head_start.shape == (1, 4, 3) and not head_start.any()
    assert np.array_equal(x, ds.x) and np.array_equal(y, ds.y)
    assert np.array_equal(start, head[0])
    assert np.array_equal(oracle.values, whole[0][0])
    assert np.array_equal(oracle.grad_norm, whole[2][0])


# Largest |oracle - other fit of its draw| allowed for the sampled bernoulli
# oracle: both stop within TOL of the stationary point, so they may differ in
# the digits TOL leaves open. Against the two-start fit at n_mc 10k, p = 3
# (below), the difference at seed 0 is 3.2e-9; over seeds 0-19 it reaches
# 1.2e-8 at seed 8 and stays below 5.6e-9 elsewhere. Against a zero start on
# the whole draw at n_mc 50k, it stays below 7.1e-9 over seeds 0-19, and
# below 4.4e-9 at p = 40, n_mc 10k (seeds 0-4).
ORACLE_AGREEMENT = 1e-8

# The exact gaussian and poisson oracle is no fit of the draw, so the draw's
# two-start fit may stand from it by the fit's sampling error: at most this
# many sandwich standard errors (:func:`_sandwich_se`), entry by entry. Over
# seeds 0-19 (180 entries a family) the largest ratio is 2.97 (gaussian) and
# 2.76 (poisson), and its root mean square 1.08 and 1.02, as for standard
# normals. The truth's theta, which F* misses by its bias, is 24 to 66 away
# at its largest entry.
SAMPLING_Z = 5.0

# The truth seeds where the head-start oracle misses at n_mc 10k: seed 8 ends
# 1.2e-8 from the two-start fit and unconverged. ROADMAP item 16's line search
# is expected to mend it.
ORACLE_MISSES = {("bernoulli", 8)}


def _sandwich_se(x, y, family, f):
    """The sandwich standard errors (M, p) of a quasi-likelihood fit ``f`` of
    the draw ``(x, y)``: H^-1 S H^-1 / n per column, with H the mean negated
    Hessian and S the mean outer product of the score at ``f``."""
    n = x.shape[0]
    eta = x @ f.T
    res = quasi_residual(family, quasi_response(family, y), eta, VARIANCE_FLOOR)
    weight = hessian_weight(family, eta, res)
    se = np.empty_like(f)
    for m in range(f.shape[0]):
        h_inv = np.linalg.inv((x * weight[:, m:m + 1]).T @ x / n)
        score = x * res[:, m:m + 1]
        se[m] = np.sqrt(np.diag(h_inv @ (score.T @ score / n) @ h_inv) / n)
    return se


@pytest.mark.parametrize("family, seed", [
    pytest.param(family, seed, marks=[pytest.mark.xfail(strict=True, reason="ROADMAP item 16")]
                 if (family, seed) in ORACLE_MISSES else [])
    for family in ("gaussian", "bernoulli", "poisson") for seed in range(20)
])
def test_the_oracle_agrees_with_the_two_start_fit(family, seed):
    cfg = SimConfig(n=50, p=3, m_dim=3, k=2, eta=1.0, seed=seed, family=family)
    truth = make_truth(cfg)
    oracle = fstar_oracle(truth, cfg, n_mc=10_000)
    ds = sample_dataset(truth, dataclasses.replace(cfg, n=10_000), rep_seed=cfg.seed ^ ORACLE_SALT)
    both = _fit_matrix([(ds.x, ds.y)], family_from_name(family), "quasi")[0][0]
    if family == "bernoulli":  # the oracle fits this very draw
        assert np.max(np.abs(oracle.values - both)) <= ORACLE_AGREEMENT
    else:  # the oracle is exact: Stein's lemma, checked on a sample
        se = _sandwich_se(ds.x, ds.y, oracle.family, both)
        assert np.all(np.abs(oracle.values - both) <= SAMPLING_Z * se)
        assert not np.all(np.abs(truth.theta - both) <= SAMPLING_Z * se)
    assert np.all(oracle.converged)


@pytest.mark.parametrize(
    "family, p, n_mc",
    [("bernoulli", 3, 50_000), ("bernoulli", 40, 10_000)],  # a 625-row head for 40 coefficients
)
def test_the_head_start_reaches_the_zero_start_maximum(family, p, n_mc):
    cfg = SimConfig(n=50, p=p, m_dim=3, k=2, eta=1.0, seed=0, family=family)
    truth = make_truth(cfg)
    oracle = fstar_oracle(truth, cfg, n_mc=n_mc)
    f, _ = _sampled_fstar(truth, cfg, n_mc)
    assert np.max(np.abs(oracle.values - f)) <= ORACLE_AGREEMENT  # NaN fails too


def test_oracle_rejects_small_monte_carlo_sizes():
    cfg = SimConfig(n=50, p=3, m_dim=3, k=2, eta=1.0, seed=0)
    truth = make_truth(cfg)
    with pytest.raises(DataValidationError):
        fstar_oracle(truth, cfg, n_mc=5_000)


def test_metrics_hand_formulas():
    cfg = SimConfig(n=50, p=2, m_dim=2, k=1, eta=1.0, seed=2)
    truth = make_truth(cfg)
    theta_hat = truth.theta + 0.5
    fs = truth.theta + np.array([[0.2, -0.1], [0.0, 0.3]])
    p_hat = np.eye(2)
    diff = np.linalg.norm(theta_hat - truth.theta)
    assert frob_err(theta_hat, truth) == pytest.approx(diff**2 / np.sqrt(4))
    bias1, bias2 = oracle_bias(fs, truth)
    assert bias1 == pytest.approx(np.linalg.norm(fs - truth.theta) / np.sqrt(2))
    assert bias2 == pytest.approx(
        np.linalg.norm(truth.p_b_perp @ fs - truth.theta) / np.sqrt(2)
    )
    assert proj_err(p_hat, truth) == pytest.approx(np.linalg.norm(p_hat - truth.p_b_perp))


def test_an_oracle_at_the_truth_has_no_bias():
    cfg = SimConfig(n=50, p=2, m_dim=2, k=1, eta=1.0, seed=2)
    truth = make_truth(cfg)
    assert oracle_bias(truth.theta.copy(), truth) == pytest.approx((0.0, 0.0), abs=1e-15)


def test_oracle_bias_decays_as_covariates_accumulate():
    # Average the oracle bias over several truth draws: single draws are
    # too noisy for a clean trend at these sizes, the mean path must fall
    # with at most one small wobble.
    ps = (3, 5, 9, 15)
    seeds = range(19, 24)
    paths = []
    for seed in seeds:
        row = []
        for p in ps:
            cfg = SimConfig(
                n=100, p=p, m_dim=3, k=3, eta=10.0, seed=seed, family="gaussian"
            )
            truth = make_truth(cfg)
            oracle = fstar_oracle(truth, cfg, n_mc=50_000)
            row.append(oracle_bias(oracle.values, truth)[0])
        paths.append(row)
    mean_path = np.mean(paths, axis=0)
    steps = np.diff(mean_path)
    inversions = steps > 0
    assert inversions.sum() <= 1
    if inversions.any():
        j = int(np.argmax(inversions))
        assert steps[j] / mean_path[j] < 0.20
    assert mean_path[-1] < mean_path[0]


def test_factor_strength_is_pervasive_across_seeds():
    # Both loading matrices should give K-th eigenvalues of the normalized
    # Grams that stay within a constant band, for a run of seeds.
    for seed in range(20):
        cfg = SimConfig(n=50, p=50, m_dim=200, k=3, eta=4.0, seed=seed)
        truth = make_truth(cfg)
        lam_b = np.linalg.eigvalsh(truth.b.T @ truth.b / cfg.m_dim)
        lam_a = np.linalg.eigvalsh(truth.a.T @ truth.a / cfg.p)
        assert 0.2 <= lam_b[0] / cfg.eta**2 <= 2.0
        assert 0.2 <= lam_a[0] <= 2.0


@pytest.mark.parametrize("name", ["Gaussian", " bernoulli ", "POISSON"])
def test_a_family_name_in_any_case_draws_the_canonical_family(name):
    canonical = name.strip().lower()
    cfg = SimConfig(n=30, p=3, m_dim=3, k=2, eta=1.0, seed=5, family=name)
    assert cfg.family == canonical and cfg.to_json_dict()["family"] == canonical
    want = SimConfig(n=30, p=3, m_dim=3, k=2, eta=1.0, seed=5, family=canonical)
    got, ref = (sample_dataset(make_truth(c), c, rep_seed=1) for c in (cfg, want))
    assert np.array_equal(got.x, ref.x) and np.array_equal(got.y, ref.y)


def test_config_validation_and_json_roundtrip():
    with pytest.raises(DataValidationError):
        SimConfig(n=1, p=3, m_dim=3, k=2, eta=1.0)
    with pytest.raises(DataValidationError):
        SimConfig(n=10, p=3, m_dim=3, k=0, eta=1.0)
    with pytest.raises(DataValidationError):
        SimConfig(n=10, p=3, m_dim=3, k=4, eta=1.0)
    with pytest.raises(DataValidationError):
        SimConfig(n=10, p=3, m_dim=3, k=2, eta=-1.0)
    with pytest.raises(DataValidationError):
        SimConfig(n=10, p=3, m_dim=3, k=2, eta=1.0, reps=0)
    with pytest.raises(DataValidationError):
        SimConfig(n=10, p=3, m_dim=3, k=2, eta=1.0, family="probit")
    cfg = SimConfig(n=10, p=3, m_dim=3, k=2, eta=1.5, seed=6, reps=2)
    back = SimConfig.from_json_dict(cfg.to_json_dict())
    assert back == cfg
    assert SimConfig(n=np.int64(10), p=3, m_dim=3, k=2, eta=np.float64(1.5), seed=6, reps=2) == cfg
    doc = cfg.to_json_dict()
    del doc["eta"]
    with pytest.raises(DataValidationError):
        SimConfig.from_json_dict(doc)
    doc = cfg.to_json_dict()
    doc["mystery"] = 1
    with pytest.raises(DataValidationError):
        SimConfig.from_json_dict(doc)
