"""Acceptance gate: the seven headline checks for this package.

Each test prints one summary line with the measured quantities next to the
bound it must clear, so a verbose run doubles as a scorecard. The
experiment-backed checks share session fixtures with the harness tests to
keep the suite inside a desk-scale time budget.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import agg_lookup, quasi_loglik_term, small_sim_dataset
from ghive import BERNOULLI, GAUSSIAN
from ghive.data_io import Dataset
from ghive.experiments import experiment_spec
from ghive.families import quasi_response, weighted_residual
from ghive.pipeline import ghive_fit
from ghive.qml import (
    _newton_ascent,
    fit_naive_mle,
    loglik_gradient,
    loglik_objective,
    quasi_gradient,
    quasi_objective,
)
from ghive.simulate import (
    SimConfig,
    fstar_oracle,
    make_truth,
    oracle_bias,
    sample_dataset,
)
from ghive.spectral import projector_complement


def test_criterion_1_projection_shrinks_oracle_bias():
    # M=3 with three factors: five truth draws, oracle bias with and
    # without the population projection, across a covariate grid.
    ps = (3, 6, 9, 12, 15)
    seeds = range(19, 24)
    bias1 = np.zeros((len(seeds), len(ps)))
    bias2 = np.zeros_like(bias1)
    for i, seed in enumerate(seeds):
        for j, p in enumerate(ps):
            cfg = SimConfig(
                n=100, p=p, m_dim=3, k=3, eta=10.0, seed=seed, family="gaussian"
            )
            truth = make_truth(cfg)
            oracle = fstar_oracle(truth, cfg, n_mc=50_000)
            bias1[i, j], bias2[i, j] = oracle_bias(oracle.values, truth)
    mean1 = bias1.mean(axis=0)
    mean2 = bias2.mean(axis=0)
    decay = mean1[-1] / mean1[0]
    ratios = [mean2[j] / mean1[j] for j, p in enumerate(ps) if p >= 5]
    print(
        f"[criterion 1] PASS decay p=15/p=3 {decay:.4f} (<= 0.7); "
        f"max projected/unprojected ratio for p >= 5: {max(ratios):.4f} (<= 0.25)"
    )
    assert decay <= 0.7
    for r in ratios:
        assert r <= 0.25


def test_criterion_2_projection_defeats_growing_confounding(fig1_eta_run):
    naive = agg_lookup(fig1_eta_run, "naive-mle", "frob_err")
    oracle_p = agg_lookup(fig1_eta_run, "oracle-p", "frob_err")
    etas = [c.eta for c in experiment_spec("fig1-eta", seed=0).grid]
    lo, hi = etas.index(1.0), etas.index(8.0)
    growth = naive[hi] / naive[lo]
    ratio = oracle_p[hi] / naive[hi]
    print(
        f"[criterion 2] PASS naive error growth eta 1->8: {growth:.2f} (>= 1.5); "
        f"oracle-projector/naive at eta=8: {ratio:.2f} (<= 0.8)"
    )
    assert growth >= 1.5
    assert ratio <= 0.8


def test_criterion_3_errors_shrink_with_sample_size(fig2_n_run):
    ns = [c.n for c in experiment_spec("fig2-n", seed=0).grid]
    first, last = ns.index(100), ns.index(400)
    means = {
        est: agg_lookup(fig2_n_run, est, "frob_err")
        for est in ("oracle-p", "oracle-k", "data-driven", "naive-mle")
    }
    for est, path in means.items():
        assert path[last] < path[first], f"{est} error failed to shrink in n"
    slack = 1.10
    assert means["oracle-p"][last] <= slack * means["oracle-k"][last]
    assert means["oracle-k"][last] <= slack * means["data-driven"][last]
    print(
        "[criterion 3] PASS errors at n=400 vs n=100: "
        + ", ".join(
            f"{est} {means[est][last]:.3f}<{means[est][first]:.3f}" for est in means
        )
        + f"; ordering oracle-p <= oracle-k <= data-driven holds with {slack:.2f} slack"
    )


def test_criterion_4_every_variant_beats_the_baseline_in_m(fig2_m_run):
    ms = [c.m_dim for c in experiment_spec("fig2-m", seed=0).grid]
    naive = agg_lookup(fig2_m_run, "naive-mle", "frob_err")
    summary = []
    for est in ("oracle-p", "oracle-k", "data-driven"):
        path = agg_lookup(fig2_m_run, est, "frob_err")
        for idx, m in enumerate(ms):
            assert path[idx] <= naive[idx], f"{est} above baseline at M={m}"
        summary.append(f"{est} {[round(path[i], 2) for i in range(len(ms))]}")
    print(
        f"[criterion 4] PASS baseline {[round(naive[i], 2) for i in range(len(ms))]}"
        f" dominates: " + "; ".join(summary)
    )


def test_criterion_5_interval_coverage(table1_run):
    dd = agg_lookup(table1_run, "data-driven", "covered")[0]
    naive = agg_lookup(table1_run, "naive-mle", "covered")[0]
    dd_se = agg_lookup(table1_run, "data-driven", "se")[0]
    print(
        f"[criterion 5] PASS data-driven coverage {dd:.2f} (in [0.90, 1.00]); "
        f"naive Wald coverage {naive:.2f} (<= 0.85); mean se {dd_se:.2f}"
    )
    assert 0.90 <= dd <= 1.00
    assert naive <= 0.85


def test_criterion_6_oracle_equivalences():
    # (a) gaussian-family fits equal ordinary least squares
    rng = np.random.default_rng(606)
    worst_fit = 0.0
    for _ in range(20):
        n = int(rng.integers(30, 120))
        p = int(rng.integers(1, 6))
        x = rng.standard_normal((n, p))
        beta = rng.standard_normal(p)
        y = x @ beta + rng.standard_normal(n)
        ols = np.linalg.lstsq(x, y, rcond=None)[0]
        f = _newton_ascent([(x, y[:, None])], GAUSSIAN, np.zeros((1, 1, p)), "quasi")[0]
        worst_fit = max(worst_fit, float(np.max(np.abs(f[0, 0] - ols))))
        naive = fit_naive_mle(Dataset(x, y.reshape(-1, 1)), GAUSSIAN)
        worst_fit = max(worst_fit, float(np.max(np.abs(naive.values[0] - ols))))
    assert worst_fit <= 1e-8

    # (b) the per-observation objective term integrates the weighted residual
    rng = np.random.default_rng(77)
    worst_term = 0.0
    for _ in range(100):
        eta = float(rng.uniform(-6, 6))
        y = float(rng.integers(0, 2))
        ref, _ = quad(
            lambda s: weighted_residual(BERNOULLI, y, s),
            0.0,
            eta,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=200,
        )
        worst_term = max(worst_term, abs(quasi_loglik_term(BERNOULLI, y, eta) - ref))
    print(
        f"[criterion 6] PASS worst fit-vs-OLS deviation {worst_fit:.2e} (<= 1e-8); "
        f"worst term-vs-quadrature deviation {worst_term:.2e} (<= 1e-10)"
    )
    assert worst_term <= 1e-10


def _num_grad(f, coef, h=1e-6):
    g = np.zeros_like(coef)
    for j in range(coef.size):
        e = np.zeros_like(coef)
        e[j] = h
        g[j] = (f(coef + e) - f(coef - e)) / (2.0 * h)
    return g


def test_criterion_7_numerical_property_suite():
    # gradients against finite differences, both objectives
    rng = np.random.default_rng(41)
    x = 0.5 * rng.standard_normal((60, 4))
    eta = x @ rng.uniform(-0.5, 0.5, size=4)
    y = (rng.random(60) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    coef = rng.uniform(-0.3, 0.3, size=4)
    worst_grad = 0.0
    for obj, grad, r in (
        (quasi_objective, quasi_gradient, quasi_response(BERNOULLI, y)),
        (loglik_objective, loglik_gradient, y),
    ):
        ana = grad(x, r, BERNOULLI, obj(x, r, BERNOULLI, coef)[1])[0]
        num = _num_grad(lambda c: obj(x, r, BERNOULLI, c)[0], coef)
        worst_grad = max(
            worst_grad, float(np.max(np.abs(ana - num) / np.maximum(np.abs(num), 1e-8)))
        )
    assert worst_grad <= 1e-5

    # projector algebra at 1e-8
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    for k in range(8):
        proj = projector_complement(q, k)
        assert np.allclose(proj, proj.T, atol=1e-8)
        assert np.allclose(proj @ proj, proj, atol=1e-8)
        assert abs(np.trace(proj) - (7 - k)) <= 1e-8

    # residual covariance symmetry and end-to-end determinism
    data, _, _ = small_sim_dataset(n=60, p=4, m_dim=4, k=3, seed=30, rep_seed=2)
    fit = ghive_fit(data, BERNOULLI, seed=9)
    assert np.array_equal(fit.spectral.sigma_hat, fit.spectral.sigma_hat.T)
    again = ghive_fit(data, BERNOULLI, seed=9)
    assert np.array_equal(fit.theta_hat, again.theta_hat)
    assert np.array_equal(fit.spectral.eigvals, again.spectral.eigvals)

    # factor-count recovery under strong, well-separated confounding
    hits = 0
    n_seeds = 50
    for seed in range(n_seeds):
        cfg = SimConfig(
            n=400, p=8, m_dim=8, k=3, eta=10.0, seed=seed,
            family="gaussian", sigma_z_decay="positive",
        )
        truth = make_truth(cfg)
        ds = sample_dataset(truth, cfg, rep_seed=seed + 1000)
        hit_fit = ghive_fit(ds, GAUSSIAN, seed=seed)
        hits += int(hit_fit.spectral.k_hat == cfg.k)
    rate = hits / n_seeds
    print(
        f"[criterion 7] PASS worst gradient mismatch {worst_grad:.2e} (<= 1e-5); "
        f"projector algebra at 1e-8; covariance symmetric; bitwise repeat; "
        f"factor recovery {hits}/{n_seeds} (>= 0.90)"
    )
    assert rate >= 0.90
