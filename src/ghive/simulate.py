"""Synthetic data generator with hidden confounding, plus oracles.

Model: hidden factors z ~ N(0, sigma_z) with K x K circulant covariance,
observed covariates x = A z + w with w ~ N(0, I_p), and responses drawn from
the family with natural parameter ``theta x + B z`` per response row. The
loading matrices are random with unit-norm rows; B is scaled by the
confounding strength eta, and theta is re-projected so that the true
coefficient matrix lies in the orthogonal complement of span(B).

Randomness uses the counter-based Philox generator with disjoint key
domains, so truth draws, replication draws and oracle draws never share a
stream:

* truth stream     key = (1 << 64) | seed, draw order A, B, theta
* dataset stream   key = (2 << 64) | rep_seed, draw order z, w, response
* oracle dataset   rep_seed = seed XOR 0x9E3779B97F4A7C15 (bernoulli only)

The pseudo-true coefficient matrix F* (the population target of the
per-response quasi-likelihood fit) is exact for the gaussian and poisson
families: ``gaussian_fstar_closed_form``, the population least-squares
coefficient. For gaussian that is the least-squares identity. For poisson it
holds because (x, z) is jointly gaussian with mean zero: by Stein's lemma the
poisson quasi-score ``E[(y e^(-f.x) - 1) x]`` vanishes at the population
least-squares coefficients (Brillinger 1982; Li & Duan 1989). That rests on
the simulator's design, not on the estimator. Bernoulli has no closed form
here, so ``fstar_oracle`` approximates its F* by fitting one very large
simulated sample. Its Newton ascent starts from zero on the first 1/16 of the
draw's rows and finishes on all of them from there. The quasi-objective is
concave, so on at least 10k rows the start changes only the digits TOL leaves
open.

Three scores compare with the truth, each from plain arrays: ``frob_err``
(an estimated theta), ``oracle_bias`` (F*, before and after projection) and
``proj_err`` (an estimated complement projector).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .data_io import Dataset
from .errors import DataValidationError, NumericalError, require_integer, require_number
from .families import family_from_name
from .qml import CoefMatrix, _newton_ascent

_TRUTH_DOMAIN = 1
_DATA_DOMAIN = 2
ORACLE_SALT = 0x9E3779B97F4A7C15

# A bernoulli fstar_oracle first climbs from zero on the first
# n_mc // _HEAD_DIVISOR rows of its draw, then finishes on every row from where
# the head stopped: the rows are iid, so the head's maximiser lies within about
# n^-1/2 of the full one, and the full ascent needs 2-4 Newton steps instead of
# 3-7 (p = M = 4, truth seed 0, 100k rows). Oracle ascent CPU time, zero start
# -> head start, mean over truth seeds 0-5 (one BLAS thread): p = M = 4,
# eta = 4: 21.5 -> 14.9 ms at 100k rows, 50.7 -> 31.7 ms at 200k; p = 15,
# M = 6, eta = 2: 118 -> 79 ms and 292 -> 181 ms. At 10k rows (the oracle's
# floor on n_mc, a 625-row head) it is a wash. A head of n // 8 rows was no
# faster overall.
_HEAD_DIVISOR = 16

DECAY_CONVENTIONS = ("negative", "positive")


def _stream(domain: int, seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(domain << 64) | int(seed)))


@dataclass(frozen=True)
class SimConfig:
    """Generator settings; ``k`` is the true factor count.

    ``sigma_z_decay`` picks the circulant covariance convention: "negative"
    uses base -0.5 (the default) and "positive" uses +0.5.
    """

    n: int
    p: int
    m_dim: int
    k: int
    eta: float
    family: str = "bernoulli"
    seed: int = 0
    reps: int = 1
    sigma_z_decay: str = "negative"

    def __post_init__(self):
        # keep the canonical name: the sampler branches on it
        object.__setattr__(self, "family", family_from_name(self.family).kind)
        for name, low in (("n", 2), ("p", 1), ("m_dim", 1), ("reps", 1)):
            require_integer(name, getattr(self, name), low, 2**63 - 1)  # a JSON int64
        require_integer("seed", self.seed, 0, 2**64 - 1)  # a Philox key holds 64 bits of it
        require_integer("k", self.k, 1, min(self.p, self.m_dim))
        require_number("eta", self.eta, low=0)
        if self.sigma_z_decay not in DECAY_CONVENTIONS:
            raise DataValidationError(
                f"sigma_z_decay must be one of {DECAY_CONVENTIONS}"
            )

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @staticmethod
    def from_json_dict(doc: dict) -> "SimConfig":
        try:  # the generated __init__ refuses a missing or unknown field by name
            return SimConfig(**doc)
        except TypeError as exc:
            raise DataValidationError(f"simulation config: {exc}") from None


@dataclass
class SimTruth:
    """Ground-truth generator state and derived oracle quantities."""

    a: np.ndarray  # (p, K) covariate loadings, unit-norm rows
    b: np.ndarray  # (M, K) response loadings, rows of norm eta
    theta: np.ndarray  # (M, p) true coefficients, rows orthogonal to span(b)
    sigma_z: np.ndarray  # (K, K) hidden factor covariance
    p_b_perp: np.ndarray  # (M, M) projector onto the complement of span(b)


def circulant_cov(k: int, decay: str = "negative") -> np.ndarray:
    """Circulant covariance with entries ``base ** min(d, k - d)``.

    The default base -0.5 gives, at k = 3, the matrix with unit diagonal and
    -0.5 off-diagonals (eigenvalues 0, 1.5, 1.5): PSD but singular, which is
    why sampling goes through an eigendecomposition square root rather than
    a Cholesky factor.

    Both conventions are PSD at every k. The matrix is exactly symmetric,
    since ``first[r] == first[k - r]``, and its eigenvalues are the DFT of
    its first row. From k = 8 on they differ by less than 1/3 from the
    infinite-k spectrum ``(1 - base**2) / (1 - 2 base cos w + base**2)``,
    which is at least 1/3. Below k = 8 they are at least 0 for base -0.5
    (0 is reached at k = 3) and at least 0.25 for base 0.5.
    """
    if decay not in DECAY_CONVENTIONS:
        raise DataValidationError(f"decay must be one of {DECAY_CONVENTIONS}")
    base = -0.5 if decay == "negative" else 0.5
    d = np.arange(k)
    first = base ** np.minimum(d, k - d).astype(float)
    first[0] = 1.0
    return first[(d[:, None] - d) % k]  # cov[i, j] = first[(i - j) mod k]


def _normalize_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return mat / np.maximum(norms, 1e-300)


def _column_projector(mat: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column span (zero matrix for rank 0)."""
    m = mat.shape[0]
    if mat.size == 0 or not np.any(mat):
        return np.zeros((m, m))
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-12))
    basis = u[:, :rank]
    return basis @ basis.T


def make_truth(config: SimConfig) -> SimTruth:
    """Draw the ground truth for one simulation configuration.

    Draw order (single truth stream): A, then B, then theta.
    """
    rng = _stream(_TRUTH_DOMAIN, config.seed)
    p, m_dim, k = config.p, config.m_dim, config.k
    a = _normalize_rows(rng.standard_normal((p, k)))
    b = config.eta * _normalize_rows(rng.standard_normal((m_dim, k)))
    theta = _normalize_rows(rng.standard_normal((m_dim, p)))
    p_b_perp = np.eye(m_dim) - _column_projector(b)
    theta = p_b_perp @ theta
    sigma_z = circulant_cov(k, config.sigma_z_decay)
    return SimTruth(a=a, b=b, theta=theta, sigma_z=sigma_z, p_b_perp=p_b_perp)


def _sigma_z_sqrt(sigma_z: np.ndarray) -> np.ndarray:
    lam, q = np.linalg.eigh(sigma_z)
    return q * np.sqrt(np.clip(lam, 0.0, None))


# a poisson rate that overflows is refused below; an e^-lin that does gives sigmoid 0
@np.errstate(over="ignore")
def sample_dataset(truth: SimTruth, config: SimConfig, rep_seed: int) -> Dataset:
    """Draw one dataset of config.n rows from the truth.

    Draw order (single dataset stream): hidden factors z, covariate noise w,
    then the response draw. z is sampled through the eigendecomposition
    square root of sigma_z, which tolerates the singular default covariance.

    x = z A' + w, lin = x theta' + z B' and y are built in arrays the draw
    owns: z A' is added into w, z B' into lin, and the response rule (lin + e,
    u < 1/(1 + e^-lin), or poisson(e^lin)) runs in place. IEEE addition is
    commutative and every other step is the same operation on the same
    operands, so the draw order and every bit are those of the plain
    expressions.
    """
    require_integer("rep_seed", rep_seed, 0, 2**64 - 1)
    rng = _stream(_DATA_DOMAIN, rep_seed)
    n = config.n
    k = truth.sigma_z.shape[0]
    p = truth.a.shape[0]
    m_dim = truth.b.shape[0]
    z = rng.standard_normal((n, k)) @ _sigma_z_sqrt(truth.sigma_z).T
    x = rng.standard_normal((n, p))
    x += z @ truth.a.T
    lin = x @ truth.theta.T
    lin += z @ truth.b.T
    kind = config.family
    if kind == "gaussian":
        y = rng.standard_normal((n, m_dim))
        y += lin
    elif kind == "bernoulli":
        np.negative(lin, out=lin)
        np.exp(lin, out=lin)
        lin += 1.0
        np.divide(1.0, lin, out=lin)
        y = rng.random((n, m_dim))
        np.less(y, lin, out=y)
    else:  # poisson
        top = lin.max()  # for the refusal below: exp overwrites lin
        try:
            lin[...] = rng.poisson(np.exp(lin, out=lin))
        except ValueError:  # numpy refuses rates above about 9.2e18
            raise NumericalError(
                f"poisson rate exp({top:.4g}) is too large to draw counts from; "
                "lower eta or the coefficient scale"
            ) from None
        y = lin
    return Dataset(x, y)


def gaussian_fstar_closed_form(truth: SimTruth) -> np.ndarray:
    """Exact pseudo-true coefficients for the gaussian family, and for
    poisson under this simulator's jointly gaussian, mean-zero (x, z).

    F* = theta + B sigma_z A' (A sigma_z A' + I)^{-1}, the population
    least-squares coefficient of the confounded regression. The poisson
    quasi-score vanishes there too (Stein's lemma; see the module docstring).
    """
    p = truth.a.shape[0]
    sigma_x = truth.a @ truth.sigma_z @ truth.a.T + np.eye(p)
    gamma = np.linalg.solve(sigma_x, truth.a @ truth.sigma_z).T
    return truth.theta + truth.b @ gamma


def fstar_oracle(truth: SimTruth, config: SimConfig, n_mc: int = 50_000) -> CoefMatrix:
    """The pseudo-true coefficient matrix of the config's family.

    ``n_mc``, the rows of a bernoulli oracle's draw, must be an integer in
    10000..2**63-1 in every family. For gaussian and poisson the oracle is
    exact: ``gaussian_fstar_closed_form(truth)``, every column converged,
    with nothing drawn or fitted. That rests on the simulator's Gaussian
    design (see the module docstring), not on the estimator.

    For bernoulli it is a Monte-Carlo approximation. Every response is fitted
    by quasi-likelihood on one simulated sample of ``n_mc`` rows (no data
    splitting), one column per response: a Newton ascent from zero on the
    first ``n_mc // 16`` rows, then one on every row from where that stopped.
    The objective is concave, so the start moves F* only in the digits TOL
    leaves open: by less than 7.1e-9 from a zero start on the whole draw
    (n_mc 50k, p = M = 3, truth seeds 0-19). The oracle draw uses a salted
    seed so it never shares a stream with replication datasets derived from
    the same config.
    """
    require_integer("n_mc", n_mc, 10_000, 2**63 - 1)  # an oracle document holds it
    family = family_from_name(config.family)
    if config.family in ("gaussian", "poisson"):
        return CoefMatrix(gaussian_fstar_closed_form(truth), np.zeros(config.m_dim), family)
    ds = sample_dataset(truth, replace(config, n=n_mc), rep_seed=config.seed ^ ORACLE_SALT)
    head = n_mc // _HEAD_DIVISOR
    f = np.zeros((1, config.m_dim, config.p))
    f = _newton_ascent([(ds.x[:head], ds.y[:head])], family, f, "quasi")[0]
    f, _, grad_norm = _newton_ascent([(ds.x, ds.y)], family, f, "quasi")
    return CoefMatrix(f[0], grad_norm[0], family)


def frob_err(theta_hat: np.ndarray, truth: SimTruth) -> float:
    """The figure-caption error ``||theta_hat - theta||_F^2 / sqrt(p M)``."""
    m_dim, p = truth.theta.shape
    return float(np.linalg.norm(theta_hat - truth.theta)) ** 2 / np.sqrt(p * m_dim)


def _frobenius(a: np.ndarray) -> float:
    """``||a||_F``, its squares summed after scaling ``a`` by the power of two
    just above its largest absolute entry: no overflow past 1e154, and as the
    scaling is exact, the plain norm's bits below that."""
    exponent = np.frexp(np.max(np.abs(a), initial=0.0))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(a, -exponent)), exponent))


def oracle_bias(f_star: np.ndarray, truth: SimTruth) -> tuple:
    """The unprojected and projected approximation bias of the pseudo-true
    matrix ``f_star`` (M, p), ``(bias1, bias2)``, in Frobenius norm over sqrt(M)."""
    scale = np.sqrt(truth.theta.shape[0])
    bias1 = _frobenius(f_star - truth.theta) / scale
    return bias1, _frobenius(truth.p_b_perp @ f_star - truth.theta) / scale


def proj_err(p_perp_hat: np.ndarray, truth: SimTruth) -> float:
    """The projector estimation error ``||p_perp_hat - P_B^perp||_F``."""
    return float(np.linalg.norm(p_perp_hat - truth.p_b_perp))
