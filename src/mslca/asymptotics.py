"""Limiting-distribution machinery for the empirical canonical analysis.

Everything here lives under the standing normalization of the asymptotic
theory: each block has identity covariance (data whitened, models
"whitened-compatible") and finite fourth moments.

Provided pieces:

* ``build_gamma`` -- the d x d matrix of fourth moments of a whitened
  ``Dataset`` (a fit's ``whitened`` sample): the covariance of the stacked
  off-diagonal block entries (the limit covariance of the non-correlation
  statistic's Gaussian vector), returned as a plain array whose eigenvalues
  are the weights of the general route's weighted chi-square law.
  Both fourth-moment estimators here (this and the plug-in ``c_tensor``) walk
  the sample transposed, one observation per column as a fit's ``whitened``
  sample holds it, and add up their Gram products over blocks of columns
  written into one reused feature buffer, so their working memory does not
  grow with n.
* ``c_tensor`` / ``c_tensor_gaussian`` -- second moments of the limit
  operator Z in the eigenbasis. Z is defined once, by its eigenbasis forms
  <beta_m, Z(x) beta_r> = x^T A_mr x, which check the eigen-relation they
  rest on: the plug-in averages products of the forms over a whitened
  ``Dataset`` as a Gram product, the Gaussian version evaluates their second
  moments in closed form, and ``clt-check`` reads Z's entries from them.
* ``sigma_matrix`` -- asymptotic covariance of the canonical coefficients
  (simple spectra only).
* ``EigenChiSquareDist`` / ``quad_form_pvalue`` -- the law of a weighted sum
  of independent one-degree chi-squares and its upper tail, to within
  ``TAIL_ATOL``. The tail lies between two exact chi-square tails, of the
  largest weight times a chi-square counting that weight and one counting
  every positive weight; where they differ by more than ``TAIL_ATOL`` it is
  inverted numerically from the Laplace transform. The law is the one place
  that checks weights: round-off negatives down to ``WEIGHT_CLAMP_FLOOR``
  become zero, anything lower is refused.
* ``_chi2_sf`` -- the upper tail P(chi2_d >= x) for an integer d, summed in
  closed form (a Poisson sum, plus an erfc term for odd d). It is the one
  chi-square tail of the package: the chi-square route, the weighted tail's
  bracket and the Monte Carlo references all read it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockStructure, _real
from .estimation import Dataset
from .exceptions import (
    InsufficientSampleError,
    MslcaError,
    NegativeWeightError,
    RepeatedEigenvaluesError,
)
from .population import CovarianceModel, MslcaSolution, _require_same_structure

WEIGHT_CLAMP_FLOOR = -1e-8
WHITENED_ATOL = 1e-6
# Largest deviation of a model's diagonal block from the identity that
# still counts as whitened-compatible.
WHITENED_MODEL_ATOL = 1e-8
# Absolute error allowed in a weighted chi-square tail probability.
TAIL_ATOL = 1e-10
# Term counts the tail plan may choose, about 2**(i / 4) up to the budget of
# 2**22 terms, and the highest summation-by-parts order of its error bound.
# The ceilings never decrease from 1, so keeping each one above the one
# before it drops the repeats (``np.unique`` would import ``numpy.ma``).
_TERM_GRID = np.ceil(2.0 ** (np.arange(89) / 4.0)).astype(np.int64)
_TERM_GRID = _TERM_GRID[np.diff(_TERM_GRID, prepend=0) > 0]
_MAX_ORDER = 12
_CHUNK_ENTRIES = 1 << 18  # nodes x distinct weights evaluated at once
# Bytes of one row block's features in a fourth-moment Gram (``_row_gram``).
# Much smaller blocks slow wide Grams: at d = 1536, 1 MB blocks took 3x as long.
_GRAM_BLOCK_BYTES = 8 << 20
# Chernoff exponents tried, as fractions of their limit 1 / (2 lam_max).
_CHERNOFF_GRID = np.concatenate([np.geomspace(1e-3, 0.5, 12), 1.0 - np.geomspace(0.4, 1e-4, 16)])
# fdlibm's split of ln 2. n * _LN2_HI is exact for n < 2**21, so for y below
# 1.4e6 the reduction r = y - n ln 2, with e**-y = 2**-n e**-r, loses nothing
# to cancellation.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _identity_gaps(cov: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """Each diagonal block's largest entrywise deviation from the identity, in block order."""
    gaps = np.where(structure.diagonal_mask, np.abs(cov - np.eye(structure.total_dim)), 0.0)
    return np.maximum.reduceat(gaps.max(axis=1), structure.offsets)


def _require_whitened_model(model: CovarianceModel) -> None:
    for k, gap in enumerate(_identity_gaps(model.v, model.structure)):
        if gap > WHITENED_MODEL_ATOL:
            raise ValueError(
                f"model is not whitened-compatible: block {k} deviates from the "
                f"identity by {gap:.3e}"
            )


def _require_whitened_data(rows: np.ndarray, structure: BlockStructure) -> None:
    n = rows.shape[0]
    means = rows.mean(axis=0)
    scale = 1.0 + np.abs(rows).max()
    if np.abs(means).max() > WHITENED_ATOL * scale:
        raise ValueError("data is not centered; whiten it first")
    centered = rows - means
    for k, gap in enumerate(_identity_gaps(centered.T @ centered / n, structure)):
        if gap > WHITENED_ATOL:
            raise ValueError(f"block {k} of the data is not whitened; whiten it first")


class MomentAccumulator:
    """The checked entry for a sample whitened outside a fit.

    ``from_whitened`` checks that a ``Dataset`` is centred and whitened and
    returns that same ``Dataset``. Inside the package every fourth-moment
    estimate reads a fit's ``whitened`` sample, whitened by construction, so
    nothing in the package calls it; it goes when the benchmark stops calling it.
    """

    @staticmethod
    def from_whitened(dataset: Dataset) -> Dataset:
        _require_whitened_data(dataset.rows, dataset.structure)
        return dataset


def _row_gram(sample: np.ndarray, features, width: int) -> np.ndarray:
    """Sum over the observations x_i of f(x_i) f(x_i)^T, for f = ``features`` with ``width`` values.

    ``sample`` holds one observation per column, (q, n), as a fit's
    ``whitened`` rows do seen transposed. ``features(x, out)`` writes the
    features of consecutive columns x into the (width, len) array ``out``.
    Blocks of columns holding at most ``_GRAM_BLOCK_BYTES`` of features have
    their Gram products f f^T added in column order. Every block, the last
    partial one too, writes into one feature buffer, so working memory is
    that buffer and the sum; a sample that fits in one block gets exactly
    f @ f.T. A C-ordered (n, q) sample seen transposed is read through its
    strided blocks, never copied.
    """
    n = sample.shape[1]
    step = max(1, min(n, _GRAM_BLOCK_BYTES // (8 * width)))
    buffer = np.empty((width, step))

    def block_gram(start: int) -> np.ndarray:
        block = sample[:, start : start + step]
        f = buffer[:, : block.shape[1]]
        features(block, f)
        return f @ f.T

    gram = block_gram(0)
    for start in range(step, n, step):
        gram += block_gram(start)
    return gram


def build_gamma(whitened: Dataset) -> np.ndarray:
    """Assemble the d x d matrix of fourth moments of paired coordinates.

    ``whitened`` is a centred, whitened sample, such as ``MslcaFit.whitened``.
    Rows and columns run in the order of ``BlockStructure.cross_entries``
    (rows r, cols c). Entry [a, b] is the sample mean of
    x_{r_a} x_{c_a} x_{r_b} x_{c_b}; as a Gram matrix of pair products it is
    symmetric positive semidefinite up to round-off. It is accumulated over
    blocks of observations of the transposed (q, n) sample (``_row_gram``),
    so its working memory does not grow with n. In that order the products
    of block k with every coordinate before it are one run of features,
    which one broadcast product writes into the feature buffer.
    """
    structure = whitened.structure
    # the runs of ``cross_entries``: block k against every coordinate before it
    blocks = [structure.block_slice(k) for k in range(1, structure.n_blocks)]

    def pair_products(x: np.ndarray, out: np.ndarray) -> None:
        end = 0
        for block in blocks:
            run = out[end : end + block.start * (block.stop - block.start)]
            end += len(run)
            run = run.reshape(block.start, -1, x.shape[1])  # splits an axis: a view
            np.multiply(x[None, block], x[: block.start, None], out=run)

    width = structure.cross_entries[0].size
    matrix = _row_gram(whitened.rows.T, pair_products, width) / whitened.n
    return 0.5 * (matrix + matrix.T)


def _eigenbasis_forms(model: CovarianceModel, solution: MslcaSolution) -> np.ndarray:
    """The limit operator in the eigenbasis as quadratic forms in the observation.

    Returns A (q, q, q, q) with <beta_m, Z(x) beta_r> = x^T A[m, r] x for
    every x: the one definition of the limit operator Z(x) = off(x x^T) -
    (D Psi + Psi D) / 2, D the diagonal blocks of x x^T. By the eigen-relation
    Psi beta_r = rho_r beta_r, which must hold within WHITENED_ATOL * (1 +
    max|Psi|), A[m, r] is beta_m beta_r^T with its diagonal blocks scaled by
    -(rho_m + rho_r) / 2; for diagonal blocks within ``WHITENED_MODEL_ATOL`` of
    the identity, it (and so ``clt-check``'s Z) matches the Psi form only to
    that order. Raises ValueError unless the model is whitened-compatible and
    solved by the solution.
    """
    _require_whitened_model(model)
    _require_same_structure(model, solution)
    structure = model.structure
    beta, rho = solution.beta, solution.rho
    psi = np.where(structure.diagonal_mask, 0.0, model.v)
    residual = np.abs(psi @ beta - beta * rho).max()
    if residual > WHITENED_ATOL * (1.0 + np.abs(psi).max()):
        raise ValueError(f"solution breaks Psi beta = beta rho by {residual:.3e}")
    half_sums = -0.5 * (rho[:, None, None, None] + rho[None, :, None, None])
    return np.einsum("um,vr->mruv", beta, beta) * np.where(structure.diagonal_mask, half_sums, 1.0)


def _cross_entry_forms(model: CovarianceModel, solution: MslcaSolution) -> np.ndarray:
    """F (d, q, q) with x^T F[e] x entry e of Z(x), in ``BlockStructure.cross_entries`` order.

    The eigenbasis forms rotated back: F[e] = sum_{m,r} beta[rows_e, m] beta[cols_e, r] A[m, r].
    """
    rows, cols = model.structure.cross_entries
    beta = solution.beta
    return np.einsum("em,er,mruv->euv", beta[rows], beta[cols], _eigenbasis_forms(model, solution))


def c_tensor(
    whitened: Dataset, solution: MslcaSolution, model: CovarianceModel
) -> np.ndarray:
    """Plug-in second moments of the limit operator in the eigenbasis.

    Entry [m, r, s, t] is the sample mean, over the whitened sample, of
    z_mr z_st, where z_mr = x^T A[m, r] x is the observation's value of the
    eigenbasis forms that ``c_tensor_gaussian`` also uses. With the (q^2, n)
    matrix of the z values, the tensor is the Gram product z z^T / n,
    accumulated over blocks of observations (``_row_gram``), so its working
    memory does not grow with n. Raises ValueError unless the sample, the
    solution and the model share one block structure and the solution solves
    the model.
    """
    if whitened.structure != model.structure:
        raise ValueError(
            f"sample has block dims {whitened.structure.dims}, model has {model.structure.dims}"
        )
    q = whitened.structure.total_dim
    forms = _eigenbasis_forms(model, solution).reshape(q * q, q * q)

    def form_values(x: np.ndarray, out: np.ndarray) -> None:
        np.matmul(forms, (x[:, None, :] * x[None, :, :]).reshape(q * q, -1), out=out)

    return (_row_gram(whitened.rows.T, form_values, q * q) / whitened.n).reshape(q, q, q, q)


def c_tensor_gaussian(model: CovarianceModel, solution: MslcaSolution) -> np.ndarray:
    """Population coefficients for a Gaussian model, in closed form.

    Each entry is the second moment of a pair of quadratic forms in the
    observation, the eigenbasis forms x^T A_mr x of the limit operator that
    ``c_tensor`` averages. Gaussian moments give E[x^T A x * x^T B x] =
    tr(A V) tr(B V) + 2 tr(sym(A) V sym(B) V), and tr(A_mr V) is zero for the
    model's own solution. Raises ValueError unless the solution solves the model.

    Under any elliptical law with the same covariance, all these fourth
    moments scale by the common kurtosis factor, so the tensor for, say, a
    multivariate t is this one times (nu - 2) / (nu - 4).
    """
    forms = _eigenbasis_forms(model, solution)
    av = np.einsum("mruv,vw->mruw", 0.5 * (forms + forms.transpose(0, 1, 3, 2)), model.v)
    return 2.0 * np.einsum("mruw,stwu->mrst", av, av)


def sigma_matrix(tensor: np.ndarray, solution: MslcaSolution) -> np.ndarray:
    """Asymptotic covariance of the canonical coefficients, simple spectra only.

    In the eigenbasis the projection coefficients onto each one-dimensional
    eigenspace collapse to Kronecker deltas, so entry (i, j) is the
    coefficient ``tensor[i, i, j, j]``, read on and above the diagonal and
    mirrored below it. ``tensor`` must have shape (q, q, q, q) for q
    canonical coefficients; any other shape raises ValueError.
    """
    q = solution.rho.shape[0]
    tensor = np.asarray(tensor, dtype=float)
    if tensor.shape != (q, q, q, q):
        raise ValueError(f"c-tensor must have shape {(q, q, q, q)}, got {tensor.shape}")
    if not solution.is_simple:
        sizes = [len(g) for g in solution.groups]
        raise RepeatedEigenvaluesError(
            f"spectrum has repeated eigenvalues (group sizes {sizes})"
        )
    full = np.einsum("iijj->ij", tensor)
    return np.where(np.triu(np.ones((q, q), dtype=bool)), full, full.T)


@dataclass(frozen=True)
class EigenChiSquareDist:
    """Law of a nonnegatively weighted sum of independent chi-square(1) terms.

    Weights, a nonempty 1-d array, are stored nonincreasing and read-only.
    Sample fourth-moment matrices can be marginally indefinite numerically, so
    values in [WEIGHT_CLAMP_FLOOR, 0) are clamped to zero at construction;
    anything more negative raises NegativeWeightError.
    """

    weights: np.ndarray

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError(f"need a 1-d array of at least one weight, got shape {weights.shape}")
        weights = np.sort(weights)[::-1]
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        if weights[-1] < WEIGHT_CLAMP_FLOOR:
            raise NegativeWeightError(f"weight {weights[-1]:.3e} is negative")
        weights = np.clip(weights, 0.0, None)
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)


def quad_form_pvalue(dist: EigenChiSquareDist, observed: float) -> float:
    """Upper-tail probability P(Q >= observed) of Q = sum_i w_i chi2_1, within TAIL_ATOL.

    Zero weights are dropped and equal weights merged into one scaled
    chi-square term whose degrees of freedom are their count. With all
    weights zero Q is 0, so the tail is exactly 1 at 0 and exactly 0 above.
    Otherwise, with lam the largest weight, m its count and M the count of
    positive weights, lam chi2(m) <= Q <= lam chi2(M), so the tail lies
    between the exact tails ``_chi2_sf(m, observed / lam)`` and
    ``_chi2_sf(M, observed / lam)``. Where they agree within TAIL_ATOL the
    upper one is returned: for one distinct weight (m = M) that is the tail
    itself, at a statistic of 0 it is exactly 1, and far below or above the
    body of Q it is 1 or a tail below TAIL_ATOL. Any other case is inverted
    from the Laplace transform by ``_inversion_sf``, whose aliasing and
    truncation errors are bounded in advance, and clipped to the bracket.
    Deterministic. A bool or a string is refused (ValueError) rather than
    read as a number.
    """
    x = _real(observed)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"observed statistic must be a finite nonnegative number, got {observed!r}")
    positive = dist.weights[dist.weights > 0.0]
    if positive.size == 0:
        return 1.0 if x == 0.0 else 0.0
    lam, mult = np.unique(positive, return_counts=True)
    y = x / float(lam[-1])  # a float quotient overflows to inf quietly, a tail of 0
    lower, upper = _chi2_sf(int(mult[-1]), y), _chi2_sf(positive.size, y)
    if upper - lower <= TAIL_ATOL:
        return upper
    return min(upper, max(lower, _inversion_sf(lam[::-1], mult[::-1].astype(float), x)))


def _chi2_sf(d: int, x: float) -> float:
    """P(chi2_d >= x) for an integer d >= 1 and a float x >= 0.

    With y = x / 2 the tail is e**-y * sum_{j < d/2} y**j / j! for even d and
    erfc(sqrt(y)) + e**-y * sum_{j < (d-1)/2} y**(j+1/2) / Gamma(j+3/2) for
    odd d (Abramowitz & Stegun 26.4.4 and 26.4.21). The terms are positive
    and follow by t_j = t_{j-1} * y / j, or y / (j + 1/2) for odd d. The sum
    is carried with a binary exponent, so e**-y never underflows however
    large y and d are. A tail whose Chernoff bound for x > d,
    exp(-(y - d/2 - (d/2) log(2y/d))), lies below e**-750, far beneath the
    smallest double, is returned as exactly 0. O(d) time. Against 40-digit
    arithmetic, the relative error stayed below 2e-14 for d <= 5001 and
    x <= 12 d + 200 wherever the tail is at least 1e-300.
    """
    y = 0.5 * float(x)
    if y == 0.0:
        return 1.0
    half = 0.5 * d
    if y > half and (y == math.inf or y - half - half * math.log(y / half) > 750.0):
        return 0.0
    n = int(y / _LN2_HI + 0.5)
    term = math.exp(n * _LN2_LO - (y - n * _LN2_HI))  # e**-y * 2**n
    if d % 2:
        head = math.erfc(math.sqrt(y))
        term *= 2.0 * math.sqrt(y / math.pi)
        j = 0.5
    else:
        head = 0.0
        j = 0.0
    total = 0.0
    for _ in range(d // 2):
        total += term
        j += 1.0
        term *= y / j
        if total > 1e150:
            total *= 2.0**-500
            term *= 2.0**-500
            n -= 500
    return head + math.ldexp(total, -n)


def _log_abs_laplace(lam: np.ndarray, mult: np.ndarray, sigma, u) -> np.ndarray:
    """log |E exp(-(sigma + iu) Q)| for Q = sum_j lam_j chi2(m_j); broadcasts sigma and u."""
    a = 1.0 + 2.0 * np.multiply.outer(sigma, lam)
    b = 2.0 * np.multiply.outer(u, lam)
    with np.errstate(over="ignore"):  # an overflow stands for a modulus of 0
        return -0.25 * (np.log(a * a + b * b) @ mult)


def _g_hat(lam: np.ndarray, mult: np.ndarray, sigma: float, u: np.ndarray) -> np.ndarray:
    """Fourier transform of exp(-sigma y) P(Q <= y) at each u: Lap(sigma + iu) / (sigma + iu)."""
    arg = -0.5 * (np.arctan2(2.0 * np.outer(u, lam), 1.0 + 2.0 * sigma * lam) @ mult)
    return np.exp(_log_abs_laplace(lam, mult, sigma, u) + 1j * arg) / (sigma + 1j * u)


def _tail_plan(lam: np.ndarray, mult: np.ndarray, x: float, budget: float):
    """Period L, damping sigma, term count K and order p of the inversion sum.

    Aliasing and truncation get half of ``budget`` each. Two periods are
    tried: one reaching past the Chernoff bound of the upper tail with light
    damping (sigma L = 1), which suits x in the body or upper tail of Q, and
    L = 8x with the damping its aliasing needs, which suits x far below the
    mean. The one needing fewer terms wins. Raises MslcaError when neither
    meets the budget within the largest count of ``_TERM_GRID``.
    """
    eps = 0.5 * budget
    # Chernoff: log P(Q >= y) <= c(t) - t y for 0 <= t < 1 / (2 lam_max)
    t = _CHERNOFF_GRID / (2.0 * lam[0])
    c = -0.5 * (np.log1p(-2.0 * np.outer(t, lam)) @ mult)
    # with sigma L = 1 the aliasing bound is S(x + L) / (e - 1)
    reach = float(np.min((c - math.log(eps * math.expm1(1.0))) / t))
    periods = np.array([max(2.0 * x, reach - x), 8.0 * x])
    log_upper = np.minimum(0.0, np.min(c - np.outer(x + periods, t), axis=1))
    damping = np.maximum(1.0, np.log1p(np.exp(log_upper) / eps))  # sigma * L
    sigma = damping / periods
    step = 2.0 * math.pi / periods
    log_spin = np.log(2.0 * np.sin(math.pi * x / periods))
    log_pref = sigma * x - math.log(math.pi)
    orders = np.arange(1, _MAX_ORDER + 1)
    a_coef = 1.0 + 0.5 * float(mult.sum())
    log_rising = np.cumsum(np.log(a_coef + orders - 1.0)) - np.log(orders)
    for lo in range(0, _TERM_GRID.size, 16):
        terms = _TERM_GRID[lo : lo + 16]
        log_r = _log_abs_laplace(lam, mult, sigma[:, None], np.outer(step, terms))
        log_bound = (
            (log_pref[:, None] + log_r)[:, :, None]
            + log_rising
            - orders * (log_spin[:, None] + np.log(terms))[:, :, None]
        )
        cost = np.where(log_bound <= math.log(eps), terms[:, None] + orders, np.inf)
        if np.isfinite(cost).any():
            i, k, j = np.unravel_index(np.argmin(cost), cost.shape)
            return periods[i], sigma[i], int(terms[k]), int(orders[j])
    raise MslcaError(
        f"weighted chi-square tail at {x:.6g} needs more than {_TERM_GRID[-1]} terms "
        f"for an error below {budget:.1e}"
    )


def _inversion_sf(lam: np.ndarray, mult: np.ndarray, x: float) -> float:
    """P(Q >= x) for Q = sum_j lam_j chi2(m_j), distinct lam_j > 0 (at least two), x > 0.

    With F the CDF of Q, Lap(s) = E exp(-sQ) = prod_j (1 + 2 lam_j s)^(-m_j/2)
    and sigma > 0, the function exp(-sigma y) F(y) (zero for y < 0) has the
    Fourier transform g(u) = Lap(sigma + iu) / (sigma + iu). Poisson summation
    at step D = 2 pi / L with L > x gives exactly, with z = exp(iDx),

        exp(sigma x) D / (2 pi) [g(0) + 2 Re sum_{k >= 1} g(kD) z^k]
            = F(x) + sum_{n >= 1} exp(-sigma n L) F(x + nL).

    Writing F = 1 - S in the aliased sum leaves a known part
    1 / expm1(sigma L) less theta, 0 <= theta <= S(x + L) / expm1(sigma L).
    The series is cut after K - 1 terms. Summing its rest by parts p times
    gives p boundary terms, which are added, and a remainder
    sum_k (Delta^p g)_k z^(k+p) / (1 - z)^p. Every derivative of log g obeys
    |(log g)^(j)(u)| <= (j - 1)! A / u^j with A = 1 + sum_j m_j / 2, so
    |g^(p)(u)| <= |Lap(sigma + iu)| (A)_p / u^(p + 1), and the remainder
    moves F by at most

        exp(sigma x) / pi * (A)_p / p * |Lap(sigma + iKD)| / (2K sin(pi x / L))^p.

    ``_tail_plan`` chooses L, sigma, K and p so that theta and this bound
    each stay below TAIL_ATOL / 4; the other half is left for rounding.
    """
    period, sigma, n_terms, order = _tail_plan(lam, mult, x, 0.5 * TAIL_ATOL)
    step = 2.0 * math.pi / period
    phase = step * x
    series = 0.0j
    boundary = []
    chunk = max(1, _CHUNK_ENTRIES // lam.size)
    for start in range(1, n_terms + order, chunk):
        k = np.arange(start, min(start + chunk, n_terms + order))
        values = _g_hat(lam, mult, sigma, k * step)
        head = k < n_terms
        series += np.sum(values[head] * np.exp(1j * np.mod(k[head] * phase, 2.0 * math.pi)))
        boundary.append(values[~head])
    # boundary terms sum_{j < p} z^(K + j) (Delta^j g)_K / (1 - z)^(j + 1)
    z = cmath.exp(1j * phase)
    factor = cmath.exp(1j * math.fmod(n_terms * phase, 2.0 * math.pi)) / (1.0 - z)
    diffs = np.concatenate(boundary).tolist()
    for _ in range(order):
        series += factor * diffs[0]
        factor *= z / (1.0 - z)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    g0 = math.exp(-0.5 * float(np.log1p(2.0 * sigma * lam) @ mult)) / sigma
    cdf = math.exp(sigma * x) * step / (2.0 * math.pi) * (g0 + 2.0 * series.real)
    return 1.0 + 1.0 / math.expm1(sigma * period) - cdf


def _kurtosis_scale(data: Dataset) -> float:
    """Kurtosis-scale estimate of the elliptical chi-square route, from whitened data.

    Averages, over whitened coordinates, the sample fourth moment divided by
    three; the estimand is 1 for Gaussian data and (nu-2)/(nu-4) for a
    multivariate t with nu degrees of freedom. Needs at least 30 rows. The
    whitening is not checked: the caller passes ``MslcaFit.whitened``.
    """
    if data.n < 30:
        raise InsufficientSampleError(f"need at least 30 rows, got {data.n}")
    squares = data.rows * data.rows
    fourth = np.mean(squares * squares, axis=0)
    return float(np.mean(fourth) / 3.0)
