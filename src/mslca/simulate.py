"""Samplers and reproducible Monte Carlo experiments.

Each experiment draws replications from per-(size, replication) RNG streams
spawned off the master seed, so results are bit-reproducible and independent
of execution order. ``run_experiment`` is the one replication loop: every
cell samples from its own stream, the cells of a size are fitted a chunk at
a time as one stack of matrices, each cell's stream and fit go to its kind's
record function, and each size's records go to the kind's summary function.
A kind supplies only its set-up (preconditions, raised as PlanPreconditionError
before any cell runs, and reference quantities), record and summary.
Chi-square references come from the closed-form tail ``_chi2_sf`` rather
than from simulation, which keeps the checks non-circular.

``null-dist`` and ``power`` share one record and summary of the test routes
(``_routes``): every cell records ``p_chi2`` (nS against chi-square(d)), and
"general" in ``methods`` adds ``p_general``; other kinds ignore ``methods``.
``null-dist`` adds ``ns`` and ``p_chi2_scaled`` (nS over the sampler's true
kurtosis scale). Each size reports each route's rejection rates at ``alphas``,
as ``size_{route}`` (``null-dist``, with ``mean_ns`` and the KS distance) or
``rejection_{route}`` (``power``).
"""

from __future__ import annotations

import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .blocks import BlockStructure, _integer, _items, _real
from .estimation import Dataset, _fit_stack, align_sign
from .exceptions import MslcaError, NuTooSmallError, PlanPreconditionError
from .noncorr import degrees_of_freedom, general_test
from .population import DEFAULT_GROUP_TOL, CovarianceModel, build_t, solve_mslca
from .asymptotics import (
    _chi2_sf,
    _cross_entry_forms,
    _require_whitened_model,
    c_tensor_gaussian,
    sigma_matrix,
)

# Bytes of stacked sample that one chunk of cells may hold: 8 cells at
# n=2000, q=6 and 3 at n=5000, q=6. More cells per chunk save little time
# and add peak memory.
_CHUNK_BYTES = 768 * 1024


def rng_stream(master_seed: int, size_index: int, rep_index: int) -> np.random.Generator:
    """Independent generator for one (size, replication) cell; the seed must be an integer."""
    entropy = _integer(master_seed, "master_seed")
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(size_index, rep_index)))


def _gaussian_rows(model: CovarianceModel, n: int, seed) -> tuple[np.ndarray, np.random.Generator]:
    """Standard normal rows times the model's root, and the generator that drew them."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not isinstance(seed, np.random.Generator):
        seed = np.random.default_rng(_integer(seed, "seed"))
    return seed.standard_normal((n, model.structure.total_dim)) @ model.root, seed


def sample_gaussian(model: CovarianceModel, n: int, seed) -> Dataset:
    """n i.i.d. centered Gaussian rows with covariance equal to the model's.

    Rows are the symmetric square root of the covariance applied to standard
    normal vectors; deterministic given the seed, an integer or a Generator.
    ``n`` is an integer >= 1; a float or a bool raises ValueError, as in a plan.
    """
    return Dataset._from_fresh(model.structure, _gaussian_rows(model, n, seed)[0])


def _require_nu(nu: float, what: str) -> None:
    """ValueError for a non-finite nu (a bool or a string too), NuTooSmallError unless nu > 4."""
    if not math.isfinite(_real(nu)):
        raise ValueError(f"nu must be finite, got {nu!r}")
    if nu <= 4:
        raise NuTooSmallError(f"{what} needs nu > 4, got {nu}")


def sample_student_t(model: CovarianceModel, nu: float, n: int, seed) -> Dataset:
    """n i.i.d. rows from a multivariate t scaled to covariance equal to the model's.

    Draws V^{1/2} g / sqrt(w / nu) with g standard normal and w an
    independent chi-square(nu), times sqrt((nu-2)/nu) so the covariance is
    exactly V; g is drawn first, as in ``sample_gaussian``, then w. The seed
    is an integer or a Generator, and ``n`` an integer >= 1, as in
    ``sample_gaussian``. Requires a finite nu > 4 so fourth moments exist.
    """
    _require_nu(nu, "student-t sampler")
    rows, rng = _gaussian_rows(model, n, seed)
    rows *= np.sqrt((nu - 2.0) / rng.chisquare(nu, size=n))[:, None]
    return Dataset._from_fresh(model.structure, rows)


def student_t_kurtosis_scale(nu: float) -> float:
    """Elliptical kurtosis scale of the multivariate t: (nu-2)/(nu-4)."""
    _require_nu(nu, "kurtosis scale")
    return (nu - 2.0) / (nu - 4.0)


def ks_distance(sample: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance sup |F_n - F| against a CDF."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(x), dtype=float)
    d_plus = float(np.max(np.arange(1, n + 1) / n - f))
    d_minus = float(np.max(f - np.arange(0, n) / n))
    return max(d_plus, d_minus)


@dataclass(frozen=True)
class SimulationPlan:
    """Everything needed to reproduce one experiment.

    ``sizes``, ``alphas`` and ``methods`` must be lists (any iterable but a
    string, bytes or a mapping). ``sizes``, ``replications`` and ``seed``
    must be integers; a float such as 3.0 is refused (ValueError) rather
    than truncated. ``alphas`` and ``nu`` must be numbers, and so must every
    covariance entry (checked by ``CovarianceModel``); a bool or a string is
    refused. ``alphas`` and ``methods`` must be nonempty. Sizes must be
    distinct, since summaries are keyed by size, and small enough for numpy
    to index an n-row sample. The covariance must be positive semidefinite,
    since the samplers use its square root. ``kind`` must be a kind's name;
    any other value, a list included, is refused.
    """

    kind: str
    model: CovarianceModel
    sizes: tuple[int, ...]
    replications: int
    sampler: str = "gaussian"
    nu: float | None = None
    seed: int = 0
    alphas: tuple[float, ...] = (0.05,)
    methods: tuple[str, ...] = ("chi2",)

    def __post_init__(self):
        sizes = _items(self.sizes, "sizes")
        object.__setattr__(self, "sizes", tuple(_integer(s, "sizes") for s in sizes))
        object.__setattr__(self, "replications", _integer(self.replications, "replications"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        alphas = self.alphas
        object.__setattr__(self, "alphas", tuple(_real(a) for a in _items(alphas, "alphas")))
        object.__setattr__(self, "methods", _items(self.methods, "methods"))
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.sampler not in ("gaussian", "student-t"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.replications < 1:
            raise PlanPreconditionError(
                f"need at least 1 replication, got {self.replications}"
            )
        if not self.sizes or any(s < 2 for s in self.sizes):
            raise ValueError(f"sizes must all be >= 2, got {self.sizes}")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError(f"sizes must not repeat, got {self.sizes}")
        q = self.model.structure.total_dim
        if max(self.sizes) * q * 8 > np.iinfo(np.intp).max:
            raise ValueError(f"sizes: a {max(self.sizes)} x {q} sample is too large for numpy")
        max_dim = max(self.model.structure.dims)
        if any(s <= max_dim for s in self.sizes):
            # a centered sample of n rows has rank at most n - 1
            raise PlanPreconditionError(
                f"sizes must all exceed the largest block dimension {max_dim}, got {self.sizes}"
            )
        if self.seed < 0:
            raise PlanPreconditionError(f"seed must be nonnegative, got {self.seed}")
        if not self.alphas or any(not 0 < a < 1 for a in self.alphas):
            raise ValueError(f"alphas must be nonempty and lie in (0, 1), got {alphas!r}")
        if not self.methods or any(m not in ("chi2", "general") for m in self.methods):
            raise ValueError(f"methods must be chi2/general and nonempty, got {self.methods}")
        if self.nu is not None and not math.isfinite(_real(self.nu)):
            raise ValueError(f"nu must be finite, got {self.nu!r}")
        if self.sampler == "student-t":
            if self.nu is None:
                raise ValueError("student-t sampler needs nu")
            _require_nu(self.nu, "student-t sampler")
        elif self.nu is not None:
            raise ValueError(f"nu applies only to sampler 'student-t', got sampler {self.sampler!r}")
        # the samplers' square root of V, computed once; raises ValueError unless V is PSD
        self.model.root

    def sample(self, n: int, rng: np.random.Generator) -> Dataset:
        if self.sampler == "gaussian":
            return sample_gaussian(self.model, n, rng)
        return sample_student_t(self.model, self.nu, n, rng)

    @property
    def true_scale(self) -> float:
        """Kurtosis scale of the sampler's law (1 for Gaussian)."""
        if self.sampler == "gaussian":
            return 1.0
        return student_t_kurtosis_scale(self.nu)

    def to_dict(self) -> dict:
        """The plan's fields, tuples as lists, with the model as ``dims`` and ``covariance``."""
        plan = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "model"}
        plan.update(dims=self.model.structure.dims, covariance=self.model.v.tolist())
        return {key: list(v) if isinstance(v, tuple) else v for key, v in plan.items()}

    @classmethod
    def from_dict(cls, raw: dict) -> "SimulationPlan":
        """The plan of ``to_dict``'s keys; a field with a default may be absent or ``null``."""
        required, optional = [], []
        for f in fields(cls):
            keys = ("dims", "covariance") if f.name == "model" else (f.name,)
            (required if f.default is MISSING else optional).extend(keys)
        missing = [key for key in required if key not in raw]
        if missing:
            raise KeyError(f"plan config is missing keys: {missing}")
        unknown = sorted(key for key in raw if key not in required + optional)
        if unknown:
            raise ValueError(f"plan config has unknown keys: {unknown}")
        kwargs = {key: raw[key] for key in required}
        kwargs.update({key: raw[key] for key in optional if raw.get(key) is not None})
        model = CovarianceModel(BlockStructure(kwargs.pop("dims")), kwargs.pop("covariance"))
        return cls(model=model, **kwargs)


@dataclass(frozen=True)
class ExperimentResult:
    """Per-replication records plus order-independent summaries."""

    kind: str
    plan: dict
    records: list[dict]
    summaries: dict
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _column(records: list[dict], key: str) -> np.ndarray:
    return np.array([record[key] for record in records])


def _consistency(plan: SimulationPlan):
    """Estimation error of the operator, coefficients and directions vs n.

    Direction errors are sign-aligned per vector; inside eigenvalue
    multiplicity groups individual eigenvectors are not identified, so the
    per-group error of the spanned projectors is recorded as well.
    """
    t_true = build_t(plan.model)
    solution = solve_mslca(plan.model)
    beta = solution.beta
    projectors = [beta[:, list(g)] @ beta[:, list(g)].T for g in solution.groups]

    def record(rng, fit):
        est = fit.solution.beta
        return {
            "t_error": float(np.linalg.norm(fit.that - t_true)),
            "rho_errors": np.abs(fit.solution.rho - solution.rho).tolist(),
            "beta_errors": [
                float(np.linalg.norm(align_sign(est[:, j], beta[:, j]) - beta[:, j]))
                for j in range(beta.shape[1])
            ],
            "group_projector_errors": [
                float(np.linalg.norm(est[:, list(g)] @ est[:, list(g)].T - projector))
                for g, projector in zip(solution.groups, projectors)
            ],
        }

    def summarize(records):
        return {
            f"median_{key}": np.median(_column(records, key), axis=0).tolist()
            for key in ("t_error", "rho_errors", "beta_errors", "group_projector_errors")
        }

    return record, summarize


def _require_covariance_plan(plan: SimulationPlan) -> None:
    """A whitened-compatible model and at least two replications per size."""
    try:
        _require_whitened_model(plan.model)
    except ValueError as err:
        raise PlanPreconditionError(f"{plan.kind}: {err}") from None
    if plan.replications < 2:
        raise PlanPreconditionError(
            f"{plan.kind} estimates covariances and needs at least 2 replications, "
            f"got {plan.replications}"
        )


def _clt_check(plan: SimulationPlan):
    """Covariance of sqrt(n) * estimation error vs covariance of the limit operator.

    Each replication records the off-diagonal block entries of the scaled
    error and of the limit operator at one fresh draw, read from forms built
    at set-up (``_cross_entry_forms``); their empirical covariances should
    agree. Needs a whitened-compatible model (checked at set-up only), two or
    more replications and a limit operator whose Gaussian E||Z||^2 exceeds
    round-off, since the discrepancy divides by its covariance (an elliptical
    sampler scales it by a positive factor).
    """
    _require_covariance_plan(plan)
    solution = solve_mslca(plan.model)
    tensor = c_tensor_gaussian(plan.model, solution)
    second_moment = float(np.einsum("mrmr->", tensor))
    if second_moment <= DEFAULT_GROUP_TOL:
        raise PlanPreconditionError(
            f"clt-check needs a nonvanishing limit operator, got E||Z||^2 = {second_moment:.3g}"
        )
    t_true = build_t(plan.model)
    rows_idx, cols_idx = plan.model.structure.cross_entries
    forms = _cross_entry_forms(plan.model, solution)

    def record(rng, fit):
        err = np.sqrt(fit.n) * (fit.that - t_true)
        fresh = plan.sample(1, rng).rows[0]
        return {
            "t_entries": err[rows_idx, cols_idx].tolist(),
            "z_entries": np.einsum("euv,u,v->e", forms, fresh, fresh).tolist(),
        }

    def summarize(records):
        cov_t = np.cov(_column(records, "t_entries"), rowvar=False)
        cov_z = np.cov(_column(records, "z_entries"), rowvar=False)
        return {
            "entry_positions": np.column_stack([rows_idx, cols_idx]).tolist(),
            "cov_scaled_error": np.atleast_2d(cov_t).tolist(),
            "cov_limit_operator": np.atleast_2d(cov_z).tolist(),
            "relative_discrepancy": float(np.linalg.norm(cov_t - cov_z) / np.linalg.norm(cov_z)),
        }

    return record, summarize


def _coeff_clt(plan: SimulationPlan):
    """Variance of sqrt(n) * coefficient errors vs the asymptotic covariance.

    Requires a simple population spectrum, a whitened-compatible model, at
    least two replications and every asymptotic variance above round-off,
    as it divides its variance ratio. The reference variances come from the
    closed-form Gaussian tensor, scaled by the sampler's kurtosis factor
    (valid for the elliptical student-t sampler as well).
    """
    solution = solve_mslca(plan.model)
    if not solution.is_simple:
        raise PlanPreconditionError("coefficient CLT experiment needs a simple spectrum")
    _require_covariance_plan(plan)
    tensor = plan.true_scale * c_tensor_gaussian(plan.model, solution)
    asymptotic = np.diag(sigma_matrix(tensor, solution))
    for i in np.flatnonzero(asymptotic <= DEFAULT_GROUP_TOL * asymptotic.max()).tolist():
        raise PlanPreconditionError(
            f"coefficient CLT experiment needs a positive asymptotic variance: "
            f"coefficient {i} (rho = {solution.rho[i]:.6g}) has {asymptotic[i]:.3g}"
        )

    def record(rng, fit):
        return {"scaled_rho_errors": (np.sqrt(fit.n) * (fit.solution.rho - solution.rho)).tolist()}

    def summarize(records):
        variances = _column(records, "scaled_rho_errors").var(axis=0, ddof=1)
        return {
            "empirical_variances": variances.tolist(),
            "asymptotic_variances": asymptotic.tolist(),
            "variance_ratios": (variances / asymptotic).tolist(),
        }

    return record, summarize


def _require_null_model(model: CovarianceModel) -> None:
    structure = model.structure
    for k in range(1, structure.n_blocks):
        for l in range(k):
            if model.v[structure.block_slice(k), structure.block_slice(l)].any():
                raise PlanPreconditionError(f"model violates the null: block ({k}, {l}) is nonzero")


def _routes(plan: SimulationPlan, scales: dict[str, float], prefix: str):
    """Record ``p_{route}`` per route (nS / scale or general); rate them as ``{prefix}_{route}``."""
    d = degrees_of_freedom(plan.model.structure)
    include_general = "general" in plan.methods
    routes = [*scales, "general"] if include_general else list(scales)

    def record(rng, fit):
        ns = fit.n * fit.s
        out = {f"p_{route}": _chi2_sf(d, ns / scale) for route, scale in scales.items()}
        if include_general:
            out["p_general"] = general_test(fit, alpha=plan.alphas[0]).p_value
        return out

    def summarize(records):
        p_values = {route: _column(records, f"p_{route}") for route in routes}
        return {
            f"{prefix}_{route}": {str(a): float(np.mean(p < a)) for a in plan.alphas}
            for route, p in p_values.items()
        }

    return record, summarize


def _null_dist(plan: SimulationPlan):
    """Null distribution of n * statistic vs its chi-square limit.

    Besides ``mean_ns`` and the sizes, reports the KS distance of the
    scale-corrected statistic to chi-square(d). That distance is computed
    once, as the KS distance of the correct-route p-values from uniform: the
    p-value is 1 - F(x) and a KS distance is unchanged by a monotone map, so
    it is reported under both ``ks_to_chi2`` and ``p_uniformity_ks``.
    """
    _require_null_model(plan.model)
    route_record, route_summary = _routes(
        plan, {"chi2": 1.0, "chi2_scaled": plan.true_scale}, "size"
    )

    def record(rng, fit):
        return {"ns": fit.n * fit.s, **route_record(rng, fit)}

    def summarize(records):
        ks = ks_distance(_column(records, "p_chi2_scaled"), lambda u: np.clip(u, 0.0, 1.0))
        return {
            "mean_ns": float(_column(records, "ns").mean()),
            "ks_to_chi2": ks,
            "p_uniformity_ks": ks,
            **route_summary(records),
        }

    return record, summarize


def _power(plan: SimulationPlan):
    """Rejection rates ``rejection_{route}`` per size, at unit chi-square scale.

    Intended for models violating the null; on a null model the rates reduce
    to empirical sizes, which is still well defined and occasionally useful,
    so no guard is imposed.
    """
    return _routes(plan, {"chi2": 1.0}, "rejection")


# Each kind's set-up checks its precondition, computes its reference
# quantities and returns its (record, summarize) pair.
_KINDS = {
    "consistency": _consistency,
    "clt-check": _clt_check,
    "coeff-clt": _coeff_clt,
    "null-dist": _null_dist,
    "power": _power,
}


def _chunk_fits(samples: list[Dataset]):
    """The fits of a chunk's samples, in order.

    The chunk is fitted as one stack. If a sample cannot be fitted, the
    samples are refitted one by one as the caller reaches them, so the error
    surfaces at the cell that causes it, after the records of the cells
    before it, just as with one cell per chunk.
    """
    try:
        return _fit_stack(samples)
    except (MslcaError, ValueError):  # NearSingularError, CovarianceOverflowError, LinAlgError
        return (_fit_stack([sample])[0] for sample in samples)


def run_experiment(plan: SimulationPlan) -> ExperimentResult:
    """Run a plan: sample, fit and record every (size, replication) cell.

    Each cell draws its sample from its own stream, in (size, replication)
    order. The cells of a size are fitted in chunks of consecutive
    replications, each chunk as one stack (``_CHUNK_BYTES`` caps the stacked
    sample); a stacked fit equals each cell's own fit bit for bit, so no
    result depends on the chunk length. Each cell's stream and fit then go
    to the kind's record, to which ``n`` and ``rep`` are added, and after
    each size the kind summarizes that size's records. A kind's precondition
    fails with PlanPreconditionError before any cell runs.
    """
    started = time.perf_counter()
    record, summarize = _KINDS[plan.kind](plan)
    row_bytes = 8 * plan.model.structure.total_dim
    records: list[dict] = []
    summaries: dict[str, dict] = {}
    for i_size, n in enumerate(plan.sizes):
        chunk = max(1, _CHUNK_BYTES // (n * row_bytes))
        cells = []
        for start in range(0, plan.replications, chunk):
            reps = range(start, min(start + chunk, plan.replications))
            rngs = [rng_stream(plan.seed, i_size, rep) for rep in reps]
            samples = [plan.sample(n, rng) for rng in rngs]
            for rep, rng, fit in zip(reps, rngs, _chunk_fits(samples)):
                cells.append({"n": n, "rep": rep, **record(rng, fit)})
            del samples, fit  # a fit holds its chunk's centred stack: free it before the next draw
        summaries[str(n)] = summarize(cells)
        records.extend(cells)
    meta = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": time.perf_counter() - started,
    }
    return ExperimentResult(
        kind=plan.kind,
        plan=plan.to_dict(),
        records=records,
        summaries=summaries,
        meta=meta,
    )
