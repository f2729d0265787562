"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop with one caller in one process. ``prepare``
builds the inputs from the seed (untimed), ``run_pass`` does one pass, timing
each of its steps on a ``hostclock.HostClock``, and returns its outputs, and
``check`` returns the output-check failures of one pass as (operations
failed, message) pairs. ``ops`` is the number of operations in a pass.

A pass is split into steps of about half a second where the package's API
allows it: a plan's replications run as several smaller plans with seeds of
their own, so that the host probe brackets each step closely. Checks on
statistics pool the replications of all of a pass's plans.

The package is called only through module attributes looked up at call
time (``mslca.simulate.run_experiment``), so the traced run sees every call.

Statistical checks use bounds of ``Z`` standard errors at the workload's
replication count: a correct implementation fails one with probability below
about 1e-6 for any seed. The acceptance criteria's own bounds are calibrated
for one fixed seed and a larger replication count, so at arbitrary seeds they
would fail correct code now and then.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os

import numpy as np
from scipy import stats

import mslca.asymptotics
import mslca.cli
import mslca.estimation
import mslca.population
import mslca.simulate
from mslca.blocks import BlockStructure
from mslca.population import CovarianceModel

Z = 5.0
KS_LAMBDA = 2.7  # DKW: P(sqrt(R) * KS > 2.7) <= 2 exp(-2 * 2.7**2) < 1e-6
EXACT_RTOL = 1e-12
ALPHA = 0.05


def _plan(**kwargs):
    """A SimulationPlan, dropping optional keys the package no longer accepts."""
    plan_cls = mslca.simulate.SimulationPlan
    fields = {f.name for f in dataclasses.fields(plan_cls)}
    return plan_cls(**{key: value for key, value in kwargs.items() if key in fields})


def _cross_model(dims, blocks) -> CovarianceModel:
    """Identity diagonal blocks and the given lower cross blocks."""
    structure = BlockStructure(dims)
    v = np.eye(structure.total_dim)
    for (k, l), value in blocks.items():
        block = np.atleast_2d(np.asarray(value, dtype=float))
        v[structure.block_slice(k), structure.block_slice(l)] = block
        v[structure.block_slice(l), structure.block_slice(k)] = block.T
    return CovarianceModel(structure, v)


NULL_222 = CovarianceModel(BlockStructure((2, 2, 2)), np.eye(6))
WHITENED_111 = _cross_model((1, 1, 1), {(1, 0): 0.3, (2, 0): 0.15, (2, 1): 0.1})
# Whitened (2, 2, 2) model with a simple spectrum, for the c-tensor stage.
SIMPLE_222 = _cross_model(
    (2, 2, 2),
    {
        (1, 0): [[0.3, 0.1], [0.0, 0.2]],
        (2, 0): [[0.15, 0.0], [0.05, 0.1]],
        (2, 1): [[0.1, 0.05], [0.0, -0.2]],
    },
)


def _within(value: float, centre: float, half_width: float) -> bool:
    return abs(value - centre) <= half_width


def _size_half_width(replications: int, level: float = ALPHA) -> float:
    return Z * math.sqrt(level * (1.0 - level) / replications)


class NullDist:
    """A ``null-dist`` experiment run as ``chunks`` plans; every replication is one operation."""

    def __init__(self, seed: int, workdir: str, *, sampler, nu, n, replications, chunks, methods):
        self.sampler, self.nu, self.n = sampler, nu, n
        self.chunks, self.per_chunk = chunks, replications // chunks
        self.replications, self.methods = self.per_chunk * chunks, methods
        self.seed = seed
        self.ops = self.replications
        self.d = 12
        self.scale = 1.0 if nu is None else (nu - 2.0) / (nu - 4.0)
        self.p_keys = ["p_chi2", "p_chi2_scaled"] + (["p_general"] if "general" in methods else [])

    def prepare(self) -> None:
        self.plans = [
            _plan(
                kind="null-dist", model=NULL_222, sizes=(self.n,), replications=self.per_chunk,
                sampler=self.sampler, nu=self.nu, seed=self.seed * self.chunks + j,
                methods=self.methods, mc_draws=20_000,
            )
            for j in range(self.chunks)
        ]

    def run_pass(self, clock):
        results = [clock.step("plan_s", mslca.simulate.run_experiment, plan) for plan in self.plans]
        return [{"records": r.records, "summaries": r.summaries} for r in results]

    def check(self, out) -> list[tuple[int, str]]:
        problems = []
        pooled_ns, pooled_p = [], {key: [] for key in self.p_keys}
        for j, chunk in enumerate(out):
            records = chunk["records"]
            if len(records) != self.per_chunk:
                problems.append((self.per_chunk, f"plan {j}: expected {self.per_chunk} records, got {len(records)}"))
                continue
            ns = np.array([r["ns"] for r in records])
            p = {key: np.array([r[key] for r in records]) for key in self.p_keys}
            problems += [(count, f"plan {j}: {msg}") for count, msg in self._record_problems(records, ns, p)]
            msgs = self._summary_problems(chunk["summaries"], ns, p)
            problems += [(self.per_chunk, f"plan {j}: {msg}") for msg in msgs]
            pooled_ns.append(ns)
            for key in self.p_keys:
                pooled_p[key].append(p[key])
        if len(pooled_ns) == self.chunks:
            ns = np.concatenate(pooled_ns)
            p = {key: np.concatenate(values) for key, values in pooled_p.items()}
            problems += [(self.ops, msg) for msg in self._criterion_problems(ns, p)]
        return problems

    def _record_problems(self, records, ns, p) -> list[tuple[int, str]]:
        problems = []
        for key, values in p.items():
            bad = int(np.count_nonzero(~((values >= 0.0) & (values <= 1.0))))
            if bad:
                problems.append((bad, f"{bad} {key} values outside [0, 1]"))
        for key, divisor in (("p_chi2", 1.0), ("p_chi2_scaled", self.scale)):
            expected = stats.chi2.sf(ns / divisor, df=self.d)
            bad = int(np.count_nonzero(~np.isclose(p[key], expected, rtol=EXACT_RTOL, atol=1e-300)))
            if bad:
                problems.append((bad, f"{bad} {key} values differ from chi2.sf(nS / {divisor:g}, {self.d})"))
        bad = sum(1 for i, r in enumerate(records) if r["n"] != self.n or r["rep"] != i)
        if bad:
            problems.append((bad, f"{bad} records carry the wrong (n, rep)"))
        return problems

    def _summary_problems(self, summaries, ns, p) -> list[str]:
        """The plan's summary agrees with its records."""
        s = summaries.get(str(self.n))
        if s is None:
            return [f"no summary for n={self.n}"]
        problems = []
        for key in self.p_keys:
            size_key = "size" + key[1:]
            if s[size_key][str(ALPHA)] != float(np.mean(p[key] < ALPHA)):
                problems.append(f"{size_key} is not the share of {key} below {ALPHA}")
        if not math.isclose(s["mean_ns"], float(ns.mean()), rel_tol=EXACT_RTOL):
            problems.append("mean_ns is not the mean of the records' nS")
        ks = stats.kstest(ns / self.scale, stats.chi2(df=self.d).cdf).statistic
        if not math.isclose(s["ks_to_chi2"], ks, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"ks_to_chi2 {s['ks_to_chi2']} differs from scipy's {ks}")
        return problems

    def _criterion_problems(self, ns, p) -> list[str]:
        """Bounds of the acceptance criteria, at Z standard errors for all the pass's replications."""
        r = self.replications
        problems = []
        mean = float(ns.mean()) / self.scale
        if not _within(mean, self.d, Z * math.sqrt(2 * self.d / r)):
            problems.append(f"mean nS / scale {mean:.3f} far from {self.d}")
        ks = stats.kstest(ns / self.scale, stats.chi2(df=self.d).cdf).statistic
        if ks > KS_LAMBDA / math.sqrt(r):
            problems.append(f"KS {ks:.4f} above {KS_LAMBDA / math.sqrt(r):.4f}")
        for key in ("p_chi2_scaled", "p_general"):
            if key in p:
                size = float(np.mean(p[key] < ALPHA))
                if not _within(size, ALPHA, _size_half_width(r)):
                    problems.append(f"size of {key} {size:.4f} far from {ALPHA}")
        if self.scale > 1.0:
            # The uncorrected chi-square route over-rejects heavy-tailed data.
            level = stats.chi2.sf(stats.chi2.isf(ALPHA, self.d) / self.scale, self.d)
            size = float(np.mean(p["p_chi2"] < ALPHA))
            if not _within(size, level, _size_half_width(r, level)):
                problems.append(f"uncorrected size {size:.4f} far from {level:.4f}")
        return problems


class CliWide:
    """``fit``, ``test --method chi2 --scale plugin`` and ``test --method general``
    on one 20000 x 40 CSV in four blocks of ten; every command is one operation."""

    n, q = 20_000, 40
    blocks = "10,10,10,10"
    ops = 3
    d = 600

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Write a null Gaussian sample with correlated columns inside each block."""
        os.makedirs(self.workdir, exist_ok=True)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        rows = rng.standard_normal((self.n, self.q))
        p = self.q // 4
        for k in range(4):
            sl = slice(k * p, (k + 1) * p)
            rows[:, sl] = rows[:, sl] @ (np.eye(p) + 0.3 * rng.standard_normal((p, p)))
        self.rows = rows
        csv = os.path.join(self.workdir, "wide.csv")
        # Fixed-width cells keep the file size, and so the byte counts, seed-free.
        np.savetxt(csv, rows, fmt="%+.12e", delimiter=",")
        out = os.path.join(self.workdir, "{}.json")
        common = ["--data", csv, "--blocks", self.blocks]
        self.commands = {
            "fit": ["fit", *common, "--out", out.format("fit")],
            "test_chi2": ["test", *common, "--method", "chi2", "--scale", "plugin", "--out", out.format("chi2")],
            "test_general": ["test", *common, "--method", "general", "--out", out.format("general")],
        }

    def run_pass(self, clock):
        outputs = {}
        for name, argv in self.commands.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = clock.step(f"{name}_s", mslca.cli.main, argv)
            payload = b""
            if code == 0:
                with open(argv[-1], "rb") as fh:
                    payload = fh.read()
            outputs[name] = {"code": code, "stdout": stdout.getvalue(), "json": payload}
        return outputs

    def check(self, out) -> list[tuple[int, str]]:
        problems = []
        reports = {}
        for name, result in out.items():
            if result["code"] != 0:
                problems.append((1, f"{name} exited {result['code']}"))
                continue
            payload = json.loads(result["json"])
            msg = getattr(self, f"_check_{name}")(payload, result["stdout"])
            if msg:
                problems.append((1, f"{name}: {msg}"))
            reports[name] = payload
        if "test_chi2" in reports and "test_general" in reports:
            if reports["test_chi2"]["nS"] != reports["test_general"]["nS"]:
                problems.append((1, "test_general: nS differs from the chi2 route's"))
        return problems

    def _check_fit(self, fit, stdout) -> str | None:
        rho = np.array(fit["rho"])
        if fit["n"] != self.n or fit["dims"] != [10] * 4 or rho.shape != (self.q,):
            return "wrong n, dims or number of coefficients"
        if np.any(np.diff(rho) > 0):
            return "coefficients are not nonincreasing"
        if abs(rho.sum()) > 1e-8 * (1 + np.abs(rho).max()):
            return f"coefficients sum to {rho.sum():.3e}, not 0"
        if np.abs(np.array(fit["means"]) - self.rows.mean(axis=0)).max() > 1e-10:
            return "means differ from the column means of the data"
        diag = fit["diagnostics"]
        if max(diag["max_unit_violation"], diag["max_orthogonality_violation"]) > 1e-8:
            return f"constraint violations {diag}"
        return None

    def _check_report(self, report, stdout, method) -> str | None:
        if (report["n"], report["d"], report["method"]) != (self.n, self.d, method):
            return "wrong n, d or method"
        p = report["p_value"]
        if not 0.0 <= p <= 1.0:
            return f"p-value {p} outside [0, 1]"
        if report["reject"] != (p < report["alpha"]):
            return "reject disagrees with p < alpha"
        if not math.isclose(report["nS"], report["n"] * report["S"], rel_tol=EXACT_RTOL):
            return "nS is not n * S"
        line = f"nS={report['nS']} d={report['d']} p={p} reject={report['reject']}"
        if stdout.strip() != line:
            return f"summary line {stdout.strip()!r} does not match the report"
        return None

    def _check_test_chi2(self, report, stdout) -> str | None:
        msg = self._check_report(report, stdout, "chi2")
        if msg:
            return msg
        if report["scale_provenance"] != "plugin" or not _within(report["scale"], 1.0, 0.05):
            return f"plugin scale {report['scale']} of Gaussian data is not near 1"
        expected = stats.chi2.sf(report["nS"] / report["scale"], df=self.d)
        if not math.isclose(report["p_value"], expected, rel_tol=EXACT_RTOL, abs_tol=1e-300):
            return f"p-value {report['p_value']} differs from chi2.sf = {expected}"
        return None

    def _check_test_general(self, report, stdout) -> str | None:
        msg = self._check_report(report, stdout, "general")
        if msg:
            return msg
        weights = np.array(report["gamma_eigenvalues"])
        if weights.shape != (self.d,) or np.any(weights < 0) or np.any(np.diff(weights) > 0):
            return "Gamma eigenvalues are not d nonnegative nonincreasing values"
        if not _within(weights.mean(), 1.0, 0.05):
            return f"mean Gamma eigenvalue {weights.mean():.4f} of Gaussian data is not near 1"
        return None


class CoeffCltPlugin:
    """A ``coeff-clt`` experiment run as ``chunks`` plans, then the plug-in
    c-tensor and Sigma of one sample.

    Every replication is one operation, and so is the tensor evaluation.
    """

    n_plan, n_tensor = 10_000, 2_000
    # With nu = 10 a single extreme row can dominate the sample fourth moments
    # (one seed in 60 put the plug-in Sigma 0.74 from the closed form); with
    # nu = 30 the largest relative error over 42 seeds was 0.12.
    nu = 30.0
    sigma_rtol = 0.3  # relative Frobenius error of the plug-in Sigma at n = 2000

    def __init__(self, seed: int, workdir: str, replications: int, chunks: int):
        self.seed = seed
        self.chunks, self.per_chunk = chunks, replications // chunks
        self.replications = self.per_chunk * chunks
        self.ops = self.replications + 1

    def prepare(self) -> None:
        self.plans = [
            _plan(
                kind="coeff-clt", model=WHITENED_111, sizes=(self.n_plan,),
                replications=self.per_chunk, seed=self.seed * self.chunks + j,
            )
            for j in range(self.chunks)
        ]
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        self.sample = mslca.simulate.sample_student_t(SIMPLE_222, self.nu, self.n_tensor, rng)
        self.solution = mslca.population.solve_mslca(SIMPLE_222)
        scale = (self.nu - 2.0) / (self.nu - 4.0)
        closed = scale * mslca.asymptotics.c_tensor_gaussian(SIMPLE_222, self.solution)
        self.sigma_closed = mslca.asymptotics.sigma_matrix(closed, self.solution)

    def run_pass(self, clock):
        results = [clock.step("plan_s", mslca.simulate.run_experiment, plan) for plan in self.plans]
        tensor, sigma = clock.step("tensor_s", self._plug_in)
        return {
            "plans": [{"records": r.records, "summaries": r.summaries} for r in results],
            "tensor": tensor.tobytes(),
            "sigma": sigma.tobytes(),
        }

    def _plug_in(self):
        acc = mslca.asymptotics.MomentAccumulator.from_whitened(mslca.estimation.whiten(self.sample))
        tensor = mslca.asymptotics.c_tensor(acc, self.solution, SIMPLE_222)
        return tensor, mslca.asymptotics.sigma_matrix(tensor, self.solution)

    def check(self, out) -> list[tuple[int, str]]:
        problems, devs, asyms = [], [], []
        for j, chunk in enumerate(out["plans"]):
            msg, dev, asym = self._chunk_problem(chunk)
            if msg:
                problems.append((self.per_chunk, f"plan {j}: {msg}"))
            else:
                devs.append(dev)
                asyms.append(asym)
        if len(devs) == self.chunks:
            problems += [(self.replications, msg) for msg in self._pooled_problems(devs, asyms)]
        problems += [(1, msg) for msg in self._tensor_problems(out)]
        return problems

    def _chunk_problem(self, chunk):
        """A plan's records and summary agree; returns (problem, deviations, asymptotic variances)."""
        records = chunk["records"]
        if len(records) != self.per_chunk:
            return f"expected {self.per_chunk} records, got {len(records)}", None, None
        dev = np.array([r["scaled_rho_errors"] for r in records])
        if dev.shape != (self.per_chunk, 3) or not np.isfinite(dev).all():
            return "scaled_rho_errors are not 3 finite values per record", None, None
        s = chunk["summaries"][str(self.n_plan)]
        variances = dev.var(axis=0, ddof=1)
        if not np.allclose(s["empirical_variances"], variances, rtol=1e-10, atol=0):
            return "empirical_variances are not the variances of the records", None, None
        asym = np.array(s["asymptotic_variances"])
        if np.any(asym <= 0):
            return "asymptotic variances are not positive", None, None
        if not np.allclose(s["variance_ratios"], variances / asym, rtol=1e-10, atol=0):
            return "variance_ratios are not empirical / asymptotic", None, None
        return None, dev, asym

    def _pooled_problems(self, devs, asyms) -> list[str]:
        """Acceptance bound on the variance ratios of all the pass's replications,
        at Z standard errors of a sample variance."""
        if any(not np.allclose(a, asyms[0], rtol=1e-12, atol=0) for a in asyms):
            return ["asymptotic variances differ between plans of one model and size"]
        ratios = np.concatenate(devs).var(axis=0, ddof=1) / asyms[0]
        half = Z * math.sqrt(2.0 / (self.replications - 1))
        if np.any(np.abs(ratios - 1.0) > half):
            return [f"variance ratios {np.round(ratios, 3).tolist()} outside 1 +/- {half:.3f}"]
        return []

    def _tensor_problems(self, out) -> list[str]:
        q = SIMPLE_222.structure.total_dim
        tensor = np.frombuffer(out["tensor"]).reshape(q, q, q, q)
        sigma = np.frombuffer(out["sigma"]).reshape(q, q)
        problems = []
        top = np.abs(tensor).max()
        for axes in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.abs(tensor - tensor.transpose(axes)).max() > 1e-12 * top:
                problems.append(f"c-tensor is not symmetric under axes {axes}")
        idx = np.arange(q)
        diagonal_pairs = tensor[idx[:, None], idx[:, None], idx[None, :], idx[None, :]]
        if not np.allclose(sigma, diagonal_pairs, rtol=EXACT_RTOL, atol=0):
            problems.append("Sigma[i, j] is not C[i, i, j, j]")
        if np.linalg.eigvalsh(sigma).min() < -1e-10 * np.abs(sigma).max():
            problems.append("plug-in Sigma is not positive semidefinite")
        rel = np.linalg.norm(sigma - self.sigma_closed) / np.linalg.norm(self.sigma_closed)
        if rel > self.sigma_rtol:
            problems.append(f"plug-in Sigma is {rel:.3f} from the closed form (tol {self.sigma_rtol})")
        return problems


WORKLOADS = {
    "null-chi2-small": lambda seed, workdir: NullDist(
        seed, workdir, sampler="gaussian", nu=None, n=2000, replications=1000, chunks=4,
        methods=("chi2",),
    ),
    "null-general-t": lambda seed, workdir: NullDist(
        seed, workdir, sampler="student-t", nu=10.0, n=5000, replications=200, chunks=4,
        methods=("chi2", "general"),
    ),
    "cli-wide": CliWide,
    "coeff-clt-plugin": lambda seed, workdir: CoeffCltPlugin(seed, workdir, replications=500, chunks=2),
}
