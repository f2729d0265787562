"""A fixed probe of the host's speed, and a clock that scales step times by it.

On a shared virtual machine the speed of a vCPU drifts by a quarter or more
within minutes as other load on the host comes and goes, so the seconds of a
pass depend on when it ran as much as on the code. The probe is a short fixed
computation that does not touch the mslca package, made of the same kinds
of work as the workloads. Timing it right before and right after
each step of a pass tells how fast the host was during the step.

A time in *reference seconds* is a measured time multiplied by
``REF_PROBE_S / probe``: the seconds the step would have taken on a host on
which the probe takes ``REF_PROBE_S``. A change to the package moves the
step's time but not the probe's, so it moves the reference seconds by the
same share as the seconds.
"""

from __future__ import annotations

import time

import numpy as np

# About the probe seconds on the machine the benchmark was written on (one
# vCPU of an "Intel Xeon Processor" at 2.1 GHz, one BLAS thread).
REF_PROBE_S = 0.012

_SMALL = np.eye(6) + np.fromfunction(lambda i, j: 1.0 / (1.0 + i + j), (6, 6))
_SMALL_CHOL = np.linalg.cholesky(_SMALL)
_MEDIUM = np.fromfunction(lambda i, j: np.sin(i + 2.0 * j), (300, 300))


def probe_seconds() -> float:
    """Seconds of one run of the fixed probe.

    Three parts of about 4 ms each on the reference machine: small
    eigensolves with Python dict updates; seeded normal draws whitened
    through a 6 x 6 covariance, as in a small replication; and 300 x 300
    matrix products. Host contention slows these kinds of work by different
    shares, so the sum follows the host better than any one of them. (A
    fourth part that streamed over two 4 MiB arrays was tried and dropped:
    it followed the steps of ``coeff-clt-plugin`` worst of all.)
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(160):
        w, v = np.linalg.eigh(_SMALL)
        (v * w) @ v.T
        for j in range(80):
            counts[j] = counts.get(j, 0) + i
    rng = np.random.default_rng(12345)
    for _ in range(15):
        x = rng.standard_normal((2000, 6)) @ _SMALL_CHOL
        x -= x.mean(axis=0)
        w, v = np.linalg.eigh(x.T @ x / 2000.0)
        x @ ((v / np.sqrt(w)) @ v.T)
    for _ in range(4):
        _MEDIUM @ _MEDIUM
    return time.perf_counter() - t0


def to_reference(seconds: float, probe: float) -> float:
    return seconds * REF_PROBE_S / probe


class HostClock:
    """Times the steps of one pass, each between two runs of the probe.

    Consecutive steps share the probe between them. ``stages`` maps a step's
    name to its measured seconds, its reference seconds and the mean probe
    seconds around it.
    """

    def __init__(self) -> None:
        self.stages: dict[str, dict[str, float]] = {}
        self._last_probe: float | None = None

    def start_pass(self) -> None:
        self.stages = {}
        self._last_probe = None

    def step(self, name: str, fn, *args, **kwargs):
        before = self._last_probe if self._last_probe is not None else probe_seconds()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            after = self._last_probe = probe_seconds()
            probe = 0.5 * (before + after)
            stage = self.stages.setdefault(name, {"raw_s": 0.0, "ref_s": 0.0, "probe_s": 0.0, "steps": 0})
            stage["raw_s"] += wall
            stage["ref_s"] += to_reference(wall, probe)
            stage["probe_s"] += probe
            stage["steps"] += 1

    def totals(self) -> tuple[float, float, float]:
        """Measured seconds, reference seconds and mean probe seconds of the pass."""
        raw = sum(s["raw_s"] for s in self.stages.values())
        ref = sum(s["ref_s"] for s in self.stages.values())
        steps = sum(s["steps"] for s in self.stages.values())
        probe = sum(s["probe_s"] for s in self.stages.values()) / max(steps, 1)
        return raw, ref, probe
