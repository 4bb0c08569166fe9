"""The three seeded workloads: input generation, one timed job, output collection.

Every workload is an endless stream of distinct jobs.  Job i belongs to group
i % groups, which fixes its discrete inputs (form-factor family, and the side
of x = 1 or the grid scheme), and takes its continuous inputs from the next
point of its group's low-discrepancy sequence: u_k = frac(shift + k * alpha),
a Kronecker sequence with one quadratic irrational alpha per input (the
golden ratio's for the input that sets a job's cost most) and the shift
drawn from ``numpy.random.default_rng([seed, tag, group])``.  Each input's
values then spread evenly over its range in any prefix of the stream, so a
run holds nearly the same mix of cheap and expensive jobs whatever the seed,
which keeps run-to-run spread small, while no job repeats: a repeated input
would let a cache in the package make the workload look faster than any
real caller sees.

A job is driven through the package's public functions only.  ``run`` is the
timed part; ``collect`` turns its raw result into per-point records for the
correctness checks and is not timed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os

import numpy as np

import leemodel
from leemodel import (BareCoupling, FormFactor, LeeModelError, ModelParams,
                      RenCoupling)
from leemodel.cli import main as cli_main

FAMILIES = ("sharp", "exponential", "dipole")
M_N = 1.0
MU = 1.0
THRESHOLD = M_N + MU
TWO_PI_CUBED = (2.0 * math.pi) ** 3
SWEEP_STEPS = 24
# Kronecker steps, one per input; their continued fractions have small
# bounded terms, so each input alone is spread about as evenly as the
# golden-ratio sequence spreads it (which is the best there is)
ALPHAS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0,
          math.sqrt(6.0) - 2.0)


def low_discrepancy(rng: np.random.Generator, dims: int, per_block: int):
    """Endless blocks of ``per_block`` points in [0, 1)^dims of the randomly
    shifted Kronecker sequence with steps ALPHAS."""
    alpha = np.array(ALPHAS[:dims])
    shift = rng.random(dims)
    for first in itertools.count(0, per_block):
        k = np.arange(first, first + per_block, dtype=float)[:, None]
        yield (shift + k * alpha) % 1.0


def scale(u: np.ndarray, lo: float, hi: float, log: bool = False) -> np.ndarray:
    """Map u in [0, 1) onto [lo, hi), log-uniformly if ``log``."""
    if log:
        return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def model(family: str, lam: float) -> ModelParams:
    return ModelParams(m_n=M_N, mu=MU, form_factor=FormFactor(family, lam))


def integration_limit(family: str, lam: float) -> float:
    """Upper momentum of every integral: the sharp cutoff, else the default 40*Lambda."""
    if family == "sharp":
        return math.sqrt(lam * lam - MU * MU)
    return 40.0 * lam


def rough_i2(family: str, lam: np.ndarray, delta: np.ndarray, nodes: int = 800) -> np.ndarray:
    """I2 to about 1e-4, by the trapezoid rule in log k; used only to aim g at a target x.

    The denominator is written as delta + k^2/(omega + mu), which has no
    cancellation near threshold.
    """
    k_hi = np.array([integration_limit(family, float(v)) for v in lam])
    k = np.geomspace(1e-4 * np.sqrt(2.0 * MU * delta), k_hi, nodes).T
    om = np.sqrt(k * k + MU * MU)
    lam_c = lam[:, None]
    if family == "sharp":
        f2 = np.ones_like(k)
    elif family == "exponential":
        f2 = np.exp(-2.0 * om / lam_c)
    else:
        f2 = (lam_c ** 2 / (lam_c ** 2 + k * k)) ** 2
    den = delta[:, None] + k * k / (om + MU)
    per_log_k = k ** 3 * f2 / (2.0 * om) / den ** 2
    return 4.0 * math.pi * np.trapezoid(per_log_k, np.log(k), axis=1)


def _report_fields(report) -> dict:
    return {"m_v": report.m_v, "m_v0": report.m_v0, "delta_m": report.delta_m,
            "g0_sq": report.g0_sq, "g_sq": report.g_sq, "x": report.x,
            "z_standard": report.z_standard, "z_regularized": report.z_regularized,
            "regime": report.regime.value}


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """A seeded, endless job stream plus how to run and collect one job."""

    name = ""
    tag = 0
    groups = 3       # job i is in group i % groups
    per_group = 4    # points per group in one block of jobs
    dims = 3         # continuous inputs per job
    trace_jobs = 1   # jobs in the traced prefix of a --trace 1 run
    repeat_jobs = 1  # jobs re-run in a fresh process for the counter self-check
    sample = 12      # points per run checked against the mpmath reference

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def jobs(self):
        """The endless job stream, generated block by block."""
        sequences = [low_discrepancy(np.random.default_rng([self.seed, self.tag, g]),
                                     self.dims, self.per_group) for g in range(self.groups)]
        size = self.groups * self.per_group
        for b in itertools.count():
            u = np.empty((size, self.dims))
            for g, points in enumerate(sequences):
                u[g::self.groups] = next(points)
            yield from self.make_block(u, b * size)

    def make_block(self, u: np.ndarray, first: int):
        """Jobs first, first + 1, ... from their rows ``u`` of sequence points."""
        raise NotImplementedError

    def prepare(self, job) -> None:
        """Untimed work a caller does before submitting the job (writing a file)."""

    def run(self, job):
        raise NotImplementedError

    def collect(self, job, raw) -> list[dict]:
        raise NotImplementedError


class SweepBare(Workload):
    """One in-process CLI run: a bare-mode g0 sweep on a generated config file."""

    name = "sweep-bare"
    tag = 1
    trace_jobs = 24
    repeat_jobs = 3

    def make_block(self, u, first):
        families = [FAMILIES[(first + j) % 3] for j in range(len(u))]
        lam = scale(u[:, 0], 1.5, 40.0, log=True)
        delta0 = scale(u[:, 1], 1e-6, 1.0, log=True)
        g0_stop = scale(u[:, 2], 0.5, 3.0, log=True)
        for j in range(len(u)):
            i = first + j
            yield {"index": i, "family": families[j], "lam": float(lam[j]),
                   "m_v0": THRESHOLD - float(delta0[j]), "g0_stop": float(g0_stop[j]),
                   "format": ("csv", "json")[(i // 3) % 2]}

    def _paths(self):
        return (os.path.join(self.workdir, "sweep.json"),
                os.path.join(self.workdir, "table.out"))

    def prepare(self, job):
        config_path, table_path = self._paths()
        doc = {
            "model": {"m_N": M_N, "mu": MU,
                      "form_factor": {"kind": job["family"], "lambda": job["lam"]}},
            "input": {"mode": "bare", "m_V0": job["m_v0"]},
            "sweep": {"parameter": "g0", "start": 0.0, "stop": job["g0_stop"],
                      "steps": SWEEP_STEPS},
            "output": {"path": table_path, "format": job["format"]},
        }
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def run(self, job):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(["--config", self._paths()[0]])

    def collect(self, job, raw):
        base = {"family": job["family"], "lam": job["lam"], "mode": "bare",
                "m_v0_in": job["m_v0"]}
        if raw != 0:
            return [dict(base, g0=None, error=f"exit code {raw}")]
        with open(self._paths()[1], encoding="utf-8") as fh:
            text = fh.read()
        rows = json.loads(text) if job["format"] == "json" else list(csv.DictReader(io.StringIO(text)))
        points = []
        for row in rows:
            out = {key: (None if row[col] in ("", None) else
                         row[col] if key == "regime" else float(row[col]))
                   for key, col in (("m_v", "m_V"), ("m_v0", "m_V0"), ("delta_m", "delta_m"),
                                    ("g0_sq", "g0_sq"), ("g_sq", "g_sq"), ("x", "x"),
                                    ("z_standard", "z_standard"),
                                    ("z_regularized", "z_regularized"), ("regime", "regime"))}
            points.append(dict(base, g0=float(row["sweep_value"]), error=row["error"] or None,
                               out=out))
        return points


class PointsRen(Workload):
    """One library ``full_report`` on an independent renormalized point.

    delta = m_N + mu - m_V stays at least 1e-6 mu from threshold.  Closer
    in, the package raises NoConvergence on some points: on a scan over
    Lambda in [1.5, 40] and x in [0.05, 20], on all of them at 1e-9 mu and on
    none from 1e-7 mu up.  The timed workloads are kept free of failing
    operations, so that a run's failure count depends on its inputs alone,
    not on how many jobs fit in the run; ThresholdProbe keeps the defect in
    view.
    """

    name = "points-ren"
    tag = 2
    groups = 6       # family i % 3; x aimed below 1 (Normal) for even i, above (Ghost) for odd
    per_group = 64
    trace_jobs = 600
    repeat_jobs = 120
    delta_range = (1e-6, 2.0)

    def make_block(self, u, first):
        families = [FAMILIES[(first + j) % 3] for j in range(len(u))]
        delta = scale(u[:, 0], *self.delta_range, log=True)
        lam = scale(u[:, 1], 1.5, 40.0, log=True)
        x_normal = scale(u[:, 2], 0.05, 0.7, log=True)
        x_ghost = scale(u[:, 2], 1.4, 20.0, log=True)
        i2 = np.empty(len(u))
        for family in FAMILIES:
            sel = np.array([f == family for f in families])
            i2[sel] = rough_i2(family, lam[sel], delta[sel])
        for j in range(len(u)):
            i = first + j
            x_target = x_normal[j] if i % 2 == 0 else x_ghost[j]
            yield {"index": i, "family": families[j], "lam": float(lam[j]),
                   "m_v": THRESHOLD - float(delta[j]),
                   "g": math.sqrt(x_target * TWO_PI_CUBED / i2[j])}

    def prepare(self, job):
        params = model(job["family"], job["lam"])
        job["call"] = (params, RenCoupling(m_v=job["m_v"], g=job["g"]),
                       leemodel.default_spec(params))

    def run(self, job):
        try:
            return leemodel.full_report(*job["call"])
        except LeeModelError as exc:
            return exc

    def collect(self, job, raw):
        point = {"family": job["family"], "lam": job["lam"], "mode": "ren",
                 "m_v_in": job["m_v"], "g": job["g"], "error": None}
        if isinstance(raw, Exception):
            point["error"] = _error(raw)
        else:
            point["out"] = _report_fields(raw)
        return [point]


class ThresholdProbe(PointsRen):
    """Renormalized points between 1e-9 and 1e-6 mu below threshold, where the
    package's radial quadrature is known to run out of panels (ROADMAP item
    3).  A traced run evaluates one block of them, untimed and outside the
    spans, and reports the share that raise."""

    name = "threshold-probe"
    tag = 4
    per_group = 4
    delta_range = (1e-9, 1e-6)
    size = 24        # points evaluated


class OracleLadder(Workload):
    """Validate one bare point the way ``--validate-oracle`` does, plus the
    secular-versus-dense spectrum check on the smallest rung."""

    name = "oracle-ladder"
    tag = 3
    groups = 6       # family i % 3; grid scheme gauss for even i, uniform for odd
    dims = 4
    trace_jobs = 24
    repeat_jobs = 6
    sample = 6

    def make_block(self, u, first):
        families = [FAMILIES[(first + j) % 3] for j in range(len(u))]
        schemes = [("gauss", "uniform")[(first + j) % 2] for j in range(len(u))]
        # top n = 64 * m with m log-uniform in [4, 64]: a continuous spread of
        # sizes keeps the job-time quantiles off the gaps between size classes
        mult = scale(u[:, 0], 4.0, 64.0, log=True)
        lam = scale(u[:, 1], 1.5, 12.0, log=True)
        delta0 = scale(u[:, 2], 0.03, 1.0, log=True)
        g0 = scale(u[:, 3], 0.5, 2.0)
        for j in range(len(u)):
            yield {"index": first + j, "family": families[j], "lam": float(lam[j]),
                   "m_v0": THRESHOLD - float(delta0[j]), "g0": float(g0[j]),
                   "n": 64 * int(round(mult[j])), "scheme": schemes[j]}

    def prepare(self, job):
        params = model(job["family"], job["lam"])
        n = job["n"]
        job["call"] = (params, BareCoupling(m_v0=job["m_v0"], g0=job["g0"]),
                       leemodel.default_spec(params),
                       sorted({max(8, n // 64), max(16, n // 16), max(32, n // 4), n}),
                       integration_limit(job["family"], job["lam"]))

    def run(self, job):
        params, bare, spec, n_list, k_max = job["call"]
        try:
            m_v = leemodel.solve_physical_mass(params, bare, spec)
            z = leemodel.z_from_bare(params, bare.g0, m_v, spec)
            ladder = leemodel.convergence_study(params, bare, n_list, k_max, job["scheme"])
            grid = leemodel.build_grid(k_max, n_list[0], job["scheme"])
            mat = leemodel.build_arrowhead(params, bare, grid)
            secular = leemodel.all_eigenvalues(mat)
            dense = leemodel.dense_cross_check(mat)
        except LeeModelError as exc:
            return exc
        return m_v, z, ladder, mat.diag, secular, dense

    def collect(self, job, raw):
        point = {"family": job["family"], "lam": job["lam"], "mode": "bare",
                 "m_v0_in": job["m_v0"], "g0": job["g0"], "error": None,
                 "scheme": job["scheme"], "n": job["n"]}
        if isinstance(raw, Exception):
            point["error"] = _error(raw)
            return [point]
        m_v, z, ladder, diag, secular, dense = raw
        g0_sq = job["g0"] ** 2
        point["out"] = {"m_v": m_v, "m_v0": job["m_v0"], "z_standard": z,
                        "g0_sq": g0_sq, "g_sq": z * g0_sq}
        _, top_energy, top_weight = ladder[-1]
        point["oracle"] = {
            "top_mass_err": abs(top_energy - m_v),
            "top_z_err": abs(top_weight - z),
            "spectrum_gap": float(np.max(np.abs(secular - dense))),
            "spectrum_scale": float(max(1.0, np.max(np.abs(dense)))),
            "interlaced": bool(np.all(secular[:-1] < diag) and np.all(diag < secular[1:])),
        }
        return [point]


WORKLOADS = {cls.name: cls for cls in (SweepBare, PointsRen, OracleLadder)}
