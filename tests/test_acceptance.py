"""Acceptance criteria, one test per criterion.

Each test prints a single "[acceptance] criterion N ...: PASS/FAIL" line
(visible with ``pytest -s`` or on failure) and enforces both the stated
tolerance and the stated runtime budget.
"""

import json
import math
import time

import numpy as np

from leemodel import (
    BareCoupling,
    GhostRegime,
    RenCoupling,
    bare_from_renormalized,
    classify_regime,
    critical_coupling,
    default_spec,
    dressing_strength,
    geometric_partial_sum,
    regularized_z,
    renormalize_coupling,
    solve_physical_mass,
    z_from_bare,
)
from leemodel.cli import COLUMNS, main

from helpers import (
    ALL_MODELS,
    SPEC,
    derivative_identity_check,
    eigensolver_check,
    norm_condition_check,
    oracle_check,
    sharp_model,
)

PARAMS = sharp_model()


def _verdict(number: int, label: str, ok: bool, elapsed: float, limit: float,
             detail: str) -> None:
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {status} "
          f"[{detail}; {elapsed:.2f}s / limit {limit:.0f}s]")
    assert ok, f"criterion {number} ({label}): {detail}"
    assert in_time, f"criterion {number} ({label}) exceeded {limit}s ({elapsed:.2f}s)"


def test_c1_derivative_identity():
    started = time.perf_counter()
    ok, detail = derivative_identity_check()
    _verdict(1, "derivative identity I2 = -dI1/dm", ok, time.perf_counter() - started, 10.0,
             detail)


def test_c2_presentation_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for i in range(20):
        params = ALL_MODELS[i % 3]()
        spec = default_spec(params)
        m_v = float(rng.uniform(1.05, 1.95))
        g0 = float(rng.uniform(0.0, 2.5))
        z = z_from_bare(params, g0, m_v, spec)
        g = renormalize_coupling(g0, z)
        x = dressing_strength(params, g, m_v, spec)
        worst = max(worst, abs(z - (1.0 - x)))
    elapsed = time.perf_counter() - started
    _verdict(2, "bare and renormalized Z presentations agree", worst < 1e-12,
             elapsed, 10.0, f"worst |z - (1-x)| = {worst:.3e} < 1e-12")


def test_c3_norm_condition():
    started = time.perf_counter()
    ok, detail = norm_condition_check()
    _verdict(3, "state norm: Z * (1 + cloud) = 1", ok, time.perf_counter() - started, 10.0,
             detail)


def test_c4_oracle_equivalence():
    started = time.perf_counter()
    ok, detail = oracle_check()
    _verdict(4, "arrowhead truncation matches the continuum", ok,
             time.perf_counter() - started, 60.0, detail)


def test_c5_mutual_eigensolver_agreement():
    started = time.perf_counter()
    ok, detail = eigensolver_check()
    _verdict(5, "secular one-pole roots vs dense LAPACK", ok, time.perf_counter() - started, 30.0,
             detail)


def test_c6_ghost_threshold():
    started = time.perf_counter()
    m_v = 1.5
    g_crit = critical_coupling(PARAMS, m_v, SPEC)
    worst = 0.0
    regimes = []
    ghost_flags_consistent = True
    for g in np.linspace(0.0, 3.0 * g_crit, 101):
        g = float(g)
        x = dressing_strength(PARAMS, g, m_v, SPEC)
        expected = (g / g_crit) ** 2
        worst = max(worst, abs(x - expected) / max(expected, 1e-15))
        regimes.append(classify_regime(x).value)
        try:
            bare_from_renormalized(PARAMS, RenCoupling(m_v=m_v, g=g), SPEC)
            raised = False
        except GhostRegime:
            raised = True
        ghost_flags_consistent &= (raised == (x > 1.0))
    transitions = sum(1 for a, b in zip(regimes, regimes[1:]) if a != b)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and transitions == 1 and ghost_flags_consistent
    _verdict(6, "ghost threshold at the critical coupling", ok, elapsed, 20.0,
             f"worst rel err x vs (g/g_crit)^2 = {worst:.3e}, "
             f"{transitions} regime transition(s), "
             f"ghost errors match x > 1: {ghost_flags_consistent}")


def test_c7_regularized_norm_semipositivity():
    started = time.perf_counter()
    rng = np.random.default_rng(1954)
    xs = np.concatenate([rng.uniform(0.0, 10.0, 10_000 - 3), [0.0, 1.0, 1.0 + 1e-15]])
    values = np.array([regularized_z(float(x)) for x in xs])
    in_range = bool(np.all(values >= 0.0) and np.all(values <= 1.0))
    matches_rule = bool(np.all(values == np.maximum(1.0 - xs, 0.0)))
    certificate = True
    for x in (1.1, 2.0, 10.0):
        for bound in (1e3, 1e9):
            n_min = math.ceil(math.log(bound * (x - 1.0) + 1.0) / math.log(x))
            for n in (n_min, n_min + 1, n_min + 17, n_min + 50):
                certificate &= geometric_partial_sum(x, n) > bound
    elapsed = time.perf_counter() - started
    ok = in_range and matches_rule and certificate
    _verdict(7, "regularized norm is semi-positive", ok, elapsed, 5.0,
             f"10^4 samples in [0,1]: {in_range}, rule max(1-x,0): {matches_rule}, "
             f"divergence certificate: {certificate}")


def test_c8_round_trip():
    started = time.perf_counter()
    rng = np.random.default_rng(819)
    worst = 0.0
    for i in range(10):
        params = ALL_MODELS[i % 3]()
        spec = default_spec(params)
        bare = BareCoupling(m_v0=float(rng.uniform(1.1, 1.9)),
                            g0=float(rng.uniform(0.2, 2.2)))
        m_v = solve_physical_mass(params, bare, spec)
        z = z_from_bare(params, bare.g0, m_v, spec)
        g = renormalize_coupling(bare.g0, z)
        back = bare_from_renormalized(params, RenCoupling(m_v=m_v, g=g), spec)
        worst = max(worst,
                    abs(back.m_v0 - bare.m_v0) / abs(bare.m_v0),
                    abs(back.g0 - bare.g0) / bare.g0)
    elapsed = time.perf_counter() - started
    _verdict(8, "bare -> renormalized -> bare round trip", worst < 1e-8,
             elapsed, 20.0, f"worst relative error {worst:.3e} < 1e-8")


def test_c9_cli_determinism(tmp_path):
    started = time.perf_counter()
    doc = {
        "input": {"mode": "renormalized", "m_V": 1.5},
        "sweep": {"parameter": "g", "start": 0.0, "stop": 7.2, "steps": 5},
        "output": {"path": str(tmp_path / "table.csv"), "format": "csv"},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["--config", str(cfg)]) == 0
    csv_first = (tmp_path / "table.csv").read_bytes()
    assert main(["--config", str(cfg)]) == 0
    csv_second = (tmp_path / "table.csv").read_bytes()

    out_json = tmp_path / "table.json"
    assert main(["--config", str(cfg), "--out", str(out_json),
                 "--format", "json"]) == 0
    json_first = out_json.read_bytes()
    assert main(["--config", str(cfg), "--out", str(out_json),
                 "--format", "json"]) == 0
    json_second = out_json.read_bytes()

    header = csv_first.decode().splitlines()[0]
    schema_ok = header == ",".join(COLUMNS)
    deterministic = csv_first == csv_second and json_first == json_second
    elapsed = time.perf_counter() - started
    ok = schema_ok and deterministic
    _verdict(9, "CLI output is byte-deterministic", ok, elapsed, 5.0,
             f"byte-identical reruns: {deterministic}, schema exact: {schema_ok}")
