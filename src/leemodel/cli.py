"""Command line driver: single-point runs, coupling sweeps, oracle validation.

Runs are described by a JSON config document so that every result is
reproducible from one artifact::

    {
      "model":  {"m_N": 1.0, "mu": 1.0,
                 "form_factor": {"kind": "sharp", "lambda": 10.0}},
      "input":  {"mode": "bare", "m_V0": 1.8, "g0": 1.0},
      "sweep":  {"parameter": "g0", "start": 0.0, "stop": 2.0, "steps": 9},
      "quad":   {"abs_tol": 1e-10, "rel_tol": 1e-10},
      "oracle": {"n": 1024, "scheme": "gauss"},
      "output": {"path": "report.csv", "format": "csv"}
    }

Only ``input.mode`` and its mass are mandatory; everything else defaults as
shown (couplings default to 0).  ``input.mode`` is "bare" (fields m_V0, g0)
or "renormalized" (fields m_V, g).  A sweep varies "g0" in bare mode or "g"
in renormalized mode over ``steps`` evenly spaced values.  The "oracle"
section is only consulted by --validate-oracle.  The momentum range is not
configurable: it belongs to the model (the exact sharp cutoff, else
40*Lambda; see :func:`leemodel.quadrature.upper_momentum`), and the
continuum integrals and the oracle grids share it.

Output is a delimited table (CSV or JSON array) with one row per evaluated
point and the fixed column set::

    sweep_value, m_V, m_V0, delta_m, g0_sq, g_sq, x,
    z_standard, z_regularized, regime, error

Numbers are rendered with 17 significant digits in CSV and in Python's shortest
round-trip form in JSON, so parsing the file back reproduces every float exactly;
identical configs produce byte-identical files, the bytes of ``csv.writer`` and of
``json.dumps(rows, indent=2)``, which :func:`emit` builds faster (see there).
Per-point failures in a sweep land in the "error" column and the run continues.
Exit codes: 0 success, 1 a numerical failure raised as a typed LeeModelError
(NoConvergence, say, or an overflowing mass residual), 2 bad configuration, 3 no
bound state (bare mode), 4 I/O failure (an unreadable config or an unwritable
output).  A ghost-regime result is a result, not an error.  Config values are checked
by the library's own rules, and an error names the field with their message; sizes
are bounded by MAX_SWEEP_STEPS sweep values and MAX_ORACLE_N oracle nodes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (BareCoupling, FormFactor, ModelParams, RenCoupling,
                   FORM_FACTOR_KINDS, SHARP, _ensure_mu, ensure_stable)
from .errors import ConfigError, LeeModelError, NoBoundState
from .oracle import GRID_SCHEMES, GAUSS_LEGENDRE_K, convergence_study
from .quadrature import QuadSpec, upper_momentum
from .renorm import RenormReport, full_report, full_reports

COLUMNS = ("sweep_value", "m_V", "m_V0", "delta_m", "g0_sq", "g_sq", "x",
           "z_standard", "z_regularized", "regime", "error")

_DEFAULT_ORACLE_N = 1024
# the largest sweep and oracle grid a config may ask for; each value or node
# costs memory, and a size far beyond these would exhaust it
MAX_SWEEP_STEPS = 10 ** 6
MAX_ORACLE_N = 2 ** 20


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class OracleSpec:
    n: int
    scheme: str


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    coupling: BareCoupling | RenCoupling
    sweep: SweepSpec | None
    quad: QuadSpec
    oracle: OracleSpec
    out_path: str
    out_format: str


def _section(parent: dict, path: str) -> dict:
    """Pop the object at ``path``, whose last part is its key in ``parent``."""
    sec = parent.pop(path.rsplit(".", 1)[-1], {})
    if not isinstance(sec, dict):
        raise ConfigError(path, "must be an object")
    return dict(sec)


def _no_leftovers(sec: dict, path: str) -> None:
    for key in sec:
        raise ConfigError(f"{path}.{key}", "unknown field")


def _field(sec: dict, path: str, key: str, kind: type, default=None, choices=None):
    """Pop ``key`` from ``sec`` as a float, int or str (``kind``); ``default``
    when absent, or a missing-field error if that is None."""
    if key not in sec:
        if default is None:
            raise ConfigError(f"{path}.{key}", "required field is missing")
        return default
    val = sec.pop(key)
    if isinstance(val, bool) or not isinstance(val, (int, float) if kind is float else kind):
        article = {float: "a number", int: "an integer", str: "a string"}[kind]
        raise ConfigError(f"{path}.{key}", f"must be {article}")
    if kind is float:
        val = float(val)
        if not math.isfinite(val):
            raise ConfigError(f"{path}.{key}", "must be finite")
    if choices is not None and val not in choices:
        raise ConfigError(f"{path}.{key}", f"must be one of {', '.join(choices)}")
    return val


def _build(field: str, make, *args, **kw):
    """``make(*args, **kw)``, with its ValueError reported as a ConfigError on ``field``."""
    try:
        return make(*args, **kw)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document and apply defaults."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("document", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("document", "top level must be an object")
    known = {"model", "input", "sweep", "quad", "oracle", "output"}
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown section")

    model = _section(doc, "model")
    ff_sec = _section(model, "model.form_factor")
    kind = _field(ff_sec, "model.form_factor", "kind", str, SHARP, FORM_FACTOR_KINDS)
    lam = _field(ff_sec, "model.form_factor", "lambda", float, 10.0)
    _no_leftovers(ff_sec, "model.form_factor")
    form_factor = _build("model.form_factor.lambda", FormFactor, kind, lam)
    m_n = _field(model, "model", "m_N", float, 1.0)
    mu = _field(model, "model", "mu", float, 1.0)
    _no_leftovers(model, "model")
    _build("model.mu", _ensure_mu, mu)
    _build("model.m_N", _ensure_mu, mu, m_n)
    # with mu and m_N in range, what ModelParams can still refuse is Lambda / mu
    params = _build("model.form_factor.lambda", ModelParams, m_n, mu, form_factor)

    inp = _section(doc, "input")
    mode = _field(inp, "input", "mode", str, choices=("bare", "renormalized"))
    make, mass_key, coupling_key = {"bare": (BareCoupling, "m_V0", "g0"),
                                    "renormalized": (RenCoupling, "m_V", "g")}[mode]
    mass = _field(inp, "input", mass_key, float)
    strength = _field(inp, "input", coupling_key, float, 0.0)
    coupling = _build(f"input.{coupling_key}", make, mass, strength)
    if make is RenCoupling:
        _build("input.m_V", ensure_stable, params, mass)
    _no_leftovers(inp, "input")

    sweep = None
    if "sweep" in doc:
        sw = _section(doc, "sweep")
        parameter = _field(sw, "sweep", "parameter", str, choices=("g", "g0"))
        if parameter != coupling_key:
            raise ConfigError("sweep.parameter", f"{parameter} sweeps require "
                              f"{'bare' if parameter == 'g0' else 'renormalized'} mode")
        start = _field(sw, "sweep", "start", float, 0.0)
        stop = _field(sw, "sweep", "stop", float)
        steps = _field(sw, "sweep", "steps", int, 0)  # absent reads as 0, rejected below
        _no_leftovers(sw, "sweep")
        if not 2 <= steps <= MAX_SWEEP_STEPS:
            raise ConfigError("sweep.steps", f"must be an integer from 2 to {MAX_SWEEP_STEPS}")
        # the first and the last coupling the sweep builds
        _build("sweep.start", dataclasses.replace, coupling, **{parameter: start})
        if not start < stop:
            raise ConfigError("sweep.start", "must be strictly less than sweep.stop")
        _build("sweep.stop", dataclasses.replace, coupling, **{parameter: stop})
        sweep = SweepSpec(parameter=parameter, start=start, stop=stop, steps=steps)

    qd = _section(doc, "quad")
    tols = {field.name: _field(qd, "quad", field.name, float, field.default)
            for field in dataclasses.fields(QuadSpec)}
    _no_leftovers(qd, "quad")
    quad = QuadSpec()
    for key, tol in tols.items():
        quad = _build(f"quad.{key}", dataclasses.replace, quad, **{key: tol})

    orc = _section(doc, "oracle")
    n = _field(orc, "oracle", "n", int, _DEFAULT_ORACLE_N)
    scheme = _field(orc, "oracle", "scheme", str, GAUSS_LEGENDRE_K, GRID_SCHEMES)
    _no_leftovers(orc, "oracle")
    if not 1 <= n <= MAX_ORACLE_N:
        raise ConfigError("oracle.n", f"must be an integer from 1 to {MAX_ORACLE_N}")
    oracle = OracleSpec(n=n, scheme=scheme)

    out = _section(doc, "output")
    out_path = _field(out, "output", "path", str, "report.csv")
    out_format = _field(out, "output", "format", str, "csv", ("csv", "json"))
    _no_leftovers(out, "output")

    return RunConfig(params=params, coupling=coupling, sweep=sweep, quad=quad,
                     oracle=oracle, out_path=out_path, out_format=out_format)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _report_row(report: RenormReport, sweep_value: float | None = None) -> dict:
    return {
        "sweep_value": sweep_value,
        "m_V": report.m_v,
        "m_V0": report.m_v0,
        "delta_m": report.delta_m,
        "g0_sq": report.g0_sq,
        "g_sq": report.g_sq,
        "x": report.x,
        "z_standard": report.z_standard,
        "z_regularized": report.z_regularized,
        "regime": report.regime.value,
        "error": "",
    }


def _error_row(sweep_value: float, exc: Exception) -> dict:
    row = {key: None for key in COLUMNS}
    row["sweep_value"] = sweep_value
    row["regime"] = ""
    row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(config: RunConfig) -> list[dict]:
    """One row per sweep value, in sweep order; per-row errors do not abort.

    The swept parameter ("g0" or "g") is the coupling's strength, its second field; each value
    is built with the config's mass, its first.  The points go to
    :func:`leemodel.renorm.full_reports` in one call, which solves a g0 sweep's in lockstep."""
    sweep, make = config.sweep, type(config.coupling)
    mass = dataclasses.astuple(config.coupling)[0]
    values = np.linspace(sweep.start, sweep.stop, sweep.steps).tolist()
    couplings = [make(mass, v) for v in values]
    return [_error_row(value, report) if isinstance(report, LeeModelError)
            else _report_row(report, sweep_value=value)
            for value, report in zip(values, full_reports(config.params, couplings, config.quad))]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.17g}"


# a CSV row of nine floats, the regime and no error; "%.17g" % v writes the bytes of _cell(v)
_CSV_ROW = ",".join(["%.17g"] * 9 + ["%s", "\n"])
_CSV_ROW_TYPES = [float] * 9 + [str, str]
# json's C encoder puts one cell on each line: no encoded cell holds a raw newline
_CELL_ENCODER = json.JSONEncoder(separators=("\n", ":"))
# one object of json.dumps(rows, indent=2), its keys encoded once, a %s per cell
_JSON_ROW = "  {\n" + ",\n".join(f"    {json.dumps(col)}: %s" for col in COLUMNS) + "\n  }"


def emit(table: list[dict], out_format: str, path: str) -> None:
    """Write the row table as CSV or JSON with full float fidelity.

    The bytes are those of ``csv.writer(fh, lineterminator="\\n")`` over :func:`_cell`
    and of ``json.dumps(rows, indent=2) + "\\n"``, keys in COLUMNS order.  A CSV row of
    nine floats, a regime and no error text needs no quoting and is one format of a row
    template; csv.writer writes the rest, quoting as the running Python does (3.13 quotes
    a bare carriage return, 3.10 to 3.12 do not).
    The JSON cells take one call of json's C encoder.
    """
    if out_format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(COLUMNS)
            for row in table:
                values = [row[col] for col in COLUMNS]
                if values[-1] or list(map(type, values)) != _CSV_ROW_TYPES:
                    writer.writerow([_cell(value) for value in values])
                else:
                    fh.write(_CSV_ROW % tuple(values[:-1]))
    elif out_format == "json":
        text = "[]\n"
        if table:
            cells = _CELL_ENCODER.encode([row[col] for row in table for col in COLUMNS])
            text = ("[\n" + ",\n".join([_JSON_ROW] * len(table)) + "\n]\n") % tuple(
                cells[1:-1].split("\n"))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        raise ValueError(f"unknown output format {out_format!r}")


def _validate_oracle(config: RunConfig) -> int:
    if not isinstance(config.coupling, BareCoupling):
        raise ConfigError("input.mode", "oracle validation needs a bare-mode configuration")
    k_max = upper_momentum(config.params)
    if k_max <= 0.0:
        raise ConfigError("model.form_factor.lambda", "must exceed mu for oracle "
                          "validation: a sharp cutoff at or below mu leaves no momenta")
    report = full_report(config.params, config.coupling, config.quad)
    m_v, z = report.m_v, report.z_standard
    n = config.oracle.n
    n_list = sorted({min(n, max(8, n // 64)), min(n, max(16, n // 16)), min(n, max(32, n // 4)), n})
    rows = convergence_study(config.params, config.coupling, n_list, k_max,
                             config.oracle.scheme)
    print(f"continuum: m_V = {m_v:.12g}   Z_V = {z:.12g}")
    print(f"{'n':>8} {'m_V(n)':>20} {'Z_V(n)':>20} {'|err m_V|':>12} {'|err Z_V|':>12}")
    for size, lam, weight in rows:
        print(f"{size:>8} {lam:>20.12g} {weight:>20.12g} "
              f"{abs(lam - m_v):>12.3e} {abs(weight - z):>12.3e}")
    return 0


# built once: parse_args keeps nothing from one call to the next
_PARSER = argparse.ArgumentParser(
    prog="leemodel",
    description="Renormalization of the one-V sector of the Lee model: "
                "physical mass, wavefunction renormalization, ghost diagnostics.",
)
_PARSER.add_argument("--config", required=True, help="path to the JSON run config")
_PARSER.add_argument("--out", help="override output.path from the config")
_PARSER.add_argument("--format", choices=("csv", "json"),
                     help="override output.format from the config")
_PARSER.add_argument("--validate-oracle", action="store_true",
                     help="run the discretized-Hamiltonian convergence table "
                          "instead of writing an output file")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        config = load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.validate_oracle:
            return _validate_oracle(config)
        if config.sweep is not None:
            table = run_sweep(config)
            good = sum(1 for row in table if not row["error"])
            summary = (f"sweep {config.sweep.parameter}: {good}/{len(table)} points ok "
                       f"over [{config.sweep.start:g}, {config.sweep.stop:g}]")
        else:
            report = full_report(config.params, config.coupling, config.quad)
            table = [_report_row(report)]
            summary = (f"point: regime={report.regime.value} m_V={report.m_v:.9g} "
                       f"x={report.x:.9g} Z={report.z_regularized:.9g}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NoBoundState as exc:
        print(f"no bound state: {exc}", file=sys.stderr)
        return 3
    except LeeModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_path = args.out or config.out_path
    out_format = args.format or config.out_format
    try:
        emit(table, out_format, out_path)
    except (OSError, csv.Error) as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    print(f"{summary} -> {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
