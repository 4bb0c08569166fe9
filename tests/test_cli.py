import csv
import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import leemodel
from leemodel import BareCoupling, ConfigError, QuadSpec, RenCoupling, full_report
from leemodel.cli import (
    COLUMNS,
    MAX_ORACLE_N,
    MAX_SWEEP_STEPS,
    OracleSpec,
    _cell,
    _report_row,
    emit,
    load_config,
    main,
    parse_config,
    run_sweep,
)

from helpers import G_CRIT_15

MINIMAL = '{"input": {"mode": "bare", "m_V0": 1.8}}'


def _config(**overrides) -> str:
    doc = {"input": {"mode": "bare", "m_V0": 1.8, "g0": 1.0}}
    doc.update(overrides)
    return json.dumps(doc)


# --- parsing -------------------------------------------------------------------

def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.params.mu == 1.0
    assert cfg.params.m_n == 1.0
    assert cfg.params.form_factor.kind == "sharp"
    assert cfg.params.form_factor.lam == 10.0
    assert cfg.coupling == BareCoupling(m_v0=1.8, g0=0.0)
    assert cfg.sweep is None
    assert cfg.quad == QuadSpec(abs_tol=1e-10, rel_tol=1e-10)
    assert cfg.oracle == OracleSpec(n=1024, scheme="gauss")
    assert cfg.out_path == "report.csv"
    assert cfg.out_format == "csv"


def _field_of(text: str) -> str:
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    return err.value.field


def test_parse_errors_name_the_field():
    assert _field_of('{"input": {"mode": "bare", "m_V0": 1.8}, '
                     '"model": {"mu": -1.0}}') == "model.mu"
    assert _field_of('{"input": {"mode": "renormalized", "m_V": 1.5}, '
                     '"sweep": {"parameter": "g", "stop": 2.0, "steps": 1}}') == "sweep.steps"
    assert _field_of('{"input": {"mode": "bare"}}') == "input.m_V0"
    assert _field_of('{"input": {"mode": "lattice", "m_V0": 1.8}}') == "input.mode"
    assert _field_of('{"input": {"mode": "renormalized"}}') == "input.m_V"
    assert _field_of('{}') == "input.mode"
    assert _field_of('not json at all') == "document"
    assert _field_of('[1, 2]') == "document"
    assert _field_of('{"input": {"mode": "bare", "m_V0": 1.8}, '
                     '"extra": {}}') == "extra"
    assert _field_of('{"input": {"mode": "bare", "m_V0": 1.8, "g": 1.0}}') == "input.g"
    assert _field_of('{"input": {"mode": "bare", "m_V0": 1.8}, '
                     '"model": {"m_theta": 1.0}}') == "model.m_theta"
    assert _field_of('{"input": {"mode": "bare", "m_V0": true}}') == "input.m_V0"
    assert _field_of('{"input": {"mode": "bare", "m_V0": 1.8, "g0": -1.0}}') == "input.g0"


def test_parse_form_factor_errors():
    assert _field_of('{"input": {"mode": "bare", "m_V0": 1.8}, '
                     '"model": {"form_factor": {"kind": "gaussian"}}}') \
        == "model.form_factor.kind"
    assert _field_of('{"input": {"mode": "bare", "m_V0": 1.8}, '
                     '"model": {"form_factor": {"lambda": -3.0}}}') \
        == "model.form_factor.lambda"


def test_parse_sweep_errors():
    base = {"input": {"mode": "renormalized", "m_V": 1.5}}
    doc = dict(base, sweep={"parameter": "g0", "stop": 1.0, "steps": 4})
    assert _field_of(json.dumps(doc)) == "sweep.parameter"
    doc = dict(base, sweep={"parameter": "g", "start": 0.0, "stop": 0.0, "steps": 4})
    assert _field_of(json.dumps(doc)) == "sweep.start"
    doc = dict(base, sweep={"parameter": "g", "start": -1.0, "stop": 1.0, "steps": 4})
    assert _field_of(json.dumps(doc)) == "sweep.start"
    doc = dict(base, sweep={"parameter": "g", "stop": 1.0, "steps": 4, "step": 1})
    assert _field_of(json.dumps(doc)) == "sweep.step"


def test_parse_renormalized_above_threshold():
    assert _field_of('{"input": {"mode": "renormalized", "m_V": 2.0}}') == "input.m_V"
    # 1.2 - 1.0 < 0.2 in floats, but 1.2 is the float threshold 1.0 + 0.2
    assert _field_of('{"input": {"mode": "renormalized", "m_V": 1.2}, '
                     '"model": {"m_N": 1.0, "mu": 0.2}}') == "input.m_V"


def test_parse_quad_and_oracle_errors():
    assert _field_of(_config(quad={"abs_tol": 0.0})) == "quad.abs_tol"
    assert _field_of(_config(quad={"rel_tol": -1e-10})) == "quad.rel_tol"
    # the momentum range and the panel layout are not configurable
    for section, key in (("quad", "panels"), ("quad", "nodes_per_panel"),
                         ("quad", "k_max"), ("oracle", "k_max")):
        assert _field_of(_config(**{section: {key: 4}})) == f"{section}.{key}"
    assert _field_of(_config(oracle={"scheme": "spectral"})) == "oracle.scheme"
    assert _field_of(_config(oracle={"n": 0})) == "oracle.n"
    assert _field_of(_config(output={"format": "xml"})) == "output.format"


def test_parse_sizes_up_to_their_bounds():
    # a sweep value or an oracle node costs memory, so each size has a bound
    def sized(steps, n):
        return _config(input={"mode": "bare", "m_V0": 1.8},
                       sweep={"parameter": "g0", "stop": 1.0, "steps": steps}, oracle={"n": n})

    cfg = parse_config(sized(MAX_SWEEP_STEPS, MAX_ORACLE_N))
    assert (cfg.sweep.steps, cfg.oracle.n) == (MAX_SWEEP_STEPS, MAX_ORACLE_N)
    assert _field_of(sized(MAX_SWEEP_STEPS + 1, MAX_ORACLE_N)) == "sweep.steps"
    assert _field_of(sized(MAX_SWEEP_STEPS, MAX_ORACLE_N + 1)) == "oracle.n"


# --- point and sweep runs --------------------------------------------------------

def test_full_report_of_a_ghost_config_is_a_result():
    doc = {"input": {"mode": "renormalized", "m_V": 1.5, "g": 2.0 * G_CRIT_15}}
    cfg = parse_config(json.dumps(doc))
    report = full_report(cfg.params, cfg.coupling, cfg.quad)
    assert report.regime.value == "Ghost"
    assert report.z_regularized == 0.0
    assert report.m_v0 is None


def test_run_sweep_renormalized_monotone_and_single_transition():
    doc = {
        "input": {"mode": "renormalized", "m_V": 1.5},
        "sweep": {"parameter": "g", "start": 0.0, "stop": 2.0 * G_CRIT_15,
                  "steps": 9},
    }
    rows = run_sweep(parse_config(json.dumps(doc)))
    assert len(rows) == 9
    assert [row["sweep_value"] for row in rows] == sorted(
        row["sweep_value"] for row in rows)
    z_std = [row["z_standard"] for row in rows]
    assert all(b <= a for a, b in zip(z_std, z_std[1:]))
    # the middle point hits the critical coupling exactly, so the regime
    # column walks Normal -> Critical -> Ghost monotonically
    rank = {"Normal": 0, "Critical": 1, "Ghost": 2}
    ranks = [rank[row["regime"]] for row in rows]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))
    assert ranks[0] == 0 and ranks[4] == 1 and ranks[-1] == 2
    assert all(row["error"] == "" for row in rows)


def test_run_sweep_bare_records_errors_and_continues():
    # m_V0 above threshold: weak couplings leave no bound state, strong ones do
    doc = {
        "input": {"mode": "bare", "m_V0": 2.05},
        "sweep": {"parameter": "g0", "start": 0.0, "stop": 3.0, "steps": 7},
    }
    rows = run_sweep(parse_config(json.dumps(doc)))
    assert len(rows) == 7
    assert "NoBoundState" in rows[0]["error"]
    assert rows[0]["m_V"] is None
    assert all(row["error"] == "" for row in rows[2:])
    assert all(row["m_V"] is not None for row in rows[2:])


@pytest.mark.parametrize("doc", [
    {"input": {"mode": "bare", "m_V0": 1.8},
     "sweep": {"parameter": "g0", "start": 0.0, "stop": 2.0, "steps": 7}},
    {"model": {"form_factor": {"kind": "dipole", "lambda": 4.0}, "mu": 1.3},
     "input": {"mode": "renormalized", "m_V": 1.5},
     "sweep": {"parameter": "g", "start": 0.0, "stop": 9.0, "steps": 8}},
], ids=["bare-g0", "renormalized-g"])
def test_each_sweep_row_is_its_single_point_report(doc):
    # a sweep row is the single-point answer at its value, however the sweep builds
    # the coupling; the g sweep crosses x = 1
    cfg = parse_config(json.dumps(doc))
    rows = run_sweep(cfg)
    make = BareCoupling if doc["input"]["mode"] == "bare" else RenCoupling
    mass = doc["input"].get("m_V0", doc["input"].get("m_V"))
    values = [float(v) for v in np.linspace(cfg.sweep.start, cfg.sweep.stop, cfg.sweep.steps)]
    assert len(rows) == len(values)
    for row, value in zip(rows, values):
        expected = _report_row(full_report(cfg.params, make(mass, value), cfg.quad), value)
        assert row == expected
        assert type(row["sweep_value"]) is float
    if make is RenCoupling:
        assert {row["regime"] for row in rows} >= {"Normal", "Ghost"}


# --- emission ---------------------------------------------------------------------

def test_emit_refuses_an_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown output format 'xml'"):
        emit([], "xml", str(tmp_path / "x.xml"))


def test_emit_empty_table_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], "csv", str(path))
    assert path.read_text() == ",".join(COLUMNS) + "\n"


def test_emit_free_theory_row_both_formats(tmp_path):
    cfg = parse_config(MINIMAL)
    report = full_report(cfg.params, cfg.coupling, cfg.quad)
    row = _report_row(report)
    csv_path = tmp_path / "row.csv"
    emit([row], "csv", str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    cells = lines[1].split(",")
    as_map = dict(zip(COLUMNS, cells))
    assert float(as_map["z_standard"]) == 1.0
    assert float(as_map["z_regularized"]) == 1.0
    assert as_map["sweep_value"] == ""
    assert as_map["regime"] == "Normal"

    json_path = tmp_path / "row.json"
    emit([row], "json", str(json_path))
    data = json.loads(json_path.read_text())
    assert data[0]["z_standard"] == 1.0
    assert data[0]["z_regularized"] == 1.0
    assert list(data[0].keys()) == list(COLUMNS)


def test_emit_round_trips_floats_exactly(tmp_path):
    doc = {
        "input": {"mode": "renormalized", "m_V": 1.5},
        "sweep": {"parameter": "g", "start": 0.0, "stop": 2.0 * G_CRIT_15,
                  "steps": 5},
    }
    rows = run_sweep(parse_config(json.dumps(doc)))
    json_path = tmp_path / "table.json"
    emit(rows, "json", str(json_path))
    parsed = json.loads(json_path.read_text())
    for row, back in zip(rows, parsed):
        for col in COLUMNS:
            assert back[col] == row[col]
    csv_path = tmp_path / "table.csv"
    emit(rows, "csv", str(csv_path))
    lines = csv_path.read_text().splitlines()[1:]
    for row, line in zip(rows, lines):
        cells = dict(zip(COLUMNS, line.split(",")))
        for col in ("m_V", "g_sq", "x", "z_standard", "z_regularized"):
            if row[col] is not None:
                assert float(cells[col]) == row[col]


def test_emit_json_golden_bytes(tmp_path):
    # the exact file text: indent 2, keys in COLUMNS order whatever order the
    # row dicts hold them in, ASCII escapes, and one trailing newline
    numeric = {"error": "", "regime": "Normal", "z_regularized": 0.75, "z_standard": 0.75,
               "x": 0.25, "g_sq": 0.1 + 0.2, "g0_sq": 0.4, "delta_m": -0.05,
               "m_V0": 1.8, "m_V": 1.75, "sweep_value": 0.5}
    error = dict.fromkeys(reversed(COLUMNS))
    error.update(sweep_value=1.0, regime="", error='NoConvergence: "I2" at δ = 1e-13')
    path = tmp_path / "golden.json"
    emit([numeric, error], "json", str(path))
    assert path.read_bytes().decode("ascii") == (
        '[\n'
        '  {\n'
        '    "sweep_value": 0.5,\n'
        '    "m_V": 1.75,\n'
        '    "m_V0": 1.8,\n'
        '    "delta_m": -0.05,\n'
        '    "g0_sq": 0.4,\n'
        '    "g_sq": 0.30000000000000004,\n'
        '    "x": 0.25,\n'
        '    "z_standard": 0.75,\n'
        '    "z_regularized": 0.75,\n'
        '    "regime": "Normal",\n'
        '    "error": ""\n'
        '  },\n'
        '  {\n'
        '    "sweep_value": 1.0,\n'
        '    "m_V": null,\n'
        '    "m_V0": null,\n'
        '    "delta_m": null,\n'
        '    "g0_sq": null,\n'
        '    "g_sq": null,\n'
        '    "x": null,\n'
        '    "z_standard": null,\n'
        '    "z_regularized": null,\n'
        '    "regime": "",\n'
        '    "error": "NoConvergence: \\"I2\\" at \\u03b4 = 1e-13"\n'
        '  }\n'
        ']\n')


def _reference_csv(table: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in table:
        writer.writerow([_cell(row[col]) for col in COLUMNS])
    return out.getvalue()


def _reference_json(table: list[dict]) -> str:
    ordered = [{col: row[col] for col in COLUMNS} for row in table]
    return json.dumps(ordered, indent=2) + "\n"


def test_emit_csv_golden_bytes(tmp_path):
    numeric = {"sweep_value": 0.5, "m_V": 1.75, "m_V0": 1.8, "delta_m": -0.05,
               "g0_sq": 0.4, "g_sq": 0.1 + 0.2, "x": 0.25, "z_standard": 0.75,
               "z_regularized": 0.75, "regime": "Normal", "error": ""}
    ghost = dict(numeric, sweep_value=2.0, m_V0=None, delta_m=None, g0_sq=None, x=2.25,
                 z_standard=-1.25, z_regularized=0.0, regime="Ghost")
    error = dict.fromkeys(reversed(COLUMNS))
    error.update(sweep_value=1.0, regime="", error='NoConvergence: "I2", δ = 1e-13\nat 16 panels')
    path = tmp_path / "golden.csv"
    emit([numeric, ghost, error], "csv", str(path))
    assert path.read_bytes().decode("utf-8") == (
        "sweep_value,m_V,m_V0,delta_m,g0_sq,g_sq,x,z_standard,z_regularized,regime,error\n"
        "0.5,1.75,1.8,-0.050000000000000003,0.40000000000000002,"
        "0.30000000000000004,0.25,0.75,0.75,Normal,\n"
        "2,1.75,,,,0.30000000000000004,2.25,-1.25,0,Ghost,\n"
        '1,,,,,,,,,,"NoConvergence: ""I2"", δ = 1e-13\nat 16 panels"\n')
    # csv's quoting of a bare carriage return differs between Python versions (3.13
    # quotes it, 3.10 to 3.12 do not), so that row is held to this Python's csv.writer
    carriage = dict(error, error="ValueError: a\rb")
    emit([carriage], "csv", str(path))
    assert path.read_bytes().decode("utf-8") == _reference_csv([carriage])


def test_emit_matches_the_library_writers_on_random_tables(tmp_path):
    # emit's bytes are those of json.dumps(indent=2) and csv.writer, the writers kept
    # here as the reference, on float extremes, None and hostile error text
    rng = random.Random(3301)
    specials = [None, 0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308,
                -1e308, 0.1 + 0.2, 1.0, 2.0 ** 53, 1e-7, 1e16]
    pieces = [",", '"', "\n", "\r", "\r\n", "\\", "\t", "\x00", "\x1f", "\x7f", "δ", "é",
              " ", "\U0001d49c", "😀", " ", "'", "NoConvergence: ", "I2", "1e-13", ":"]

    def number():
        pick = rng.random()
        if pick < 0.3:
            return rng.choice(specials)
        if pick < 0.6:
            return rng.uniform(-10.0, 10.0)
        return math.copysign(10.0 ** rng.uniform(-320.0, 308.0), rng.random() - 0.5)

    def row():
        cells = {col: number() for col in COLUMNS[:-2]}
        if rng.random() < 0.3:
            text = "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 12)))
            cells.update(regime="", error=text)
        else:
            cells.update(regime=rng.choice(("Normal", "Critical", "Ghost")), error="")
        keys = list(cells)
        rng.shuffle(keys)
        return {key: cells[key] for key in keys}

    tables = [[]] + [[row() for _ in range(rng.randrange(1, 30))] for _ in range(300)]
    path = tmp_path / "table.out"
    for table in tables:
        emit(table, "json", str(path))
        assert path.read_bytes().decode("utf-8") == _reference_json(table)
        emit(table, "csv", str(path))
        assert path.read_bytes().decode("utf-8") == _reference_csv(table)


# --- the executable -----------------------------------------------------------------

def _write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_main_point_run(tmp_path, capsys):
    out = tmp_path / "point.csv"
    cfg = _write(tmp_path, "cfg.json", {
        "input": {"mode": "bare", "m_V0": 1.8, "g0": 1.0},
        "output": {"path": str(out), "format": "csv"},
    })
    assert main(["--config", cfg]) == 0
    assert out.exists()
    assert "regime=Normal" in capsys.readouterr().out


def test_main_determinism(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "input": {"mode": "renormalized", "m_V": 1.5},
        "sweep": {"parameter": "g", "start": 0.0, "stop": 7.0, "steps": 5},
        "output": {"path": str(tmp_path / "sweep.csv"), "format": "csv"},
    })
    assert main(["--config", cfg]) == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    assert main(["--config", cfg]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_main_flag_overrides(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {
        "input": {"mode": "bare", "m_V0": 1.8, "g0": 1.0},
        "output": {"path": str(tmp_path / "ignored.csv"), "format": "csv"},
    })
    out = tmp_path / "chosen.json"
    assert main(["--config", cfg, "--out", str(out), "--format", "json"]) == 0
    assert out.exists()
    assert not (tmp_path / "ignored.csv").exists()
    json.loads(out.read_text())


def test_repeated_main_calls_keep_no_overrides(tmp_path, capsys):
    # calls in one process share the argument parser: the second call, with
    # no flags, must write the config's own path and format
    own = tmp_path / "own.csv"
    cfg = _write(tmp_path, "cfg.json", {
        "input": {"mode": "bare", "m_V0": 1.8, "g0": 1.0},
        "output": {"path": str(own), "format": "csv"},
    })
    chosen = tmp_path / "chosen.json"
    assert main(["--config", cfg, "--out", str(chosen), "--format", "json"]) == 0
    first = chosen.read_text()
    assert not own.exists()
    assert main(["--config", cfg]) == 0
    assert own.read_text().splitlines()[0] == ",".join(COLUMNS)
    assert chosen.read_text() == first
    assert json.loads(first)[0]["m_V"] == float(own.read_text().splitlines()[1].split(",")[1])
    for bad in ([], ["--config", cfg, "--format", "xml"], ["--config", cfg, "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    own.unlink()
    assert main(["--config", cfg]) == 0
    assert own.exists()


def test_main_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"input": {"mode": "bare"}})
    assert main(["--config", bad]) == 2

    missing = str(tmp_path / "nope.json")
    assert main(["--config", missing]) == 4

    unbound = _write(tmp_path, "unbound.json", {
        "input": {"mode": "bare", "m_V0": 2.5, "g0": 0.05},
        "output": {"path": str(tmp_path / "x.csv")},
    })
    assert main(["--config", unbound]) == 3

    unwritable = _write(tmp_path, "unwritable.json", {
        "input": {"mode": "bare", "m_V0": 1.8},
        "output": {"path": str(tmp_path / "no_dir" / "x.csv")},
    })
    assert main(["--config", unwritable]) == 4
    capsys.readouterr()


def test_a_csv_error_from_emit_exits_4(tmp_path, capsys, monkeypatch):
    # csv.writer can refuse a row (CPython 3.10 refuses error text holding a NUL:
    # "need to escape, but no escapechar set"); main reports an output it cannot
    # write with exit 4, as for an OSError, not with a traceback
    class Refusing:
        def __init__(self, *args, **kwargs):
            pass

        def writerow(self, row):
            raise csv.Error("need to escape, but no escapechar set")

    monkeypatch.setattr(csv, "writer", Refusing)
    out = tmp_path / "x.csv"
    cfg = _write(tmp_path, "point.json", {"input": {"mode": "bare", "m_V0": 1.8},
                                         "output": {"path": str(out), "format": "csv"}})
    assert main(["--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write output: need to escape, but no escapechar set\n"
    assert captured.out == ""


@pytest.mark.parametrize("doc, field", (
    ({"model": {"m_N": 1e308, "mu": 1e308}}, "model.mu"),
    ({"model": {"mu": 1e160, "form_factor": {"kind": "dipole"}}}, "model.mu"),
    ({"model": {"form_factor": {"kind": "exponential", "lambda": 1e102}}},
     "model.form_factor.lambda"),
    ({"model": {"form_factor": {"kind": "dipole", "lambda": 1e102}}},
     "model.form_factor.lambda"),
    ({"model": {"form_factor": {"kind": "sharp", "lambda": 1e104}}},
     "model.form_factor.lambda"),
    ({"model": {"mu": 1e-300, "form_factor": {"kind": "dipole", "lambda": 1.0}}},
     "model.form_factor.lambda"),
    ({"input": {"mode": "bare", "m_V0": 1.8, "g0": 1e160}}, "input.g0"),
    ({"sweep": {"parameter": "g0", "stop": 1e160, "steps": 3}}, "sweep.stop"),
    ({"sweep": {"parameter": "g0", "start": 1e160, "stop": 1e161, "steps": 3}}, "sweep.start"),
    ({"model": {"form_factor": {"kind": "dipole", "lambda": 1e-170}}},
     "model.form_factor.lambda"),
    ({"input": {"mode": "renormalized", "m_V": 1.5, "g": -1.0}}, "input.g"),
    ({"input": {"mode": "renormalized", "m_V": 1.5},
      "sweep": {"parameter": "g", "start": -1.0, "stop": 1.0, "steps": 3}}, "sweep.start"),
    ({"sweep": {"parameter": "g0", "stop": 1.0, "steps": 10 ** 15}}, "sweep.steps"),
    ({"oracle": {"n": 10 ** 15}}, "oracle.n"),
    # Lambda / mu = 1e-170, whose square underflows in units of mu
    ({"model": {"mu": 1e100, "form_factor": {"kind": "dipole", "lambda": 1e-70}}},
     "model.form_factor.lambda"),
    ({"model": {"mu": 1e-318}}, "model.mu"),  # subnormal
    ({"model": {"m_N": 1e300, "mu": 1e-10}}, "model.m_N"),  # m_N overflows in units of mu
    ({"model": 3}, "model"),  # a section that is not an object
    ({"model": {"form_factor": []}}, "model.form_factor"),
))
def test_input_domain_errors_name_the_field(tmp_path, capsys, doc, field):
    doc = {"input": {"mode": "bare", "m_V0": 1.8}, **doc,
           "output": {"path": str(tmp_path / "x.csv")}}
    assert _field_of(json.dumps(doc)) == field
    assert main(["--config", _write(tmp_path, "cfg.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:") and "Traceback" not in err


def test_mass_residual_overflow_is_an_error_not_a_root(tmp_path, capsys):
    # exponential Lambda = 1e3 and g0 = 1e154 overflow c I1; the point run
    # fails without output, and the sweep's last row is an error row
    model = {"form_factor": {"kind": "exponential", "lambda": 1e3}}
    out = tmp_path / "x.csv"
    point = _write(tmp_path, "point.json", {
        "model": model, "input": {"mode": "bare", "m_V0": 1.5, "g0": 1e154},
        "output": {"path": str(out)},
    })
    assert main(["--config", point]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: g0 = 1e+154") and "Traceback" not in err
    assert not out.exists()
    rows = run_sweep(parse_config(json.dumps({
        "model": model, "input": {"mode": "bare", "m_V0": 1.5},
        "sweep": {"parameter": "g0", "start": 0.0, "stop": 1e154, "steps": 2},
    })))
    assert rows[0]["m_V"] == 1.5 and not rows[0]["error"]
    assert rows[1]["m_V"] is None and rows[1]["error"].startswith("StabilityViolation")


def test_bare_side_overflow_is_an_error_not_a_table(tmp_path, capsys):
    # a Normal renormalized point whose g0^2 overflows wrote a JSON table with
    # Infinity tokens, which strict JSON parsers refuse, and exited 0
    out = tmp_path / "x.json"
    cfg = _write(tmp_path, "cfg.json", {
        "model": {"form_factor": {"kind": "sharp", "lambda": 2.0}},
        "input": {"mode": "renormalized", "m_V": -1e150, "g": 6.064071437216217e+150},
        "output": {"path": str(out), "format": "json"},
    })
    assert main(["--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: g = 6.064071437216217e+150") and "Traceback" not in err
    assert not out.exists()


def test_main_validate_oracle(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {
        "input": {"mode": "bare", "m_V0": 1.8, "g0": 1.0},
        "oracle": {"n": 256, "scheme": "gauss"},
    })
    assert main(["--config", cfg, "--validate-oracle"]) == 0
    out = capsys.readouterr().out
    assert "continuum" in out
    assert "256" in out

    ren = _write(tmp_path, "ren.json", {
        "input": {"mode": "renormalized", "m_V": 1.5, "g": 1.0},
    })
    assert main(["--config", ren, "--validate-oracle"]) == 2


@pytest.mark.parametrize("n, rungs", ((8, [8]), (20, [8, 16, 20])))
def test_main_validate_oracle_ladder_ends_at_n(tmp_path, capsys, n, rungs):
    cfg = _write(tmp_path, "cfg.json", {
        "input": {"mode": "bare", "m_V0": 1.8, "g0": 1.0}, "oracle": {"n": n},
    })
    assert main(["--config", cfg, "--validate-oracle"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [int(row.split()[0]) for row in rows] == rungs


def test_main_validate_oracle_is_exact_under_a_power_of_two_scale(tmp_path, capsys):
    # at mu = 2^-400 the oracle grid's weights 4 pi k^2 dk underflow in
    # absolute units (a traceback once); in units of mu the table is the
    # mu = 1 one with every mass times 2^-400 and every Z as it is
    tables = []
    for s in (1.0, 2.0 ** -400):
        cfg = _write(tmp_path, "cfg.json", {
            "model": {"m_N": s, "mu": s, "form_factor": {"kind": "dipole", "lambda": 10.0 * s}},
            "input": {"mode": "bare", "m_V0": 1.8 * s, "g0": 1.0}, "oracle": {"n": 256},
        })
        assert main(["--config", cfg, "--validate-oracle"]) == 0
        captured = capsys.readouterr()
        assert not captured.err
        lines = captured.out.splitlines()
        tables.append([line.split() for line in lines[2:]])
    assert len(tables[0]) == 4
    for one, tiny in zip(*tables):
        assert tiny[0] == one[0] and tiny[2] == one[2] and tiny[4] == one[4]
        for col in (1, 3):  # m_V(n) and its error, printed to 12 and 4 digits
            assert math.isclose(float(tiny[col]), math.ldexp(float(one[col]), -400),
                                rel_tol=1e-11 if col == 1 else 1e-3), (one, tiny)


def test_main_validate_oracle_empty_momentum_range(tmp_path, capsys):
    # a sharp cutoff at Lambda <= mu leaves no theta momenta to discretize
    cfg = _write(tmp_path, "cfg.json", {
        "model": {"form_factor": {"kind": "sharp", "lambda": 1.0}},
        "input": {"mode": "bare", "m_V0": 1.8, "g0": 1.0},
    })
    assert main(["--config", cfg, "--validate-oracle"]) == 2
    captured = capsys.readouterr()
    assert "model.form_factor.lambda" in captured.err
    assert "continuum" not in captured.out


def test_load_config_reads_files(tmp_path):
    cfg_path = _write(tmp_path, "cfg.json",
                      {"input": {"mode": "bare", "m_V0": 1.8}})
    cfg = load_config(cfg_path)
    assert cfg.coupling.m_v0 == 1.8


def _child_env() -> dict:
    """Environment whose PYTHONPATH finds the leemodel under test, installed or not."""
    src = os.path.dirname(os.path.dirname(leemodel.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_module_entry_point(tmp_path):
    out = tmp_path / "entry.csv"
    cfg = _write(tmp_path, "cfg.json", {
        "input": {"mode": "bare", "m_V0": 1.8, "g0": 1.0},
        "output": {"path": str(out)},
    })
    result = subprocess.run([sys.executable, "-m", "leemodel", "--config", cfg],
                            capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert out.exists()
    assert "regime=Normal" in result.stdout


def test_import_loads_no_scipy():
    # scipy costs a few tenths of a second of every CLI start; nothing needs it
    code = ("import leemodel, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=_child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_main_validate_oracle_with_coinciding_grid_energies(tmp_path, capsys):
    # m_N = 1e102 swamps omega_k, so the grid's continuum energies m_N + omega_k
    # coincide in floats; a typed error (exit 1), where a ValueError once escaped
    cfg = _write(tmp_path, "cfg.json", {"model": {"m_N": 1e102},
                                        "input": {"mode": "bare", "m_V0": 0.0}})
    assert main(["--config", cfg, "--validate-oracle"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: diagonal entries must be strictly increasing")
