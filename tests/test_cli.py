import json
import os
import subprocess
import sys

import pytest

import leemodel
from leemodel import BareCoupling, ConfigError, QuadSpec, full_report
from leemodel.cli import (
    COLUMNS,
    OracleSpec,
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


# --- emission ---------------------------------------------------------------------

def test_emit_empty_table_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit([], "csv", str(path))
    assert path.read_text() == ",".join(COLUMNS) + "\n"


def test_emit_free_theory_row_both_formats(tmp_path):
    cfg = parse_config(MINIMAL)
    report = full_report(cfg.params, cfg.coupling, cfg.quad)
    from leemodel.cli import _report_row

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
