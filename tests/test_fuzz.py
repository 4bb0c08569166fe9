"""Fuzz tests of the stated input domain: a result within tolerance or a typed error.

The library is driven over the domain the package states it solves (mu from
1e-307 to 1e153, the range ModelParams accepts, m_N equal to 1 or to 0, 1, 1e3,
-1e10 or 1e100 times mu, Lambda/mu from 1.002 to 1e6, couplings from 1e-3 to
1e150 and masses from 1e-14 mu to 1e3 mu on either side of the threshold), where
a bare solve never raises NoConvergence, returns the Z of a fresh pass at its
m_V and refuses a root as within rounding of the threshold exactly where it is, and
the CLI over generated config documents, where every refusal must name a
documented field and agree with the library type that owns the rule.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from leemodel import (
    FORM_FACTOR_KINDS,
    TWO_PI_CUBED,
    BareCoupling,
    ConfigError,
    FormFactor,
    LeeModelError,
    ModelParams,
    NoConvergence,
    QuadSpec,
    RenCoupling,
    StabilityViolation,
    ensure_stable,
    full_report,
    spectral_moments,
)
from leemodel.cli import main, parse_config

SECTIONS = {
    "model": ("m_N", "mu", "form_factor"),
    "input": ("mode", "m_V0", "g0", "m_V", "g"),
    "sweep": ("parameter", "start", "stop", "steps"),
    "quad": ("abs_tol", "rel_tol"),
    "oracle": ("n", "scheme"),
    "output": ("path", "format"),
}
# the fields the CLI documents, which are all an exit 2 may name
DOCUMENTED = ({"document", "model.form_factor", "model.form_factor.kind",
               "model.form_factor.lambda"} | set(SECTIONS)
              | {f"{name}.{key}" for name, keys in SECTIONS.items() for key in keys})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(log_mu=st.floats(-307.0, 153.0),
       log_lam=st.floats(math.log10(1.002), 6.0),
       family=st.sampled_from(FORM_FACTOR_KINDS),
       m_n_in_mu=st.sampled_from((None, 0.0, 1.0, 1e3, -1e10, 1e100)),
       log_g=st.floats(-3.0, 150.0),
       side=st.sampled_from((-1.0, 1.0)),
       log_offset=st.floats(-14.0, 3.0))
# in absolute units I1 underflowed here and the solve crept to NEWTON_CAP
@example(log_mu=-301.0, log_lam=1.0, family="sharp", m_n_in_mu=1.0, log_g=40.0, side=-1.0,
         log_offset=math.log10(0.2))
# holding m, the overshoot guard rounded onto the threshold: a root ~1e114 mu below it
# was refused, with F = 7.8e228 mu at the last float below the threshold
@example(log_mu=0.0, log_lam=math.log10(300.0), family="sharp", m_n_in_mu=-1e10, log_g=114.0,
         side=1.0, log_offset=0.0)
# holding m, Z came from a pass an ulp away from the reported m_V and was 4e-7 off
@example(log_mu=math.log10(1.0928622963386069e-94),
         log_lam=math.log10(6.826763076439442e-94 / 1.0928622963386069e-94), family="sharp",
         m_n_in_mu=None, log_g=math.log10(1.7956413411174453e84), side=-1.0, log_offset=0.0)
# started from above, the solve settled on the last float below the threshold and
# reported Z = 0.663 there, though the root lies above that float and its Z is 0.5
@example(log_mu=-41.86611404843694, log_lam=4.343435490330759, family="dipole", m_n_in_mu=None,
         log_g=22.369975352882378, side=1.0, log_offset=-2.0685637039969915)
def test_library_gives_a_result_or_a_typed_error(log_mu, log_lam, family, m_n_in_mu,
                                                   log_g, side, log_offset):
    # m_N is 0, mu, 1e3 mu, -1e10 mu or 1e100 mu, or 1 (None); the mass is
    # threshold +- mu 10^U(-14, 3)
    mu = 10.0 ** log_mu
    params = ModelParams(m_n=1.0 if m_n_in_mu is None else m_n_in_mu * mu, mu=mu,
                         form_factor=FormFactor(family, mu * 10.0 ** log_lam))
    mass = params.threshold + side * mu * 10.0 ** log_offset
    g = 10.0 ** log_g
    # the spec a bare solve refines its passes to (abs_tol divided by c, kept positive)
    c = g * g / TWO_PI_CUBED
    spec = QuadSpec(max(QuadSpec().abs_tol / max(1.0, c), 5e-324), QuadSpec().rel_tol)

    def residual_below_the_threshold():
        # F at the last float below the threshold, in units of mu, and its rounding floor
        unit, s = params._in_units_of_mu
        m = math.nextafter(unit.threshold, -math.inf)
        (i1,) = spectral_moments(m, unit, spec, orders=(1,))
        f = m - mass * s - c * i1
        return f, 8.0 * sys.float_info.epsilon * (abs(m - mass * s) + abs(c * i1))

    for coupling in (BareCoupling(m_v0=mass, g0=g), RenCoupling(m_v=mass, g=g)):
        try:
            report = full_report(params, coupling, QuadSpec())
        except NoConvergence:
            assert isinstance(coupling, RenCoupling), coupling
            continue
        except StabilityViolation as exc:
            if isinstance(coupling, BareCoupling) and "within rounding" in str(exc):
                # the root lies above the last float below the threshold: F there is
                # not positive beyond its rounding
                f, floor = residual_below_the_threshold()
                assert f <= floor, (f, exc)
            continue
        except LeeModelError:
            continue
        fields = (report.m_v, report.m_v0, report.delta_m, report.g0_sq, report.g_sq,
                  report.x, report.z_standard, report.z_regularized)
        assert all(math.isfinite(v) for v in fields if v is not None), report
        assert report.m_v < params.threshold, report
        if isinstance(coupling, BareCoupling):
            # and a result's root lies at or below that float: F there is not negative
            # beyond its rounding
            f, floor = residual_below_the_threshold()
            assert f >= -floor, (f, report)
            assert 0.0 < report.z_standard <= 1.0, report
            (i2,) = spectral_moments(report.m_v, params, spec, orders=(2,))
            assert abs(report.z_standard - 1.0 / (1.0 + c * i2)) <= 1e-9, report


EDGES = (0.0, -0.0, -1.0, 1e-320, 1e-170, 1e-6, 2.0, 1e6, 1e102, 1.3e154, 1e160, 1e300,
         math.inf, math.nan)
WRONG = st.one_of(st.sampled_from(EDGES), st.floats(), st.sampled_from(("1", True, None, [1.0])))
OMIT = object()


def _value(draw, valid, wrong=WRONG, omit=True, odds=16):
    """Mostly a draw from ``valid``; one time in ``odds`` from ``wrong``, and one
    in ``odds`` OMIT (the field is left out), so that most documents run."""
    roll = draw(st.integers(0, odds - 1))
    if roll == 0 and omit:
        return OMIT
    return draw(wrong if roll == 1 else valid)


def _section(**fields) -> dict:
    return {key: value for key, value in fields.items() if value is not OMIT}


@st.composite
def config_documents(draw):
    """A config document, its output path under "{tmp}" (one time in 16 in a
    missing directory), each field in range or now and then wrong or missing."""
    def value(valid, **kw):
        return _value(draw, valid, **kw)

    mode = value(st.sampled_from(("bare", "renormalized")), omit=False)
    mass_key, coupling_key = ("m_V", "g") if mode == "renormalized" else ("m_V0", "g0")
    form_factor = _section(
        kind=value(st.sampled_from(FORM_FACTOR_KINDS), wrong=st.just("gaussian")),
        **{"lambda": value(st.floats(0.5, 40.0))})
    doc = {
        "model": _section(m_N=value(st.floats(0.0, 2.0)), mu=value(st.floats(0.2, 2.0)),
                          form_factor=form_factor),
        "input": _section(mode=mode, **{mass_key: value(st.floats(0.0, 5.0)),
                                        coupling_key: value(st.floats(0.0, 8.0))}),
    }
    if draw(st.booleans()):
        doc["sweep"] = _section(
            parameter=value(st.just(coupling_key), wrong=st.sampled_from(("g", "g0", "m"))),
            start=value(st.floats(0.0, 2.0)), stop=value(st.floats(2.0, 8.0)),
            steps=value(st.integers(2, 4), wrong=st.sampled_from((-1, 0, 1, 10 ** 15))))
    if draw(st.booleans()):
        doc["quad"] = _section(abs_tol=value(st.floats(1e-12, 1e-8)),
                               rel_tol=value(st.floats(1e-12, 1e-8)))
    if draw(st.booleans()):
        doc["oracle"] = _section(n=value(st.integers(8, 64),
                                         wrong=st.sampled_from((-1, 0, 10 ** 15))),
                                 scheme=value(st.sampled_from(("gauss", "uniform"))))
    missing = draw(st.integers(0, 15)) == 0
    doc["output"] = _section(path=os.path.join("{tmp}", "missing" if missing else "",
                                               "table.out"),
                             format=value(st.sampled_from(("csv", "json")),
                                          wrong=st.just("xml")))
    return doc


def _run(doc, validate_oracle):
    """(exit code, stderr) of the CLI on ``doc``, its output path under "{tmp}"."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = {**doc, "output": {**doc["output"],
                                 "path": doc["output"]["path"].replace("{tmp}", tmp)}}
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", path] + ["--validate-oracle"] * validate_oracle)
    return code, err.getvalue()


# documents valid but for one size far past its bound, which the parser must
# refuse before anything is allocated; the generator draws them too rarely
HUGE_SIZES = (
    ({"input": {"mode": "bare", "m_V0": 1.8, "g0": 1.0},
      "sweep": {"parameter": "g0", "start": 0.0, "stop": 2.0, "steps": 10 ** 15},
      "output": {"path": "{tmp}/table.out"}}, False, "sweep.steps"),
    ({"input": {"mode": "bare", "m_V0": 1.8, "g0": 1.0}, "oracle": {"n": 10 ** 15},
      "output": {"path": "{tmp}/table.out"}}, True, "oracle.n"),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=config_documents(), validate_oracle=st.booleans())
@example(doc=HUGE_SIZES[0][0], validate_oracle=HUGE_SIZES[0][1])
@example(doc=HUGE_SIZES[1][0], validate_oracle=HUGE_SIZES[1][1])
def test_cli_exits_with_a_documented_code_and_field(doc, validate_oracle):
    code, text = _run(doc, validate_oracle)
    assert code in (0, 1, 2, 3, 4), (code, text)
    assert "Traceback" not in text
    if code == 2:
        assert text.startswith("config error: ")
        field = text[len("config error: "):].split(":", 1)[0]
        assert field in DOCUMENTED, text


def test_cli_refuses_a_huge_size_by_its_field():
    for doc, validate_oracle, field in HUGE_SIZES:
        code, text = _run(doc, validate_oracle)
        assert code == 2 and text.startswith(f"config error: {field}: "), (code, text)


@st.composite
def model_and_input_values(draw):
    """Numbers for the model and input fields, each out of range one time in 4."""
    wrong = st.one_of(st.sampled_from(EDGES), st.floats())
    return {key: _value(draw, st.floats(0.1, 10.0), wrong, omit=False, odds=4)
            for key in ("lambda", "m_N", "mu", "mass", "g")}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(FORM_FACTOR_KINDS), values=model_and_input_values(),
       mode=st.sampled_from(("bare", "renormalized")))
def test_cli_refuses_a_model_or_input_value_iff_the_library_does(kind, values, mode):
    make, mass_key, coupling_key = {"bare": (BareCoupling, "m_V0", "g0"),
                                    "renormalized": (RenCoupling, "m_V", "g")}[mode]
    doc = {"model": {"m_N": values["m_N"], "mu": values["mu"],
                     "form_factor": {"kind": kind, "lambda": values["lambda"]}},
           "input": {"mode": mode, mass_key: values["mass"], coupling_key: values["g"]}}
    try:
        parse_config(json.dumps(doc))
        cli_refuses = False
    except ConfigError as exc:
        assert exc.field.startswith(("model.", "input.")), exc
        cli_refuses = True
    try:
        params = ModelParams(values["m_N"], values["mu"], FormFactor(kind, values["lambda"]))
        make(values["mass"], values["g"])
        if make is RenCoupling:
            ensure_stable(params, values["mass"])
        library_refuses = False
    except ValueError:
        library_refuses = True
    assert cli_refuses == library_refuses, doc
