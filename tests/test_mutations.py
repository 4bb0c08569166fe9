"""Mutation tests: the acceptance checks that compare two routes must see either move alone.

A check such as c3 (the norm against I2) passes as well when both of its sides move
together, so it guards nothing once a refactor routes both through the same code.  Each
test here perturbs one side by about ten times the bound of the check it names, with
``monkeypatch``, and asserts that the check (shared with tests/test_acceptance.py) fails.
Every kept memo is cleared before and after, so no mutated value outlives its test.
"""

import math

import pytest

import leemodel.oracle
import leemodel.quadrature
import leemodel.renorm

from helpers import (
    derivative_identity_check,
    eigensolver_check,
    forget_kept_state,
    norm_condition_check,
    oracle_check,
)


@pytest.fixture(autouse=True)
def cold():
    # set up before monkeypatch, so torn down after it: the memos are cleared unmutated
    forget_kept_state()
    yield
    forget_kept_state()


def _scaled(monkeypatch, module, name, scale):
    # module.name returns its result times scale
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: original(*args) * scale)


def test_moment_density_trips_the_norm_condition(monkeypatch):
    # rho of every moment rule level x (1 + 1e-6): I2, and so Z, moves, and the norm does not
    rules = leemodel.quadrature._moment_rules

    def scaled(*args):
        q, levels = rules(*args)
        return q, tuple((q_level, rho * (1.0 + 1e-6)) for q_level, rho in levels)

    monkeypatch.setattr(leemodel.quadrature, "_moment_rules", scaled)
    assert not norm_condition_check()[0]


def test_second_moment_trips_the_derivative_identity_and_the_norm_condition(monkeypatch):
    # the order-2 moment alone x (1 + 1e-5), in every refined pass
    moment_pass = leemodel.quadrature._moment_pass

    def scaled(delta, unit, spec, orders):
        values, level = moment_pass(delta, unit, spec, orders)
        return tuple(v * (1.0 + 1e-5) if n == 2 else v for v, n in zip(values, orders)), level

    for module in (leemodel.quadrature, leemodel.renorm):
        monkeypatch.setattr(module, "_moment_pass", scaled)
    assert not derivative_identity_check()[0]
    assert not norm_condition_check()[0]


def test_norm_amplitude_trips_the_norm_condition(monkeypatch):
    # the norm's squared cloud amplitude x (1 + 1e-6)
    _scaled(monkeypatch, leemodel.quadrature, "dressing_amplitude", math.sqrt(1.0 + 1e-6))
    assert not norm_condition_check()[0]


def test_oracle_vertex_trips_the_oracle_check(monkeypatch):
    # the arrowhead's couplings x (1 + 1e-3); the continuum keeps its own vertex
    _scaled(monkeypatch, leemodel.oracle, "vertex_weight", 1.0 + 1e-3)
    assert not oracle_check()[0]


def test_secular_root_trips_the_eigensolver_check(monkeypatch):
    # every secular root x (1 + 1e-7); LAPACK's dense eigenvalues do not move
    _scaled(monkeypatch, leemodel.oracle, "_root_between", 1.0 + 1e-7)
    assert not eigensolver_check()[0]
