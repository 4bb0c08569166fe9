"""Domain types and kinematics for the V <-> N + theta sector of the Lee model.

The model couples a V particle to an N particle plus a theta boson of mass
mu; a theta of momentum k carries energy omega_k = sqrt(k^2 + mu^2).  Every
interaction vertex is weighted by

    g0 * (2*pi)**(-3/2) * f(k) / sqrt(2*omega_k),

where f is a regulating form factor with cutoff scale Lambda.  Momentum k is
the one variable of the kinematics: the form factor, the vertex and the cloud
amplitude all take k and mu, and form omega_k themselves.  The dressed V
state below the N+theta threshold m_N + mu carries an N-theta cloud whose
momentum-space amplitude is the vertex weight divided by (m_V - m_N - omega_k).

All energies are in the same (arbitrary) unit; the solvers, and every square the
kinematics form, are in units of mu (``ModelParams._in_units_of_mu``).  All types
here are immutable values and all functions are pure, so everything can be
shared freely between threads and across parameter sweeps.  That holds for the
whole package: its only state, each model's threshold and copy in units of mu (each
built once per model), the hash each FormFactor, ModelParams and QuadSpec keeps (that of
its field tuple, taken when it is built; a copy or pickle of a FormFactor or ModelParams,
whose hash takes in the str kind, is rebuilt by the constructor, so it is validated and
hashed again under the hash seed where it lands) and the memos of
:mod:`leemodel.quadrature` (Gauss-Legendre nodes, node layouts, moment rule entries, each
a rung of the one refinement ladder of a model in units of mu and a kappa octave, and
refined passes, each with its level's arrays; their bounds are stated there, by its
constants), is memoized values and read-only arrays rebuilt bit for bit on a miss, so
a thread never sees another's results.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModel, StabilityViolation

TWO_PI_32 = (2.0 * math.pi) ** 1.5

SHARP = "sharp"
EXPONENTIAL = "exponential"
DIPOLE = "dipole"
FORM_FACTOR_KINDS = (SHARP, EXPONENTIAL, DIPOLE)


def _maybe_scalar(out: np.ndarray) -> "float | np.ndarray":
    """A plain float when ``out``, shaped as the input, is 0-d: the input was scalar."""
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class FormFactor:
    """Vertex regulator f of the theta momentum k, with cutoff scale ``lam``.

    Three families are supported, all normalized so that 0 <= f <= 1 for
    every k >= 0 and f(0) > 0 (omega = sqrt(k^2 + mu^2)):

    * ``sharp``:        f = 1 for omega <= Lambda, else 0
    * ``exponential``:  f = exp(-omega / Lambda)
    * ``dipole``:       f = Lambda^2 / (Lambda^2 + k^2)

    Lambda must be positive and finite; its rule is on Lambda / mu (:class:`ModelParams`),
    and f is formed in units of mu, on k s, Lambda s and mu s (s of :func:`_ensure_mu`).
    """

    kind: str
    lam: float

    def __post_init__(self):
        if self.kind not in FORM_FACTOR_KINDS:
            raise ValueError(f"unknown form factor kind {self.kind!r}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError("form factor cutoff Lambda must be positive and finite")
        # hashed once: every memo lookup hashes its key, which does not change in a sweep
        object.__setattr__(self, "_hash", hash((self.kind, self.lam)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.kind, self.lam)

    @classmethod
    def sharp(cls, lam: float) -> "FormFactor":
        return cls(SHARP, lam)

    @classmethod
    def exponential(cls, lam: float) -> "FormFactor":
        return cls(EXPONENTIAL, lam)

    @classmethod
    def dipole(cls, lam: float) -> "FormFactor":
        return cls(DIPOLE, lam)

    def evaluate(self, k, mu: float):
        """f at momentum ``k`` (scalar or array) for theta mass ``mu``, in units of mu;
        omega s is formed exactly as :func:`omega` forms it."""
        s = _ensure_mu(mu)
        ks, lam = np.asarray(k, dtype=float), self.lam * s
        if s != 1.0:  # the unit model, as every rule build passes it, skips k * 1
            ks = ks * s
        if self.kind == DIPOLE:
            return _maybe_scalar(lam * lam / (lam * lam + ks * ks))
        om = np.sqrt(ks * ks + (mu * s) * (mu * s))
        if self.kind == SHARP:
            return _maybe_scalar(np.where(om <= lam, 1.0, 0.0))
        return _maybe_scalar(np.exp(om / -lam))


def _ensure_mu(mu: float, m_n: float = 0.0) -> float:
    """The scale s = 2^(1 - e), (., e) = frexp(mu), that puts mu s in [1, 2), once mu is
    a normal float with a finite square and m_N is finite in units of mu (times s)."""
    if not (math.isfinite(mu * mu) and mu >= sys.float_info.min):
        raise ValueError("theta mass mu must be a positive normal float with a finite square")
    s = math.ldexp(1.0, 1 - math.frexp(mu)[1])
    if not math.isfinite(m_n * s):
        raise ValueError("N mass must be finite in units of mu (|m_N| / mu below about 1e308)")
    return s


def _ensure_coupling(name: str, g: float) -> None:
    if not (math.isfinite(g * g) and g >= 0.0):
        raise ValueError(f"{name} must be nonnegative with a finite square")


@dataclass(frozen=True)
class ModelParams:
    """Masses and regulator defining one Lee-model instance.

    ``m_n`` and ``mu`` are the N and theta masses; the bare V mass and the
    coupling live in :class:`BareCoupling` / :class:`RenCoupling` because they
    are the quantities the renormalization maps exchange.

    The domain is checked here, once: mu a normal float with a finite square (below
    1.3e154, which keeps m_N + mu finite; :func:`omega` applies the same rule), m_N
    finite in units of mu, and the one rule on Lambda, a Lambda / mu with a positive
    square and finite quadrature products (:func:`leemodel.quadrature.ensure_finite_rules`).
    """

    m_n: float
    mu: float
    form_factor: FormFactor

    def __post_init__(self):
        _ensure_mu(self.mu, self.m_n)
        if not isinstance(self.form_factor, FormFactor):
            raise ValueError("form_factor must be a FormFactor instance")
        from .quadrature import ensure_finite_rules  # quadrature imports this module
        ensure_finite_rules(self)
        object.__setattr__(self, "_hash", hash((self.m_n, self.mu, self.form_factor)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.m_n, self.mu, self.form_factor)

    @functools.cached_property
    def threshold(self) -> float:
        """Bottom of the N+theta continuum, m_N + mu."""
        return self.m_n + self.mu

    @functools.cached_property
    def _in_units_of_mu(self) -> tuple[ModelParams, float]:
        """(unit, s): m_N, mu and Lambda times s (:func:`_ensure_mu`), exactly, so masses and
        I1 scale by s and I2, x and Z not at all; unit is this model at s = 1."""
        s, ff = _ensure_mu(self.mu), self.form_factor
        if s == 1.0:
            return self, s
        return ModelParams(self.m_n * s, self.mu * s, FormFactor(ff.kind, ff.lam * s)), s

    def _bare_in_units_of_mu(self, bare: BareCoupling) -> tuple[ModelParams, BareCoupling, float]:
        """(unit, bare, s), bare with m_V0 times s (g0 has no unit): the one rule of every bare
        solve on the unit model, which raises DegenerateModel if m_V0 s overflows."""
        unit, s = self._in_units_of_mu
        if not math.isfinite(bare.m_v0 * s):
            raise DegenerateModel(f"m_V0 = {bare.m_v0!r} overflows in units of mu = {self.mu!r}")
        if s == 1.0:
            return unit, bare, s
        return unit, BareCoupling(m_v0=bare.m_v0 * s, g0=bare.g0), s


@dataclass(frozen=True)
class BareCoupling:
    """Bare V mass m_v0 (finite) and coupling g0 >= 0 with a finite square (g0^2 is observable)."""

    m_v0: float
    g0: float

    def __post_init__(self):
        if not math.isfinite(self.m_v0):
            raise ValueError("bare V mass must be finite")
        _ensure_coupling("bare coupling g0", self.g0)


@dataclass(frozen=True)
class RenCoupling:
    """Physical V mass m_v (finite) and coupling g >= 0 with a finite square, as for g0.

    A consistent point also needs m_v < m_N + mu (bound state below the
    continuum); that window involves the model masses, so
    :func:`ensure_stable` tests it wherever energy denominators appear.
    """

    m_v: float
    g: float

    def __post_init__(self):
        if not math.isfinite(self.m_v):
            raise ValueError("physical V mass must be finite")
        _ensure_coupling("renormalized coupling g", self.g)


class Regime(enum.Enum):
    """Coupling regime relative to the ghost threshold x = 1."""

    NORMAL = "Normal"
    CRITICAL = "Critical"
    GHOST = "Ghost"


def ensure_stable(params: ModelParams, m: float, label: str = "m_V") -> None:
    """Require m < m_N + mu, which for floats is exactly delta = m_N + mu - m > 0,
    the quantity every denominator -(delta + k^2/(omega + mu)) is built from."""
    if not (m < params.threshold):
        raise StabilityViolation(
            f"{label} = {m!r} does not lie below the N+theta threshold "
            f"{params.threshold!r}; the bound-state sector ends there"
        )


def omega(k, mu: float):
    """Theta energy sqrt((k s)^2 + (mu s)^2) / s of momentum k (scalar or array), s as for mu."""
    s = _ensure_mu(mu)
    ks = np.asarray(k, dtype=float) * s
    if not np.all((ks >= 0.0) & (ks < 2.0 ** 512)):  # (k s)^2 finite, NaN refused
        raise ValueError("momentum k must be nonnegative, with a finite square in units of mu")
    return _maybe_scalar(np.sqrt(ks * ks + (mu * s) * (mu * s)) / s)


def vertex_weight(g0: float, ff: FormFactor, k, mu: float):
    """Interaction vertex g0 (2 pi)^(-3/2) f(k) (2 omega_k)^(-1/2) at momentum ``k``."""
    out = g0 / TWO_PI_32 * ff.evaluate(k, mu) / np.sqrt(2.0 * omega(k, mu))
    return _maybe_scalar(out)


def dressing_amplitude(params: ModelParams, g0: float, m_v: float, k):
    """Momentum-space amplitude of the N-theta cloud in the dressed V state.

    Equals vertex_weight(k) / (m_V - m_N - omega_k); strictly negative
    wherever g0 > 0 and the form factor is nonzero, and square-integrable in
    d^3k for every supported form factor family.  The denominator is written as
    -(delta + k^2/(omega_k + mu)), delta = m_N + mu - m_V, so nothing cancels near
    the threshold; k^2/(omega_k + mu) is formed in units of mu.
    """
    ensure_stable(params, m_v)
    unit, s = params._in_units_of_mu
    ks, weight = np.multiply(k, s), vertex_weight(g0, params.form_factor, k, params.mu)
    out = -weight / (params.threshold - m_v + np.square(ks) / (omega(ks, unit.mu) + unit.mu) / s)
    return _maybe_scalar(out)
