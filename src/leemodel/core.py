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

All energies are in the same (arbitrary) unit; mu = 1 is the conventional
scale.  All types here are immutable values and all functions are pure, so
everything can be shared freely between threads and across parameter sweeps.
That holds for the whole package: its only state, the quadrature's cached
Gauss-Legendre nodes, its last 32 moment rules (one per model,
threshold-scale octave and panel count) and the mass solve's last 8 opening
passes (one per model, tolerances and start point, with the arrays of the
level each settled on), is memoized read-only arrays and tuples rebuilt bit
for bit on a miss, so a thread never sees another's results.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import StabilityViolation

TWO_PI_32 = (2.0 * math.pi) ** 1.5

SHARP = "sharp"
EXPONENTIAL = "exponential"
DIPOLE = "dipole"
FORM_FACTOR_KINDS = (SHARP, EXPONENTIAL, DIPOLE)


def _maybe_scalar(out: np.ndarray, like) -> "float | np.ndarray":
    """Return a plain float when the input was scalar."""
    if np.ndim(like) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class FormFactor:
    """Vertex regulator f of the theta momentum k, with cutoff scale ``lam``.

    Three families are supported, all normalized so that 0 <= f <= 1 for
    every k >= 0 and f(0) > 0 (omega = sqrt(k^2 + mu^2)):

    * ``sharp``:        f = 1 for omega <= Lambda, else 0
    * ``exponential``:  f = exp(-omega / Lambda)
    * ``dipole``:       f = Lambda^2 / (Lambda^2 + k^2)

    Lambda must be finite with a positive square, so that the dipole's
    Lambda^2 does not underflow to 0.
    """

    kind: str
    lam: float

    def __post_init__(self):
        if self.kind not in FORM_FACTOR_KINDS:
            raise ValueError(f"unknown form factor kind {self.kind!r}")
        if not (math.isfinite(self.lam) and self.lam > 0.0 and self.lam * self.lam > 0.0):
            raise ValueError("form factor cutoff Lambda must be positive and finite, "
                             "with a positive square")

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
        """f at momentum ``k`` (scalar or array) for theta mass ``mu``; omega is
        formed exactly as :func:`omega` forms it."""
        k_arr = np.asarray(k, dtype=float)
        if self.kind == DIPOLE:
            lam_sq = self.lam * self.lam
            return _maybe_scalar(lam_sq / (lam_sq + k_arr * k_arr), k)
        om = np.sqrt(k_arr * k_arr + mu * mu)
        if self.kind == SHARP:
            return _maybe_scalar(np.where(om <= self.lam, 1.0, 0.0), k)
        return _maybe_scalar(np.exp(-om / self.lam), k)


def _ensure_mu(mu: float) -> None:
    if not (math.isfinite(mu * mu) and mu > 0.0):
        raise ValueError("theta mass mu must be positive with a finite square")


def _ensure_coupling(name: str, g: float) -> None:
    if not (math.isfinite(g * g) and g >= 0.0):
        raise ValueError(f"{name} must be nonnegative with a finite square")


@dataclass(frozen=True)
class ModelParams:
    """Masses and regulator defining one Lee-model instance.

    ``m_n`` and ``mu`` are the N and theta masses; the bare V mass and the
    coupling live in :class:`BareCoupling` / :class:`RenCoupling` because they
    are the quantities the renormalization maps exchange.

    The domain is checked here, once: a finite m_N, mu positive with a finite
    square (below 1.3e154, which keeps m_N + mu finite; :func:`omega` applies
    the same rule), and a momentum range on which every product of the
    quadrature rules stays finite (:func:`leemodel.quadrature.ensure_finite_rules`).
    """

    m_n: float
    mu: float
    form_factor: FormFactor

    def __post_init__(self):
        _ensure_mu(self.mu)
        if not math.isfinite(self.m_n):
            raise ValueError("N mass must be finite")
        if not isinstance(self.form_factor, FormFactor):
            raise ValueError("form_factor must be a FormFactor instance")
        from .quadrature import ensure_finite_rules  # quadrature imports this module
        ensure_finite_rules(self)

    @property
    def threshold(self) -> float:
        """Bottom of the N+theta continuum, m_N + mu."""
        return self.m_n + self.mu


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
    """Theta energy sqrt(k^2 + mu^2) for momentum magnitude k (scalar or array)."""
    _ensure_mu(mu)
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr < 0.0) or not np.all(np.isfinite(k_arr)):
        raise ValueError("momentum magnitude k must be nonnegative and finite")
    return _maybe_scalar(np.sqrt(k_arr * k_arr + mu * mu), k)


def vertex_weight(g0: float, ff: FormFactor, k, mu: float):
    """Interaction vertex g0 (2 pi)^(-3/2) f(k) (2 omega_k)^(-1/2) at momentum ``k``."""
    out = g0 / TWO_PI_32 * ff.evaluate(k, mu) / np.sqrt(2.0 * omega(k, mu))
    return _maybe_scalar(out, k)


def dressing_amplitude(params: ModelParams, g0: float, m_v: float, k):
    """Momentum-space amplitude of the N-theta cloud in the dressed V state.

    Equals vertex_weight(k) / (m_V - m_N - omega_k); strictly negative
    wherever g0 > 0 and the form factor is nonzero, and square-integrable in
    d^3k for every supported form factor family.  The denominator is written
    as -(delta + k^2/(omega_k + mu)) with delta = m_N + mu - m_V, so nothing
    cancels near the threshold.
    """
    ensure_stable(params, m_v)
    weight = vertex_weight(g0, params.form_factor, k, params.mu)
    out = -weight / (params.threshold - m_v + np.square(k) / (omega(k, params.mu) + params.mu))
    return _maybe_scalar(out, k)
