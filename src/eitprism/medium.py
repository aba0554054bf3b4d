"""Steady-state optical response of a coherently driven three-level vapor.

Everything is Gaussian CGS: lengths in cm, number densities in cm^-3, and
all rates / detunings / Rabi frequencies in angular units (rad/s).

For a weak probe detuned by ``delta`` from two-photon resonance, with a
control field of Rabi frequency ``omega``, the probe susceptibility of the
Lambda system is

    chi(delta) = eta * gamma_r * (delta + i*gamma_cb)
                 / (omega**2 + (gamma - i*delta) * (gamma_cb - i*delta))

where ``gamma`` is the optical coherence decay rate, ``gamma_cb`` the
ground-state coherence decay rate, ``gamma_r`` the radiative rate of the
probe transition, and ``eta = 3 * wavelength**3 * density / (16 * pi**2)``.
Its real part collapses to the familiar dispersive form implemented in
:func:`re_chi`; the two are checked against each other in the tests.  The
imaginary part is non-negative for physical rates, so the medium never
amplifies.

A transversely Gaussian control beam makes ``omega`` a function of the
transverse coordinate x, which turns the vapor into a gradient-index
element.  :func:`index_profile` evaluates n(x) on a grid and
:func:`grad_index` gives the analytic transverse derivative of Re n; the
ray tracer uses its fixed-detuning form :func:`index_gradient`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MediumParams",
    "ControlField",
    "eta",
    "re_chi",
    "complex_chi",
    "refractive_index",
    "rabi_at",
    "index_profile",
    "grad_index",
    "index_gradient",
    "grad_index_fd",
]

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class MediumParams:
    """Atomic and cell parameters.

    wavelength : probe wavelength in vacuum, cm
    density    : number density of atoms, cm^-3
    gamma_r    : radiative decay rate of the probe transition, rad/s
    gamma      : optical coherence decay rate, rad/s
    gamma_cb   : ground-state coherence decay rate, rad/s
    cell_length: length of the vapor cell along the beam, cm
    """

    wavelength: float
    density: float
    gamma_r: float
    gamma: float
    gamma_cb: float
    cell_length: float

    def __post_init__(self) -> None:
        if not 0.0 < self.wavelength < math.inf:
            raise ValueError("wavelength must be positive and finite")
        if not 0.0 <= self.density < math.inf:
            raise ValueError("density must be non-negative and finite")
        if not all(0.0 < r < math.inf for r in (self.gamma_r, self.gamma, self.gamma_cb)):
            raise ValueError("decay rates must be positive and finite")
        if not 0.0 < self.cell_length < math.inf:
            raise ValueError("cell_length must be positive and finite")


@dataclass(frozen=True)
class ControlField:
    """Transverse profile of the control beam.

    The Rabi frequency falls off as a field Gaussian,
    ``omega(x) = omega_peak * exp(-((x - center) / waist)**2)``.

    omega_peak : peak Rabi frequency, rad/s
    waist      : 1/e field radius of the control beam, cm
    center     : transverse position of the control-beam axis, cm
    """

    omega_peak: float
    waist: float
    center: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega_peak < math.inf:
            raise ValueError("omega_peak must be non-negative and finite")
        if not 0.0 < self.waist < math.inf:
            raise ValueError("waist must be positive and finite")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")


def eta(p: MediumParams) -> float:
    """Dimensionless coupling strength, 3*lambda^3*N/(16*pi^2)."""
    return 3.0 * p.wavelength**3 * p.density / (16.0 * math.pi**2)


def re_chi(delta, omega: float, p: MediumParams):
    """Dispersive (real) part of the probe susceptibility.

    Accepts a scalar or array two-photon detuning ``delta`` (rad/s) and a
    scalar control Rabi frequency ``omega`` (rad/s).
    """
    d2 = delta * delta
    num = omega**2 - p.gamma_cb**2 - d2
    den = (omega**2 + p.gamma_cb * p.gamma - d2) ** 2 + d2 * (p.gamma_cb + p.gamma) ** 2
    return eta(p) * p.gamma_r * delta * num / den


def complex_chi(delta, omega: float, p: MediumParams):
    """Complex probe susceptibility chi(delta) for control Rabi ``omega``.

    Re chi agrees with :func:`re_chi`; Im chi >= 0 (absorption only).
    Uses only arithmetic that broadcasts, so ``delta`` may be an array.
    Rejects finite inputs that overflow the denominator (|delta| from 1.3e154).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        den = omega * omega + (p.gamma - 1j * delta) * (p.gamma_cb - 1j * delta)
    if (np.isinf(den) & np.isfinite(delta)).any():
        raise ValueError("delta or omega too large: the susceptibility overflows")
    return eta(p) * p.gamma_r * (delta + 1j * p.gamma_cb) / den


def refractive_index(chi):
    """Complex refractive index n = sqrt(1 + 4*pi*chi).

    Principal branch; Im n >= 0 whenever Im chi >= 0.  Rejects
    susceptibilities with 1 + 4*pi*Re(chi) <= 0 (no propagating solution).
    """
    arg = 1.0 + FOUR_PI * np.asarray(chi, dtype=complex)
    if np.any(arg.real <= 0.0):
        raise ValueError("non-physical susceptibility: 1 + 4*pi*Re(chi) <= 0")
    n = np.sqrt(arg)
    if np.ndim(chi) == 0:
        return complex(n)
    return n


def rabi_at(x, c: ControlField):
    """Control Rabi frequency at transverse position x (cm)."""
    u = (np.asarray(x, dtype=float) - c.center) / c.waist
    val = c.omega_peak * np.exp(-u * u)
    if np.ndim(x) == 0:
        return float(val)
    return val


def index_profile(delta: float, x, p: MediumParams, c: ControlField):
    """Complex refractive index n(x) across the control-beam profile."""
    return refractive_index(complex_chi(delta, rabi_at(x, c), p))


def grad_index(delta: float, x: float, p: MediumParams, c: ControlField) -> float:
    """Analytic transverse gradient of Re n at position x (1/cm).

    With u = x - center, q = omega(x)**2 = omega_peak**2 * exp(-2*u**2/waist**2),
    D = q + (gamma - i*delta)*(gamma_cb - i*delta) the denominator of chi and
    S = eta*gamma_r*(delta + i*gamma_cb) its numerator, chi = S/D and the
    chain rule through n(chi(q(x))) gives
        dn/dchi = 2*pi / n,  n = sqrt(1 + 4*pi*S/D)
        dchi/dq = -S / D**2
        dq/dx   = -4*u/waist**2 * q
    whose product is the closed form
        d(Re n)/dx = (8*pi*u*q / waist**2) * Re[S / (D**2 * sqrt(1 + 4*pi*S/D))].
    ``delta`` and ``x`` may also be arrays of one shape (see
    :func:`index_gradient`); the finite-difference cross-check is
    :func:`grad_index_fd`.
    """
    return index_gradient(delta, p, c)(x)


def index_gradient(delta, p: MediumParams, c: ControlField) -> Callable:
    """:func:`grad_index` at fixed ``delta`` as a function of x alone.

    The factors that do not depend on x are computed once: the numerator
    S of chi and 4*pi*S, the rate product (gamma - i*delta)*(gamma_cb -
    i*delta), 8*pi/waist**2, -2/waist**2 and omega_peak**2.  A ray trace
    then pays on each call for one exp, one complex square root and the
    x-dependent arithmetic of the closed form in :func:`grad_index`.

    A scalar ``delta``, taken as a Python float (a numpy scalar too),
    gives a function of a float x, evaluated with math.exp and cmath.sqrt.  An array of detunings gives a function of an
    array x of the same shape, one position per detuning, or of any shape
    that broadcasts against it (such as (..., B) for B detunings),
    evaluated in the same operation order with np.exp and np.sqrt; numpy's
    complex arithmetic and exp can round the last bits differently from
    Python's.
    Rejects a ``delta`` with any non-finite element, or one so large that
    the closed form's D**2 overflows (|delta| from about 1.2e77 rad/s).
    """
    if not np.isfinite(delta).all():
        raise ValueError("delta must be finite")
    if np.ndim(delta) == 0:
        delta, exp, sqrt = float(delta), math.exp, cmath.sqrt
    else:
        delta = np.asarray(delta, dtype=float)
        exp, sqrt = np.exp, np.sqrt
    with np.errstate(over="ignore", invalid="ignore"):
        rates = (p.gamma - 1j * delta) * (p.gamma_cb - 1j * delta)
        if not np.isfinite(rates * rates).all():
            raise ValueError("delta too large: the ray gradient overflows")
    strength = eta(p) * p.gamma_r * (delta + 1j * p.gamma_cb)
    four_pi_strength = FOUR_PI * strength
    scale = 2.0 * FOUR_PI / (c.waist * c.waist)
    decay = -2.0 / (c.waist * c.waist)
    omega_peak2 = c.omega_peak * c.omega_peak
    center = c.center

    def gradient(x):
        u = x - center
        q = omega_peak2 * exp(decay * u * u)
        den = q + rates
        root = sqrt(1.0 + four_pi_strength / den)
        return scale * u * q * (strength / (den * den * root)).real

    return gradient


def grad_index_fd(
    delta: float, x: float, p: MediumParams, c: ControlField, h: float | None = None
) -> float:
    """Central finite difference of Re n(x), for validating :func:`grad_index`."""
    if h is None:
        h = c.waist / 1e4
    hi = index_profile(delta, x + h, p, c).real
    lo = index_profile(delta, x - h, p, c).real
    return (hi - lo) / (2.0 * h)
