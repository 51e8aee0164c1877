"""Surface materials and smooth/rough reflection coefficients.

A rough surface attenuates the specular reflection by the Rayleigh
roughness factor

    R = exp(-g) * I0(g),   g = 8 * (pi * h_rms * cos(theta_i) / lambda)^2

so the rough-surface reflection coefficient is R * Gamma, and the power
removed from the specular component reappears as diffuse scattering with
amplitude coefficient

    S = sqrt((1 - R^2) * Gamma^2)

which preserves the energy split S^2 + (R*Gamma)^2 = Gamma^2 of the
reflected power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Polarization",
    "Material",
    "MaterialDatabase",
    "IncidenceContext",
    "ReflectionBundle",
    "bessel_i0",
    "fresnel_gamma",
    "rayleigh_factor",
    "initial_scattering_coefficient",
]

# Power series below this point, asymptotic expansion above; both branches
# agree to better than 1e-10 at the switch.
_I0_SERIES_LIMIT = 15.0
_I0_ARG_MAX = 700.0


class Polarization(Enum):
    TE = "TE"
    TM = "TM"


@dataclass(frozen=True)
class Material:
    """One surface: relative permittivity and roughness.

    h_rms is the standard deviation of the surface height about its mean,
    in meters. The wall is a dielectric half-space, so it has no thickness.
    """

    name: str
    eps_r: float
    h_rms: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("material name must be non-empty")
        if self.eps_r < 1.0:
            raise ValueError(f"{self.name}: eps_r must be >= 1, got {self.eps_r}")
        if self.h_rms < 0.0:
            raise ValueError(f"{self.name}: h_rms must be >= 0 m, got {self.h_rms}")


class MaterialDatabase:
    """Name-keyed material collection; names are unique."""

    def __init__(self, materials=()):
        self._by_name: dict[str, Material] = {}
        for mat in materials:
            self.add(mat)

    def add(self, material: Material) -> None:
        if material.name in self._by_name:
            raise ValueError(f"duplicate material name: {material.name}")
        self._by_name[material.name] = material

    def get(self, name: str) -> Material:
        try:
            return self._by_name[name]
        except KeyError:
            known = ", ".join(sorted(self._by_name)) or "<empty database>"
            raise KeyError(f"unknown material {name!r}; known: {known}") from None

    def names(self) -> list[str]:
        return list(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)


@dataclass(frozen=True)
class IncidenceContext:
    """Incidence angle (radians from the surface normal), wavelength, polarization.

    Grazing incidence (theta_i -> pi/2) is excluded: the roughness factor is
    a small-incidence-angle model and does not represent scattering losses
    near grazing.
    """

    theta_i: float
    wavelength: float
    polarization: Polarization = Polarization.TE

    def __post_init__(self):
        if not 0.0 <= self.theta_i < math.pi / 2:
            raise ValueError(f"theta_i must be in [0, pi/2), got {self.theta_i}")
        if self.wavelength <= 0.0:
            raise ValueError(f"wavelength must be > 0 m, got {self.wavelength}")


@dataclass(frozen=True)
class ReflectionBundle:
    """Smooth and rough reflection coefficients with the scattering split.

    gamma_rough = rayleigh_r * gamma holds exactly, and
    s_coeff^2 + gamma_rough^2 = gamma^2 to 1e-12.
    """

    gamma: float
    rayleigh_r: float
    gamma_rough: float
    s_coeff: float

    def __post_init__(self):
        if abs(self.gamma) > 1.0:
            raise ValueError(f"|gamma| must be <= 1, got {self.gamma}")
        if not 0.0 < self.rayleigh_r <= 1.0:
            raise ValueError(f"rayleigh_r must be in (0, 1], got {self.rayleigh_r}")
        if self.gamma_rough != self.rayleigh_r * self.gamma:
            raise ValueError("gamma_rough must equal rayleigh_r * gamma exactly")
        if not 0.0 <= self.s_coeff < 1.0:
            raise ValueError(f"s_coeff must be in [0, 1), got {self.s_coeff}")
        residual = self.s_coeff**2 + self.gamma_rough**2 - self.gamma**2
        if abs(residual) > 1e-12:
            raise ValueError(f"energy split violated: S^2 + Gamma_rough^2 - Gamma^2 = {residual}")


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind and zero order, I0(x).

    Valid for 0 <= x <= 700 (exp overflow guard); relative error < 1e-10.
    """
    if x < 0.0:
        raise ValueError(f"bessel_i0 requires x >= 0, got {x}")
    if x > _I0_ARG_MAX:
        raise ValueError(f"bessel_i0 argument too large (max {_I0_ARG_MAX}), got {x}")
    if x < _I0_SERIES_LIMIT:
        # sum_k (x/2)^(2k) / (k!)^2
        q = 0.25 * x * x
        term = 1.0
        total = 1.0
        for k in range(1, 80):
            term *= q / (k * k)
            total += term
            if term < total * 1e-18:
                break
        return total
    return math.exp(x) / math.sqrt(2.0 * math.pi * x) * _i0_asymptotic_sum(x)


def _i0_asymptotic_sum(x: float) -> float:
    """sum_k a_k / x^k of the asymptotic I0(x) ~ exp(x)/sqrt(2 pi x) * sum_k a_k / x^k.

    a_0 = 1, a_k = a_{k-1} * (2k-1)^2 / (8k); truncated at the smallest term.
    """
    total = 1.0
    term = 1.0
    for k in range(1, 40):
        next_term = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        if abs(next_term) >= abs(term):
            break
        term = next_term
        total += term
        if abs(term) < total * 1e-16:
            break
    return total


def fresnel_gamma(eps_r: float, theta_i: float, pol: Polarization = Polarization.TE) -> float:
    """Amplitude reflection coefficient of a lossless dielectric half-space.

    TE (E-field perpendicular to the incidence plane):
        (cos t - sqrt(eps - sin^2 t)) / (cos t + sqrt(eps - sin^2 t))
    TM (E-field in the incidence plane), zero at the Brewster angle:
        (eps cos t - sqrt(eps - sin^2 t)) / (eps cos t + sqrt(eps - sin^2 t))
    """
    if eps_r < 1.0:
        raise ValueError(f"eps_r must be >= 1, got {eps_r}")
    if not 0.0 <= theta_i < math.pi / 2:
        raise ValueError(f"theta_i must be in [0, pi/2), got {theta_i}")
    if eps_r == 1.0:
        # no dielectric contrast; avoids cancellation noise in cos - sqrt(1 - sin^2)
        return 0.0
    cos_t = math.cos(theta_i)
    root = math.sqrt(eps_r - math.sin(theta_i) ** 2)
    if pol is Polarization.TE:
        return (cos_t - root) / (cos_t + root)
    return (eps_r * cos_t - root) / (eps_r * cos_t + root)


def rayleigh_factor(h_rms: float, theta_i: float, wavelength: float) -> float:
    """Roughness loss factor R = exp(-g) * I0(g), g = 8 (pi h_rms cos(theta_i) / lambda)^2.

    R is 1 for a perfectly smooth surface and decays toward 0 with
    increasing electrical roughness.
    """
    if h_rms < 0.0:
        raise ValueError(f"h_rms must be >= 0 m, got {h_rms}")
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be > 0 m, got {wavelength}")
    g = 8.0 * (math.pi * h_rms * math.cos(theta_i) / wavelength) ** 2
    # exp(-g) * I0(g) evaluated in a form that stays finite for large g:
    # for g past the series range, fold exp(-g) into the asymptotic prefactor.
    if g < _I0_SERIES_LIMIT:
        return math.exp(-g) * bessel_i0(g)
    return _i0_asymptotic_sum(g) / math.sqrt(2.0 * math.pi * g)


def initial_scattering_coefficient(material: Material, ctx: IncidenceContext) -> ReflectionBundle:
    """Theoretical scattering coefficient S = sqrt((1 - R^2) * Gamma^2).

    S^2 is the fraction of the power incident on the surface element that is
    redistributed into all scattering directions. The returned bundle also
    carries Gamma, R and the rough-surface reflection coefficient
    Gamma_rough = R * Gamma.
    """
    gamma = fresnel_gamma(material.eps_r, ctx.theta_i, ctx.polarization)
    r = rayleigh_factor(material.h_rms, ctx.theta_i, ctx.wavelength)
    s_coeff = math.sqrt((1.0 - r * r) * gamma * gamma)
    return ReflectionBundle(gamma=gamma, rayleigh_r=r, gamma_rough=r * gamma, s_coeff=s_coeff)
