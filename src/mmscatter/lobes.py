"""Directive (single-lobe) and backscattering (dual-lobe) diffuse scattering.

The scattered power density around a surface element follows a lobe shape
((1 + cos psi) / 2)^alpha anchored on the specular direction (psi_R) and,
for the dual-lobe model, a second lobe anchored on the incident direction
(psi_i) mixed with weight Lambda:

    |E_s|^2 = (S K / (r_i r_s))^2 * (l cos(theta_i) / F)
              * [ Lambda ((1+cos psi_R)/2)^a_R + (1-Lambda) ((1+cos psi_i)/2)^a_i ]

with K = sqrt(60 P_t G_t) and F the lobe-pattern normalization. Two
normalizations are supported: PAPER_LINE integrates the lobe over the
in-plane scattering angle with |sin theta_s| weighting, HEMISPHERE (the
default) integrates the lobe over the upward hemisphere in solid angle.
Both integrals are evaluated exactly, for an array of incidence angles at
once: PAPER_LINE by its closed form (a cosine series in theta_i), and
HEMISPHERE by Gauss-Legendre in cos(theta_s), where the azimuthally
integrated lobe is a polynomial of degree alpha.
Receiver power in a given direction is P_r = G_r lambda^2 / (480 pi^2) * |E_s|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .materials import IncidenceContext, Material, Polarization, initial_scattering_coefficient

__all__ = [
    "LobeModel",
    "NormalizationMode",
    "Direction",
    "LobeParams",
    "ScatterGeometry",
    "RadioLink",
    "PatternRow",
    "lobe_gain",
    "normalization_f",
    "scattered_field_sq",
    "received_scatter_power",
    "pattern_sweep",
]

ALPHA_MIN = 1
ALPHA_MAX = 10


class LobeModel(Enum):
    SINGLE_LOBE = "single"
    DUAL_LOBE = "dual"


class NormalizationMode(Enum):
    PAPER_LINE = "line"
    HEMISPHERE = "hemisphere"


class Direction(Enum):
    INCIDENT = "incident"
    SPECULAR = "specular"


@dataclass(frozen=True)
class LobeParams:
    """Scattering-model selector and its parameters.

    Single-lobe parameters are (s_coeff, alpha_r); the dual-lobe model adds
    the backscatter width alpha_i and the forward/backscatter mix
    lambda_mix. Width factors are integers 1..10; larger alpha means a
    narrower lobe.
    """

    model: LobeModel
    s_coeff: float
    alpha_r: int
    alpha_i: int | None = None
    lambda_mix: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.s_coeff < 1.0:
            raise ValueError(f"s_coeff must be in [0, 1), got {self.s_coeff}")
        _check_alpha("alpha_r", self.alpha_r)
        if self.model is LobeModel.SINGLE_LOBE:
            if self.alpha_i is not None or self.lambda_mix is not None:
                raise ValueError("single-lobe parameters must not set alpha_i or lambda_mix")
        else:
            _check_alpha("alpha_i", self.alpha_i)
            if self.lambda_mix is None or not 0.0 <= self.lambda_mix <= 1.0:
                raise ValueError(f"lambda_mix must be in [0, 1], got {self.lambda_mix}")


def _check_alpha(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not ALPHA_MIN <= value <= ALPHA_MAX:
        raise ValueError(f"{name} must be in {ALPHA_MIN}..{ALPHA_MAX}, got {value}")


@dataclass(frozen=True)
class ScatterGeometry:
    """Angular and distance context of one Tx -> surface element -> Rx path.

    psi_r is the angle between the scattering and specular-reflection
    directions, psi_i the angle between the scattering and reverse-incident
    directions; both are true 3D angles in [0, pi]. surface_extent is the
    illuminated length (m) or patch area (m^2) depending on the tiling
    interpretation in use.
    """

    r_i: float
    r_s: float
    theta_i: float
    theta_s: float
    psi_r: float
    psi_i: float
    surface_extent: float = 1.0

    def __post_init__(self):
        if self.r_i <= 0.0 or self.r_s <= 0.0:
            raise ValueError(f"degenerate geometry: r_i={self.r_i}, r_s={self.r_s}")
        if not 0.0 <= self.theta_i < math.pi / 2:
            raise ValueError(f"theta_i must be in [0, pi/2), got {self.theta_i}")
        if not 0.0 <= self.theta_s <= math.pi / 2:
            raise ValueError(f"theta_s must be in [0, pi/2], got {self.theta_s}")
        for name, value in (("psi_r", self.psi_r), ("psi_i", self.psi_i)):
            if not 0.0 <= value <= math.pi:
                raise ValueError(f"{name} must be in [0, pi], got {value}")
        if self.surface_extent <= 0.0:
            raise ValueError(f"surface_extent must be > 0, got {self.surface_extent}")


@dataclass(frozen=True)
class RadioLink:
    """Transmit power (W), linear antenna gains, and carrier wavelength (m)."""

    p_t: float
    g_t: float
    g_r: float
    wavelength: float

    def __post_init__(self):
        if self.p_t <= 0.0 or self.g_t <= 0.0 or self.g_r <= 0.0:
            raise ValueError("p_t, g_t, g_r must all be > 0")
        if self.wavelength <= 0.0:
            raise ValueError(f"wavelength must be > 0 m, got {self.wavelength}")

    @property
    def k_const(self) -> float:
        """Incident-field amplitude constant K = sqrt(60 P_t G_t)."""
        return math.sqrt(60.0 * self.p_t * self.g_t)


def lobe_gain(psi: float, alpha: int) -> float:
    """Lobe shape ((1 + cos psi) / 2)^alpha; 1 at psi = 0, 0 at psi = pi."""
    if not 0.0 <= psi <= math.pi:
        raise ValueError(f"psi must be in [0, pi], got {psi}")
    _check_alpha("alpha", alpha)
    return ((1.0 + math.cos(psi)) / 2.0) ** alpha


@lru_cache(maxsize=None)
def _phi_ring_coeffs(alpha: int) -> tuple[tuple[int, float], ...]:
    # Closed form of the azimuthal integral: with a = cos(ti)cos(ts),
    # b = sin(ti)sin(ts),
    #   int_0^{2pi} ((1 + a + b cos phi)/2)^alpha dphi
    #     = 2^-alpha * sum_{k even} C(alpha,k) (1+a)^(alpha-k) b^k * 2pi C(k,k/2)/2^k
    coeffs = []
    for k in range(0, alpha + 1, 2):
        c = math.comb(alpha, k) * math.comb(k, k // 2) * 2.0 * math.pi / (2.0**k * 2.0**alpha)
        coeffs.append((k, c))
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _gauss_legendre_01(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    from numpy.polynomial.legendre import leggauss  # deferred: keeps numpy.polynomial out of package import

    nodes, weights = leggauss(n)
    return tuple(((nodes + 1.0) / 2.0).tolist()), tuple((weights / 2.0).tolist())


@lru_cache(maxsize=None)
def _line_cos_coeffs(alpha: int) -> tuple[float, ...]:
    # ((1 + cos u)/2)^alpha = 4^-alpha [C(2alpha,alpha) + 2 sum_{m>=1} C(2alpha,alpha-m) cos(m u)];
    # against |sin ts| on [-pi/2, pi/2] the sin(m ts) parts of cos(m (ts - ti))
    # are odd and vanish, leaving cos(m ti) times
    #   I_m = int |sin t| cos(m t) dt = 2 (1 - m sin(m pi/2)) / (1 - m^2),  I_1 = 1
    coeffs = []
    for m in range(alpha + 1):
        num, den = (1, 1) if m == 1 else (2 * (1 - m * (0, 1, 0, -1)[m % 4]), 1 - m * m)
        weight = 1 if m == 0 else 2
        # exact integers until the one correctly rounded int / int division
        coeffs.append(weight * math.comb(2 * alpha, alpha - m) * num / (4**alpha * den))
    return tuple(coeffs)


def single_lobe_norm(mode: NormalizationMode, alpha: int, theta_i) -> np.ndarray:
    """Normalization of one lobe centered on the specular direction, per theta_i.

    theta_i is an array of incidence angles (rad); the result has its shape
    and is exact to rounding. The backscatter lobe has the same
    normalization by mirror symmetry of the hemisphere (or of the in-plane
    interval) about the surface normal.
    """
    _check_alpha("alpha", alpha)
    theta = np.asarray(theta_i, dtype=float)
    flat = theta.reshape(-1)
    total = np.zeros_like(flat)
    if mode is NormalizationMode.PAPER_LINE:
        for m, c in enumerate(_line_cos_coeffs(alpha)):
            total += c * np.cos(m * flat)
        return total.reshape(theta.shape)

    coeffs = _phi_ring_coeffs(alpha)
    # only even powers of sin(ts) survive the ring integral, so in x = cos(ts)
    # the integrand is a polynomial of degree alpha: alpha // 2 + 1 nodes are exact
    nodes, weights = _gauss_legendre_01(alpha // 2 + 1)
    x = np.array(nodes)[:, None]
    a = 1.0 + x * np.cos(flat)  # (nodes, T)
    b_sq = (1.0 - x * x) * np.sin(flat) ** 2
    ring = sum(c * a ** (alpha - k) * b_sq ** (k // 2) for k, c in coeffs)
    for w, row in zip(weights, ring):
        total += w * row
    return total.reshape(theta.shape)


def normalization_f(params: LobeParams, theta_i: float, mode: NormalizationMode = NormalizationMode.HEMISPHERE) -> float:
    """Lobe-pattern normalization F for the given model and incidence angle.

    Dual-lobe: F = Lambda * F(alpha_r) + (1 - Lambda) * F(alpha_i).
    """
    if not 0.0 <= theta_i < math.pi / 2:
        raise ValueError(f"theta_i must be in [0, pi/2), got {theta_i}")
    f_forward = float(single_lobe_norm(mode, params.alpha_r, theta_i))
    if params.model is LobeModel.SINGLE_LOBE:
        return f_forward
    f_back = float(single_lobe_norm(mode, params.alpha_i, theta_i))
    return params.lambda_mix * f_forward + (1.0 - params.lambda_mix) * f_back


def scattered_field_sq(
    params: LobeParams,
    geom: ScatterGeometry,
    link: RadioLink,
    mode: NormalizationMode = NormalizationMode.HEMISPHERE,
) -> float:
    """Squared scattered-field amplitude |E_s|^2 at the receiver (V^2/m^2 scale)."""
    norm = normalization_f(params, geom.theta_i, mode)
    amplitude = (params.s_coeff * link.k_const / (geom.r_i * geom.r_s)) ** 2
    spread = geom.surface_extent * math.cos(geom.theta_i) / norm
    if params.model is LobeModel.SINGLE_LOBE:
        mix = lobe_gain(geom.psi_r, params.alpha_r)
    else:
        mix = params.lambda_mix * lobe_gain(geom.psi_r, params.alpha_r) + (
            1.0 - params.lambda_mix
        ) * lobe_gain(geom.psi_i, params.alpha_i)
    return amplitude * spread * mix


def received_scatter_power(e_s_sq: float, g_r: float, wavelength: float) -> float:
    """Receiver power P_r = G_r lambda^2 / (480 pi^2) * |E_s|^2, in watts."""
    if e_s_sq < 0.0:
        raise ValueError(f"e_s_sq must be >= 0, got {e_s_sq}")
    return g_r * wavelength**2 / (480.0 * math.pi**2) * e_s_sq


@dataclass(frozen=True)
class PatternRow:
    theta_i_deg: float
    direction: Direction
    p_r_watts: float


def pattern_sweep(
    material: Material,
    params: LobeParams,
    link: RadioLink,
    direction: Direction,
    theta_grid_deg,
    mode: NormalizationMode = NormalizationMode.HEMISPHERE,
    polarization: Polarization = Polarization.TE,
    fixed_s: float | None = None,
    r_i: float = 1.5,
    r_s: float = 1.5,
    surface_extent: float = 1.0,
) -> list[PatternRow]:
    """Received scattered power versus incidence angle, in one direction.

    The receiver sits at distance r_s in either the specular direction
    (psi_r = 0, psi_i = 2 theta_i) or back along the incident direction
    (psi_i = 0, psi_r = 2 theta_i). Unless fixed_s is given, the scattering
    coefficient is recomputed per angle from the material's roughness and
    reflection coefficient.
    """
    rows = []
    for theta_deg in theta_grid_deg:
        if not 0.0 < theta_deg < 90.0:
            raise ValueError(f"theta grid must lie within (0, 90) degrees, got {theta_deg}")
        theta = math.radians(theta_deg)
        if fixed_s is None:
            ctx = IncidenceContext(theta_i=theta, wavelength=link.wavelength, polarization=polarization)
            s_value = initial_scattering_coefficient(material, ctx).s_coeff
        else:
            s_value = fixed_s
        swept = replace(params, s_coeff=s_value)
        if direction is Direction.SPECULAR:
            psi_r, psi_i = 0.0, 2.0 * theta
        else:
            psi_r, psi_i = 2.0 * theta, 0.0
        geom = ScatterGeometry(
            r_i=r_i,
            r_s=r_s,
            theta_i=theta,
            theta_s=theta,
            psi_r=psi_r,
            psi_i=psi_i,
            surface_extent=surface_extent,
        )
        e_sq = scattered_field_sq(swept, geom, link, mode)
        rows.append(PatternRow(theta_i_deg=theta_deg, direction=direction, p_r_watts=received_scatter_power(e_sq, link.g_r, link.wavelength)))
    return rows
