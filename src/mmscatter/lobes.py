"""Directive (single-lobe) and backscattering (dual-lobe) diffuse scattering.

The scattered power density around a surface element follows a lobe shape
((1 + cos psi) / 2)^alpha anchored on the specular direction (psi_R) and,
for the dual-lobe model, a second lobe anchored on the incident direction
(psi_i) mixed with weight Lambda:

    |E_s|^2 = S^2 * (K / (r_i r_s))^2 * (l cos(theta_i) / F)
              * [ Lambda ((1+cos psi_R)/2)^a_R + (1-Lambda) ((1+cos psi_i)/2)^a_i ]

with K = sqrt(60 P_t G_t) and F the lobe-pattern normalization. S^2 only
scales the diffuse power, so it multiplies sums of element powers. Two
normalizations are supported: PAPER_LINE integrates the lobe over the
in-plane scattering angle with |sin theta_s| weighting, HEMISPHERE (the
default) integrates the lobe over the upward hemisphere in solid angle.
Both integrals have closed forms, cosine series sum_m c_m cos(m theta_i)
with m <= alpha, evaluated for an array of incidence angles at once; the
HEMISPHERE coefficients follow from the Funk-Hecke theorem as exact integer ratios.
Receiver power in a given direction is P_r = G_r lambda^2 / (480 pi^2) * |E_s|^2.
element_constant and mixed_power evaluate P_r / S^2 for arrays of surface
elements, the single lobe as the Lambda = 1 mix; the scan simulator, the
fit and pattern_sweep all use them. pattern_sweep gives one unit-area
element's power toward the incident and the specular receiver together.
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
    "LobeParams",
    "RadioLink",
    "normalization_f",
    "lobe_mix",
    "element_constant",
    "mixed_power",
    "pattern_sweep",
]

ALPHA_MIN = 1
ALPHA_MAX = 10
# antenna distance (m) of pattern_sweep's unit-area surface element
SWEEP_RANGE_M = 1.5


class LobeModel(Enum):
    SINGLE_LOBE = "single"
    DUAL_LOBE = "dual"


class NormalizationMode(Enum):
    PAPER_LINE = "line"
    HEMISPHERE = "hemisphere"


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

    @property
    def shape(self) -> tuple[int, int, float]:
        """(alpha_r, alpha_i, lambda_mix) in the dual-lobe formula.

        The single lobe is its lambda-1 case: the backscatter lobe has weight
        zero and its width drops out, so ALPHA_MIN stands for it.
        """
        if self.model is LobeModel.SINGLE_LOBE:
            return self.alpha_r, ALPHA_MIN, 1.0
        return self.alpha_r, self.alpha_i, self.lambda_mix

    @classmethod
    def from_shape(cls, model: LobeModel, s_coeff: float, shape) -> "LobeParams":
        """The inverse of .shape: model's parameters at S s_coeff; a single lobe takes only alpha_r of shape."""
        alpha_r, alpha_i, lambda_mix = shape
        if model is LobeModel.SINGLE_LOBE:
            return cls(model, s_coeff, alpha_r)
        return cls(model, s_coeff, alpha_r, alpha_i, lambda_mix)


def _check_alpha(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not ALPHA_MIN <= value <= ALPHA_MAX:
        raise ValueError(f"{name} must be in {ALPHA_MIN}..{ALPHA_MAX}, got {value}")


@dataclass(frozen=True)
class RadioLink:
    """Transmit power (W), linear antenna gains, and carrier wavelength (m)."""

    p_t: float
    g_t: float
    g_r: float
    wavelength: float

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (self.p_t, self.g_t, self.g_r)):
            raise ValueError(f"p_t, g_t, g_r must all be > 0 and finite, got {self.p_t}, {self.g_t}, {self.g_r}")
        if not (0.0 < self.wavelength and self.wavelength * self.wavelength < math.inf):
            raise ValueError(f"wavelength must be > 0 m with a finite square, got {self.wavelength}")

    @property
    def k_const(self) -> float:
        """Incident-field amplitude constant K = sqrt(60 P_t G_t)."""
        return math.sqrt(60.0 * self.p_t * self.g_t)

    def friis_power(self, path_length: float) -> float:
        """Free-space received power P_t G_t G_r (lambda / (4 pi d))^2 over a path of length d (m)."""
        return self.p_t * self.g_t * self.g_r * (self.wavelength / (4.0 * math.pi * path_length)) ** 2


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


def _hemisphere_cos_fractions(alpha: int) -> tuple[list[int], int]:
    """Exact q_m with F_hemi(alpha, ti) = 2 pi sum_m q_m cos(m ti): integer numerators over one denominator."""
    # Funk-Hecke: F / 2pi = 1/(alpha+1) + sum_{odd l <= alpha} e_l P_l(cos ti), with
    #   e_l = (2l+1) P_{l-1}(0) alpha!^2 / ((l+1) (alpha-l)! (alpha+l+1)!),  P_{2n}(0) = (-1)^n g_n,
    #   P_l(cos t) = sum_{k=0..l} g_k g_{l-k} cos((l-2k) t),  g_k = C(2k,k) / 4^k;
    # odd l gives odd m only, so every even m >= 2 stays exactly 0. Each term is an integer over d:
    # (l+1) divides (alpha+1)! / (alpha-l)!, a product of l+1 consecutive integers
    fac = math.factorial
    d = fac(alpha + 1) * fac(2 * alpha + 1) * 4 ** (2 * alpha)
    c = [math.comb(2 * k, k) for k in range(alpha + 1)]  # g_k 4^k
    q = [d // (alpha + 1)] + [0] * alpha
    for l in range(1, alpha + 1, 2):
        e = fac(alpha) ** 2 * fac(alpha + 1) * fac(2 * alpha + 1) // ((l + 1) * fac(alpha - l) * fac(alpha + l + 1))
        e *= (-1) ** (l // 2) * (2 * l + 1) * c[l // 2] * 4 ** (2 * alpha - l // 2 - l)  # P_{l-1}(0) = +-g_{l//2}
        for k in range(l + 1):
            q[abs(l - 2 * k)] += e * c[k] * c[l - k]
    return q, d


@lru_cache(maxsize=None)
def _hemisphere_cos_coeffs(alpha: int) -> tuple[float, ...]:
    # each exact q_m rounded once, by a correctly rounded int / int division, then scaled by 2 pi
    numerators, d = _hemisphere_cos_fractions(alpha)
    return tuple(2.0 * math.pi * (n / d) for n in numerators)


def single_lobe_norm(mode: NormalizationMode, alpha: int, theta_i) -> np.ndarray:
    """Normalization of one lobe centered on the specular direction, per theta_i.

    theta_i is an array of incidence angles (rad); the result has its shape
    and is exact to rounding. The backscatter lobe has the same
    normalization by mirror symmetry of the hemisphere (or of the in-plane
    interval) about the surface normal.
    """
    _check_alpha("alpha", alpha)
    theta = np.asarray(theta_i, dtype=float)
    coeffs = _line_cos_coeffs(alpha) if mode is NormalizationMode.PAPER_LINE else _hemisphere_cos_coeffs(alpha)
    total = np.zeros_like(theta)
    for m, c in enumerate(coeffs):
        if c:  # the hemisphere's zero even terms
            total += c * np.cos(m * theta)
    return total


def normalization_f(params: LobeParams, theta_i: float, mode: NormalizationMode = NormalizationMode.HEMISPHERE) -> float:
    """Lobe-pattern normalization F of params.shape at one incidence angle.

    F = Lambda * F(alpha_r) + (1 - Lambda) * F(alpha_i), which is F(alpha_r) bit for bit at Lambda = 1.
    """
    if not 0.0 <= theta_i < math.pi / 2:
        raise ValueError(f"theta_i must be in [0, pi/2), got {theta_i}")
    alpha_r, alpha_i, lam = params.shape
    f_forward = float(single_lobe_norm(mode, alpha_r, theta_i))
    if lam == 1.0:
        return f_forward
    return lobe_mix(lam, f_forward, float(single_lobe_norm(mode, alpha_i, theta_i)))


def lobe_mix(lam, forward, backscatter, out=None, work=None):
    """Dual-lobe mix Lambda * forward + (1 - Lambda) * backscatter, of lobe gains or of normalizations.

    out, an array of the broadcast shape, receives the mix if given, the
    term of out's shape first (the forward one if both are): the sum commutes
    bit for bit, and the other term, which work receives if given, is smaller.
    """
    if out is None:
        return lam * forward + (1.0 - lam) * backscatter
    terms = [(lam, forward), (1.0 - lam, backscatter)]
    if np.shape(forward) != out.shape and np.shape(backscatter) == out.shape:
        terms.reverse()
    np.multiply(*terms[0], out=out)
    out += np.multiply(*terms[1], out=work)
    return out


def element_constant(link: RadioLink, r_i, r_s, cos_theta_i, area, out=None):
    """K^2 / (r_i r_s)^2 * A cos(theta_i) * G_r lambda^2 / (480 pi^2), per surface element.

    This is the received power without S^2, the lobe gain and F. It
    depends on the geometry only, so a scan pattern computes it once per
    tiling and receiver; the arguments broadcast together. out, an array
    of the broadcast shape, receives it if given.
    """
    rx_scale = link.g_r * link.wavelength**2 / (480.0 * math.pi**2)
    const = np.divide(link.k_const**2, np.square(np.multiply(r_i, r_s, out=out), out=out), out=out)
    for factor in (area, cos_theta_i, rx_scale):
        const = np.multiply(const, factor, out=out)
    return const


def mixed_power(const, lam, forward, backscatter, norm_r, norm_i, out=None, work=None):
    """Received diffuse power of surface elements per unit S^2, watts: const * gain / F at Lambda = lam.

    const is element_constant of the elements, and gain and F the lobe_mix of
    the gains forward, backscatter and of the norms norm_r, norm_i; the single
    lobe is lam = 1. The arguments broadcast together, the gains to the
    result's shape; scalars give a 0-d array. Only elementwise operations run,
    so reordered inputs give the same powers bit for bit. out, an array of the
    result's shape, receives them if given, and work the term lobe_mix passes
    to work; backscatter may serve as it.
    """
    gain = np.asarray(lobe_mix(lam, forward, backscatter, out=out, work=work))
    # into one buffer: below numpy's temporary-elision size, lam * a + (1 - lam) * b allocates three arrays
    norm = lobe_mix(lam, norm_r, norm_i, out=np.empty(np.broadcast_shapes(*map(np.shape, (lam, norm_r, norm_i)))))
    np.multiply(gain, const, out=gain)
    return np.divide(gain, norm, out=gain)


def pattern_sweep(
    material: Material,
    params: LobeParams,
    link: RadioLink,
    theta_grid_deg,
    mode: NormalizationMode = NormalizationMode.HEMISPHERE,
    polarization: Polarization = Polarization.TE,
    fixed_s: float | None = None,
) -> tuple[list[float], list[float]]:
    """Received scattered power in watts at each incidence angle of theta_grid_deg: (incident, specular).

    A unit-area surface element sits SWEEP_RANGE_M from both antennas; the
    receiver lies back along the incident direction (psi_i = 0,
    psi_r = 2 theta_i) or in the specular direction (psi_r = 0,
    psi_i = 2 theta_i). Unless fixed_s is given, the scattering
    coefficient is computed once per angle from the material's roughness
    and reflection coefficient; both directions share it, the
    normalizations and the element constant.
    """
    grid = list(theta_grid_deg)
    for theta_deg in grid:
        if not 0.0 < theta_deg < 90.0:
            raise ValueError(f"theta grid must lie within (0, 90) degrees, got {theta_deg}")
    theta = np.radians(np.array(grid, dtype=float))
    if fixed_s is None:
        s_value = np.array([
            initial_scattering_coefficient(
                material, IncidenceContext(theta_i=t, wavelength=link.wavelength, polarization=polarization)
            ).s_coeff
            for t in theta.tolist()
        ])
    else:
        s_value = replace(params, s_coeff=fixed_s).s_coeff
    off_axis = (1.0 + np.cos(2.0 * theta)) / 2.0
    alpha_r, alpha_i, lam = params.shape
    # row 0 the incident receiver, on the backscatter lobe's axis; row 1 the specular one, on the forward lobe's
    on_axis = np.ones_like(off_axis)
    forward, backscatter = np.stack([off_axis**alpha_r, on_axis]), np.stack([on_axis, off_axis**alpha_i])
    norm_r, norm_i = single_lobe_norm(mode, alpha_r, theta), single_lobe_norm(mode, alpha_i, theta)
    const = element_constant(link, SWEEP_RANGE_M, SWEEP_RANGE_M, np.cos(theta), 1.0)
    return tuple((s_value * s_value * mixed_power(const, lam, forward, backscatter, norm_r, norm_i)).tolist())
