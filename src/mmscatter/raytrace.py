"""Single-bounce simulation: specular image path plus tiled diffuse sum.

The wall is split into near-square tiles; every tile contributes incoherent
diffuse power through the active lobe model, and the image-method specular
path contributes Friis power weighted by |Gamma_rough|^2. Two gates emulate
the measurement's path selection: tiles whose path length leaves the delay
window around the strongest path are cut individually (the 5 ns and 1.5 m
readings coincide at the wavelength convention used here; the stricter one
applies), and a whole path family (the specular path, or the aggregated
diffuse sum) is dropped when it falls more than 35 dB below the stronger
one. Tile sums always run in tile-index order, so identical inputs give
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import SPEED_OF_LIGHT, watts_to_dbm
from .fileio import height_m_to_cm
from .geometry import Scene, ScanSpec, SurfacePaths, scan_positions, specular_point
from .lobes import (
    LobeModel,
    LobeParams,
    NormalizationMode,
    RadioLink,
    element_constant,
    element_power,
    lobe_mix,
    single_lobe_norm,
)
from .materials import Material, MaterialDatabase, Polarization, fresnel_gamma, rayleigh_factor

__all__ = [
    "PathKind",
    "PathContribution",
    "GatingReport",
    "SimResult",
    "SimRecord",
    "ConvergenceReport",
    "ScanPattern",
    "build_pattern",
    "simulate_point",
    "simulate_scan",
    "convergence_probe",
    "power_gate",
    "POWER_GATE_DB",
    "LENGTH_GATE_M",
    "DELAY_GATE_S",
]

POWER_GATE_DB = 35.0
LENGTH_GATE_M = 1.5
DELAY_GATE_S = 5e-9

DEFAULT_TILE_EDGE = 0.10
CONVERGENCE_EDGES = (0.4, 0.2, 0.1, 0.05, 0.025)
CONVERGENCE_TOL_DB = 0.1


def _length_gate() -> float:
    # both gates implemented; the stricter one applies
    return min(LENGTH_GATE_M, DELAY_GATE_S * SPEED_OF_LIGHT)


class PathKind(Enum):
    SPECULAR = "specular"
    DIFFUSE = "diffuse"


@dataclass(frozen=True)
class PathContribution:
    kind: PathKind
    patch_id: int | None
    power: float
    path_length: float
    excess_delay: float


@dataclass(frozen=True)
class GatingReport:
    dropped_power: int
    dropped_delay: int
    retained: int


@dataclass(frozen=True)
class SimResult:
    total_power_dbm: float
    specular_power_dbm: float
    diffuse_power_dbm: float
    contributions: tuple[PathContribution, ...]
    gating_report: GatingReport


@dataclass(frozen=True)
class SimRecord:
    """One simulated scan sample; delta_h is carried in the scan-file unit (cm)."""

    azimuth_deg: float
    delta_h_cm: float
    power_dbm: float
    specular_dbm: float
    diffuse_dbm: float


@dataclass(frozen=True)
class ConvergenceReport:
    entries: tuple[tuple[float, float], ...]
    converged: bool


def power_gate(spec_in_window, diff_sum, power_gate_db: float = POWER_GATE_DB):
    """(spec_w, diff_w): each path family is dropped when more than power_gate_db below the stronger one.

    The arguments are the in-window specular power and the delay-gated
    diffuse sum, in watts, as arrays of any one broadcastable shape.
    """
    threshold = np.maximum(spec_in_window, diff_sum) * 10.0 ** (-power_gate_db / 10.0)
    return np.where(spec_in_window >= threshold, spec_in_window, 0.0), np.where(diff_sum >= threshold, diff_sum, 0.0)


def _resolve_material(materials: MaterialDatabase | Material, name: str) -> Material:
    if isinstance(materials, Material):
        return materials
    return materials.get(name)


class ScanPattern:
    """Precomputed geometry/constants for a fixed scene, receiver set, and tiling.

    Evaluating a candidate LobeParams against the pattern is a handful of
    vectorized array operations, and the same evaluation path serves both
    scan simulation and fitting, so predicted powers are bit-identical
    across the two.
    """

    def __init__(self, scene, link, mode, tile_theta, tile_area, const, u_base, v_base, lengths, spec_power, spec_length):
        self.scene = scene
        self.link = link
        self.mode = mode
        self.tile_theta = tile_theta  # (T,)
        self.tile_area = tile_area
        self._const = const  # (P, T): everything except S^2, lobe gain, normalization
        self._u = u_base  # (P, T): (1 + cos psi_r)/2
        self._v = v_base  # (P, T): (1 + cos psi_i)/2
        self._lengths = lengths  # (P, T): r_i + r_s
        self.spec_power = spec_power  # (P,): specular power, 0 where no specular point
        self._spec_length = spec_length  # (P,)
        self._norm_cache: dict[int, np.ndarray] = {}
        self._u_pow: dict[int, np.ndarray] = {}
        self._v_pow: dict[int, np.ndarray] = {}

    @property
    def n_positions(self) -> int:
        return self._const.shape[0]

    @property
    def n_tiles(self) -> int:
        return self._const.shape[1]

    def _norms(self, alpha: int) -> np.ndarray:
        table = self._norm_cache.get(alpha)
        if table is None:
            table = single_lobe_norm(self.mode, alpha, self.tile_theta)
            self._norm_cache[alpha] = table
        return table

    def _u_power(self, alpha: int) -> np.ndarray:
        arr = self._u_pow.get(alpha)
        if arr is None:
            arr = self._u**alpha
            self._u_pow[alpha] = arr
        return arr

    def _v_power(self, alpha: int) -> np.ndarray:
        arr = self._v_pow.get(alpha)
        if arr is None:
            arr = self._v**alpha
            self._v_pow[alpha] = arr
        return arr

    def tile_powers(self, params: LobeParams, rows=slice(None)) -> np.ndarray:
        """(R, T) diffuse power per tile before gating, watts, at the positions `rows` (default all)."""
        if params.model is LobeModel.DUAL_LOBE:
            return self.dual_tile_powers(params.s_coeff, params.alpha_r, params.alpha_i, params.lambda_mix, rows)
        alpha = params.alpha_r
        return element_power(params.s_coeff, self._const[rows], self._u_power(alpha)[rows], self._norms(alpha))

    def dual_tile_powers(self, s_value: float, alpha_r: int, alpha_i: int, lambdas, rows=slice(None)) -> np.ndarray:
        """(..., R, T) dual-lobe tile powers, watts, for mixes `lambdas` of any shape (...) at the positions `rows`."""
        lam = np.asarray(lambdas, dtype=float)[..., None]
        norm = lobe_mix(lam, self._norms(alpha_r), self._norms(alpha_i))
        gain = lobe_mix(lam[..., None], self._u_power(alpha_r)[rows], self._v_power(alpha_i)[rows])
        return element_power(s_value, self._const[rows], gain, norm[..., None, :])

    def predict(self, params: LobeParams, power_gate_db: float = POWER_GATE_DB):
        """Gated per-position powers: (total_w, spec_w, diff_w, dropped_power, dropped_delay)."""
        return self.gate(self.tile_powers(params), power_gate_db=power_gate_db)

    def gate(self, tile_p: np.ndarray, rows=slice(None), power_gate_db: float = POWER_GATE_DB):
        """Gate the tile powers `tile_p` (..., R, T) of the positions `rows`.

        Returns (total_w, spec_w, diff_w, dropped_power, dropped_delay) per
        row, each of shape (..., R); leading axes of tile_p batch several
        candidates over the same rows. The path-length (delay) gate cuts
        individual tiles: only surface elements whose path length sits
        within the window around the strongest path contribute. The power
        gate then de-noises whole paths: the specular path and the
        aggregated diffuse path are each dropped when more than
        power_gate_db below the stronger of the two; gating tiles
        individually would make the diffuse sum depend on the tiling, so the
        aggregate carries the rule.
        """
        return self._gate(tile_p, rows, power_gate_db)[0]

    def _gate(self, tile_p: np.ndarray, rows, power_gate_db: float):
        """gate's result plus the delay window it applied.

        Returns (gated, best_len, tile_in): gate's five arrays, the anchor
        path length (..., R), and the live tiles inside the window (..., R, T).
        """
        spec_p = self.spec_power[rows]
        spec_len = self._spec_length[rows]
        lengths = self._lengths[rows]
        length_gate = _length_gate()

        # the strongest single contribution anchors the delay window
        tile_max = tile_p.max(axis=-1)
        tile_best_len = lengths[np.arange(lengths.shape[0]), tile_p.argmax(axis=-1)]
        best_len = np.where(spec_p >= tile_max, spec_len, tile_best_len)

        tile_alive = tile_p > 0.0
        tile_in = tile_alive & (np.abs(lengths - best_len[..., None]) <= length_gate)
        spec_alive = spec_p > 0.0
        spec_in = spec_alive & (np.abs(spec_len - best_len) <= length_gate)

        diff_sum = np.where(tile_in, tile_p, 0.0).sum(axis=-1)
        spec_in_window = np.where(spec_in, spec_p, 0.0)
        spec_w, diff_w = power_gate(spec_in_window, diff_sum, power_gate_db)

        dropped_delay = (tile_alive & ~tile_in).sum(axis=-1) + (spec_alive & ~spec_in)
        dropped_power = np.where((diff_sum > 0.0) & (diff_w == 0.0), tile_in.sum(axis=-1), 0) + (
            (spec_in_window > 0.0) & (spec_w == 0.0)
        )
        return (spec_w + diff_w, spec_w, diff_w, dropped_power, dropped_delay), best_len, tile_in

    def lobe_peaks(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Largest tile power per unit S^2 of each pure lobe: two (len(alphas), P) arrays.

        The first holds the forward lobe (lambda 1) of each width, the second
        the backscatter lobe (lambda 0). A dual-lobe tile power is a mediant
        of the two pure ones, so for widths (a_r, a_i) and any mix no tile
        carries more than S^2 * max(forward[a_r], backscatter[a_i]).
        """
        forward = [element_power(1.0, self._const, self._u_power(a), self._norms(a)).max(axis=1) for a in alphas]
        backscatter = [element_power(1.0, self._const, self._v_power(a), self._norms(a)).max(axis=1) for a in alphas]
        return np.array(forward), np.array(backscatter)

    def specular_window_sums(self, alphas, lambdas) -> np.ndarray:
        """Dual-lobe diffuse sums per unit S^2 in the specular delay window: (P, A, A, L).

        Entry [p, i, j, l] sums the tile powers of forward width alphas[i],
        backscatter width alphas[j] and mix lambdas[l] over the tiles whose
        path length lies within the window around the specular path. Where
        the specular path anchors the window this is the diffuse sum that
        predict gates. With the window fixed the sum is linear in the two
        lobe gains, so each lobe of each width and mix takes one matrix
        product against the reciprocal mixed normalizations of all the
        widths of the other lobe.
        """
        norms = np.array([self._norms(a) for a in alphas])  # (A, T)
        window = np.abs(self._lengths - self._spec_length[:, None]) <= _length_gate()
        const_in_window = np.where(window, self._const, 0.0)
        sums = np.zeros((const_in_window.shape[0], len(alphas), len(alphas), len(lambdas)))
        gain = np.empty_like(const_in_window)
        for k, a in enumerate(alphas):
            np.multiply(const_in_window, self._u_power(a), out=gain)
            for m, lam in enumerate(lambdas):
                sums[:, k, :, m] += lam * (gain @ np.reciprocal(lam * norms[k] + (1.0 - lam) * norms).T)
            np.multiply(const_in_window, self._v_power(a), out=gain)
            for m, lam in enumerate(lambdas):
                sums[:, :, k, m] += (1.0 - lam) * (gain @ np.reciprocal(lam * norms + (1.0 - lam) * norms[k]).T)
        return sums

    def contributions(
        self, params: LobeParams, position: int, power_gate_db: float = POWER_GATE_DB
    ) -> tuple[tuple[PathContribution, ...], GatingReport]:
        """Retained contributions at one receiver, in specular-then-tile order."""
        return self._explain(params, position, power_gate_db)[1:]

    def _explain(self, params: LobeParams, position: int, power_gate_db: float = POWER_GATE_DB):
        """Gate one receiver: (gate's five arrays of shape (1,), retained contributions, GatingReport)."""
        rows = slice(position, position + 1)
        tile_p = self.tile_powers(params, rows)
        gated, best_len, tile_in = self._gate(tile_p, rows, power_gate_db)
        _, spec_w, diff_w, dropped_power, dropped_delay = gated
        anchor = float(best_len[0])
        kept: list[PathContribution] = []
        if spec_w[0] > 0.0:
            length = float(self._spec_length[position])
            kept.append(
                PathContribution(
                    kind=PathKind.SPECULAR,
                    patch_id=None,
                    power=float(spec_w[0]),
                    path_length=length,
                    excess_delay=(length - anchor) / SPEED_OF_LIGHT,
                )
            )
        if diff_w[0] > 0.0:
            for t in np.flatnonzero(tile_in[0]).tolist():
                length = float(self._lengths[position, t])
                kept.append(
                    PathContribution(
                        kind=PathKind.DIFFUSE,
                        patch_id=t,
                        power=float(tile_p[0, t]),
                        path_length=length,
                        excess_delay=(length - anchor) / SPEED_OF_LIGHT,
                    )
                )
        report = GatingReport(
            dropped_power=int(dropped_power[0]), dropped_delay=int(dropped_delay[0]), retained=len(kept)
        )
        return gated, tuple(kept), report


def tile_centers(scene: Scene, tile_edge: float) -> tuple[np.ndarray, float]:
    """Tile-center positions (T, 3) in row-major (height, width) order, plus tile area."""
    if tile_edge <= 0.0:
        raise ValueError(f"tile edge must be > 0 m, got {tile_edge}")
    wall = scene.wall
    n_u = max(1, math.ceil(wall.width / tile_edge))
    n_w = max(1, math.ceil(wall.height / tile_edge))
    du = wall.width / n_u
    dw = wall.height / n_w
    off_u = -wall.width / 2.0 + (np.arange(n_u) + 0.5) * du
    off_w = -wall.height / 2.0 + (np.arange(n_w) + 0.5) * dw
    centers = wall.center + off_u[None, :, None] * wall.u_axis + off_w[:, None, None] * wall.w_axis
    return centers.reshape(-1, 3), du * dw


def build_pattern(
    scene: Scene,
    rx_positions: np.ndarray,
    link: RadioLink,
    materials: MaterialDatabase | Material,
    tile_edge: float = DEFAULT_TILE_EDGE,
    mode: NormalizationMode = NormalizationMode.HEMISPHERE,
    polarization: Polarization = Polarization.TE,
) -> ScanPattern:
    """Precompute per-tile geometry and constants for a set of receivers."""
    material = _resolve_material(materials, scene.wall.material)
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    if rx.shape[1] != 3:
        raise ValueError("rx_positions must be (P, 3)")
    wall = scene.wall
    n = wall.normal
    tx = scene.tx
    centers, area = tile_centers(scene, tile_edge)
    paths = SurfacePaths(tx, centers, n)

    n_pos = rx.shape[0]
    n_tiles = centers.shape[0]
    const = np.empty((n_pos, n_tiles))
    u_base = np.empty((n_pos, n_tiles))
    v_base = np.empty((n_pos, n_tiles))
    lengths = np.empty((n_pos, n_tiles))
    spec_power = np.zeros(n_pos)
    spec_length = np.zeros(n_pos)

    for p in range(n_pos):
        rp = rx[p]
        r_s, _, cos_psi_r, cos_psi_i = paths.receiver(rp)
        u_base[p] = (1.0 + cos_psi_r) / 2.0
        v_base[p] = (1.0 + cos_psi_i) / 2.0
        lengths[p] = paths.r_i + r_s
        const[p] = element_constant(link, paths.r_i, r_s, paths.cos_ti, area)

        sp = specular_point(tx, rp, wall)
        if sp is not None:
            d_in = sp - tx
            d_out = rp - sp
            len_in = float(np.linalg.norm(d_in))
            len_out = float(np.linalg.norm(d_out))
            cos_sp = -float(np.dot(d_in, n)) / len_in if len_in > 0.0 else 0.0
            # a reflection point at either antenna, or at grazing, is degenerate
            if len_in > 1e-12 and len_out > 1e-12 and cos_sp > 1e-12:
                path_len = len_in + len_out
                theta_sp = math.acos(min(1.0, cos_sp))
                gamma = fresnel_gamma(material.eps_r, theta_sp, polarization)
                rough = rayleigh_factor(material.h_rms, theta_sp, link.wavelength) * gamma
                friis = link.p_t * link.g_t * link.g_r * (link.wavelength / (4.0 * math.pi * path_len)) ** 2
                spec_power[p] = friis * rough * rough
                spec_length[p] = path_len

    return ScanPattern(
        scene=scene,
        link=link,
        mode=mode,
        tile_theta=np.arccos(paths.cos_ti),
        tile_area=area,
        const=const,
        u_base=u_base,
        v_base=v_base,
        lengths=lengths,
        spec_power=spec_power,
        spec_length=spec_length,
    )


def simulate_point(
    scene: Scene,
    rx: np.ndarray,
    lobe_params: LobeParams,
    link: RadioLink,
    materials: MaterialDatabase | Material,
    tile_edge: float = DEFAULT_TILE_EDGE,
    mode: NormalizationMode = NormalizationMode.HEMISPHERE,
    polarization: Polarization = Polarization.TE,
) -> SimResult:
    """Total, specular, and diffuse received power at one receiver position."""
    pattern = build_pattern(scene, np.asarray(rx, dtype=float)[None, :], link, materials, tile_edge, mode, polarization)
    (total_w, spec_w, diff_w, _, _), kept, report = pattern._explain(lobe_params, 0)
    return SimResult(
        total_power_dbm=watts_to_dbm(float(total_w[0])),
        specular_power_dbm=watts_to_dbm(float(spec_w[0])),
        diffuse_power_dbm=watts_to_dbm(float(diff_w[0])),
        contributions=kept,
        gating_report=report,
    )


def simulate_scan(
    scene: Scene,
    scanspec: ScanSpec,
    lobe_params: LobeParams,
    link: RadioLink,
    materials: MaterialDatabase | Material,
    tile_edge: float = DEFAULT_TILE_EDGE,
    mode: NormalizationMode = NormalizationMode.HEMISPHERE,
    polarization: Polarization = Polarization.TE,
) -> list[SimRecord]:
    """Simulated scan over the arc/semicylinder, ordered by (delta_h, azimuth)."""
    positions = scan_positions(scene, scanspec)
    pattern = build_pattern(
        scene, np.array([p.position for p in positions]), link, materials, tile_edge, mode, polarization
    )
    total_w, spec_w, diff_w, _, _ = pattern.predict(lobe_params)
    records = []
    for i, pos in enumerate(positions):
        records.append(
            SimRecord(
                azimuth_deg=pos.azimuth_deg,
                delta_h_cm=height_m_to_cm(pos.delta_h),
                power_dbm=watts_to_dbm(float(total_w[i])),
                specular_dbm=watts_to_dbm(float(spec_w[i])),
                diffuse_dbm=watts_to_dbm(float(diff_w[i])),
            )
        )
    return records


def convergence_probe(
    scene: Scene,
    rx: np.ndarray,
    params: LobeParams,
    link: RadioLink,
    materials: MaterialDatabase | Material,
    edges: tuple[float, ...] = CONVERGENCE_EDGES,
    mode: NormalizationMode = NormalizationMode.HEMISPHERE,
    polarization: Polarization = Polarization.TE,
) -> ConvergenceReport:
    """Total power versus tile edge; converged when the last halving moves < 0.1 dB."""
    entries = []
    rx_arr = np.asarray(rx, dtype=float)[None, :]
    for edge in edges:
        pattern = build_pattern(scene, rx_arr, link, materials, edge, mode, polarization)
        total_w, _, _, _, _ = pattern.predict(params)
        entries.append((edge, float(total_w[0])))
    last, prev = entries[-1][1], entries[-2][1]
    if last == 0.0 and prev == 0.0:
        converged = True
    elif last == 0.0 or prev == 0.0:
        converged = False
    else:
        converged = abs(10.0 * math.log10(prev / last)) < CONVERGENCE_TOL_DB
    return ConvergenceReport(entries=tuple(entries), converged=converged)
