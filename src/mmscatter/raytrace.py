"""Single-bounce simulation: specular image path plus tiled diffuse sum.

The wall is split into near-square tiles; every tile contributes incoherent
diffuse power through the active lobe model, and the image-method specular
path contributes Friis power weighted by |Gamma_rough|^2. Two gates emulate
the measurement's path selection: tiles whose path length leaves the delay
window around the strongest path are cut individually (5 ns, which is 1.5 m
of path length at SPEED_OF_LIGHT), and a whole path family (the specular
path, or the aggregated diffuse sum) is dropped when it falls more than
35 dB below the stronger one. ScanPattern.gate is the one place these rules live: it turns tile
powers into (total, specular, diffuse) watts per receiver, for predict and
for the fit's screen alike. Tile sums always run in tile-index order, so
identical inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import SPEED_OF_LIGHT, db_to_linear, watts_to_dbm
from .geometry import Scene, ScanSpec, SurfacePaths, height_m_to_cm, scan_positions, specular_paths
from .lobes import (
    LobeParams,
    NormalizationMode,
    RadioLink,
    element_constant,
    element_power,
    lobe_mix,
    single_lobe_norm,
)
from .materials import IncidenceContext, MaterialDatabase, Polarization, initial_scattering_coefficient

__all__ = [
    "SimRecord",
    "ScanPattern",
    "build_pattern",
    "simulate_scan",
    "power_gate",
    "POWER_GATE_DB",
    "DELAY_GATE_S",
    "MAX_PATHS",
]

POWER_GATE_DB = 35.0
DELAY_GATE_S = 5e-9
# the delay window as a path-length difference, m
_LENGTH_GATE = DELAY_GATE_S * SPEED_OF_LIGHT

# relative inflation of the anchor certificates, far above the few-ulp rounding
# of the tile powers that predict compares
_CERTIFICATE_MARGIN = 1e-9
# path lengths closer than this count as one length when the strongest tile
# anchors the delay window: far above the rounding of lengths of a few m, far
# below the spacing of distinct tile path lengths
_ANCHOR_TIE_M = 1e-9

DEFAULT_TILE_EDGE = 0.10
# the most receiver-tile paths one pattern may hold: receivers x wall area / tile edge^2
MAX_PATHS = 10_000_000


@dataclass(frozen=True)
class SimRecord:
    """One simulated scan sample; delta_h is carried in the scan-file unit (cm)."""

    azimuth_deg: float
    delta_h_cm: float
    power_dbm: float
    specular_dbm: float
    diffuse_dbm: float


def power_gate(spec_in_window, diff_sum):
    """(spec_w, diff_w): each path family is dropped when more than POWER_GATE_DB below the stronger one.

    The arguments are the in-window specular power and the delay-gated
    diffuse sum, in watts, as arrays of any one broadcastable shape.
    """
    threshold = np.maximum(spec_in_window, diff_sum) * db_to_linear(-POWER_GATE_DB)
    return np.where(spec_in_window >= threshold, spec_in_window, 0.0), np.where(diff_sum >= threshold, diff_sum, 0.0)


class ScanPattern:
    """Precomputed geometry/constants for a fixed scene, receiver set, and tiling.

    Evaluating a candidate LobeParams against the pattern is a handful of
    vectorized array operations, and the same evaluation path serves both
    scan simulation and fitting, so predicted powers are bit-identical
    across the two. The pattern also owns the fit's screen tables
    (shape_totals, which takes each candidate as a table column and an S
    value), so predict's delay window is decided in this module alone.
    """

    def __init__(self, mode, tile_theta, const, u_base, v_base, lengths, spec_power, spec_length):
        self.mode = mode
        self.tile_theta = tile_theta  # (T,)
        self._const = const  # (P, T): everything except S^2, lobe gain, normalization
        self._u = u_base  # (P, T): (1 + cos psi_r)/2
        self._v = v_base  # (P, T): (1 + cos psi_i)/2
        self._lengths = lengths  # (P, T): r_i + r_s
        self.spec_power = spec_power  # (P,): specular power, 0 where no specular point
        self._spec_length = spec_length  # (P,)
        self._width_cache: dict[tuple[str, int], np.ndarray] = {}
        self._shape_tables: dict[tuple, _ShapeTable] = {}

    @property
    def n_positions(self) -> int:
        return self._const.shape[0]

    @property
    def n_tiles(self) -> int:
        return self._const.shape[1]

    def _width_array(self, kind: str, alpha: int) -> np.ndarray:
        """The array of lobe width alpha, computed once per pattern.

        kind "norm" is the (T,) normalization, "u" and "v" the (P, T)
        forward and backscatter lobe gains; width 1 is the base array itself, as x ** 1 == x.
        """
        arr = self._width_cache.get((kind, alpha))
        if arr is None:
            if kind == "norm":
                arr = single_lobe_norm(self.mode, alpha, self.tile_theta)
            else:
                base = self._u if kind == "u" else self._v
                arr = base if alpha == 1 else base**alpha
            self._width_cache[kind, alpha] = arr
        return arr

    def tile_powers(self, s_value: float, alpha_r: int, alpha_i: int, lambdas, rows=slice(None), out=None):
        """(..., R, T) tile powers before gating, watts, of mixes `lambdas` of any shape (...) at the rows `rows`.

        (alpha_r, alpha_i, lambda) is a LobeParams.shape, so the single
        lobe is the mix-1 case. out, an array of the result's shape,
        receives the powers if given.
        """
        lam = np.asarray(lambdas, dtype=float)[..., None]
        norm = lobe_mix(lam, self._width_array("norm", alpha_r), self._width_array("norm", alpha_i))
        forward, backscatter = self._width_array("u", alpha_r)[rows], self._width_array("v", alpha_i)[rows]
        gain = lobe_mix(lam[..., None], forward, backscatter, out=out)
        return element_power(s_value, self._const[rows], gain, norm[..., None, :], out=gain)

    def predict(self, params: LobeParams):
        """Gated per-position powers: (total_w, spec_w, diff_w)."""
        return self.gate(self.tile_powers(params.s_coeff, *params.shape))

    def gate(self, tile_p: np.ndarray, rows=slice(None)):
        """Gate the tile powers `tile_p` (..., R, T) of the positions `rows`.

        Returns (total_w, spec_w, diff_w) per row, each of shape (..., R),
        with total_w = spec_w + diff_w; leading axes of tile_p batch several
        candidates over the same rows. The path-length (delay) gate cuts
        individual tiles: only surface elements whose path length sits
        within the window around the strongest path contribute. The power
        gate then de-noises whole paths: the specular path and the
        aggregated diffuse path are each dropped when more than
        POWER_GATE_DB below the stronger of the two; gating tiles
        individually would make the diffuse sum depend on the tiling, so the
        aggregate carries the rule.
        """
        spec_p = self.spec_power[rows]
        spec_len = self._spec_length[rows]
        lengths = self._lengths[rows]

        # the strongest single contribution anchors the delay window
        tile_max = tile_p.max(axis=-1)
        tile_best_len = lengths[np.arange(lengths.shape[0]), tile_p.argmax(axis=-1)]
        best_len = np.where(spec_p >= tile_max, spec_len, tile_best_len)

        # a path of zero power adds nothing, in the window or out of it
        work = np.subtract(lengths, best_len[..., None])
        tile_in = np.abs(work, out=work) <= _LENGTH_GATE
        spec_in = np.abs(spec_len - best_len) <= _LENGTH_GATE

        work.fill(0.0)
        np.copyto(work, tile_p, where=tile_in)
        diff_sum = work.sum(axis=-1)
        spec_w, diff_w = power_gate(np.where(spec_in, spec_p, 0.0), diff_sum)
        return spec_w + diff_w, spec_w, diff_w

    def shape_totals(self, grid, s_values, columns) -> np.ndarray:
        """Gated total watts (P, Q) of Q candidates: candidate q is shape columns[q] of grid at S s_values[q].

        grid is (alphas_r, alphas_i, lambdas), a grid of LobeParams.shape
        values whose product, in this order, numbers the columns; its
        tables are built once per pattern. Each entry equals predict's
        total for that candidate to rounding (about 1e-15): at each
        position the diffuse sum is s^2 times the table's window entry
        where s^2 is within the table's limit, and every other cell takes
        gate's total. One gate call serves the candidates of one S and
        width pair, but only their uncertified cells take its values, so
        column q depends on candidate q alone; see docs/stage_a_screen.md.
        """
        table = self._shape_tables.get(grid)
        if table is None:
            table = self._shape_tables[grid] = _ShapeTable(self, *grid)
        s_sq = np.square(s_values)
        spec_w, diff_w = power_gate(self.spec_power[:, None], s_sq * table.window[:, columns])
        total_w = spec_w + diff_w
        uncertified = s_sq > table.limit[:, columns]
        alphas_r, alphas_i, lambdas = grid
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for q in np.flatnonzero(uncertified.any(axis=0)).tolist():
            i_r, i_i, m = np.unravel_index(columns[q], (len(alphas_r), len(alphas_i), len(lambdas)))
            groups.setdefault((s_values[q], i_r, i_i), []).append((q, m))
        for (s_value, i_r, i_i), members in groups.items():
            qs, ms = map(list, zip(*members))
            rows = np.flatnonzero(uncertified[:, qs].any(axis=1))
            tile_p = self.tile_powers(s_value, alphas_r[i_r], alphas_i[i_i], [lambdas[m] for m in ms], rows)
            cells = np.ix_(rows, qs)
            total_w[cells] = np.where(uncertified[cells], self.gate(tile_p, rows)[0].T, total_w[cells])
        return total_w


def _specular_window_sums(pattern: ScanPattern, alphas_r, alphas_i, lambdas):
    """Specular-window sums and pure-lobe peaks per unit S^2 of a dual-lobe shape grid, one pass per lobe width.

    Returns sums (P, Ar, Ai, L), each shape's diffuse sum over the tiles in
    the delay window around the specular path, and peaks_r (P, Ar) and
    peaks_i (P, Ai), each pure lobe's largest tile power over all tiles
    (0 for a lobe of weight zero in every mix); see docs/stage_a_screen.md.
    """
    norms_r = np.array([pattern._width_array("norm", a) for a in alphas_r])  # (Ar, T)
    norms_i = np.array([pattern._width_array("norm", a) for a in alphas_i])  # (Ai, T)
    outside = np.abs(pattern._lengths - pattern._spec_length[:, None]) > _LENGTH_GATE
    n_pos = pattern.n_positions
    sums = np.zeros((n_pos, len(alphas_r), len(alphas_i), len(lambdas)))
    peaks_r, peaks_i = np.zeros((n_pos, len(alphas_r))), np.zeros((n_pos, len(alphas_i)))
    gain, tile_p = np.empty_like(pattern._const), np.empty_like(pattern._const)
    forward = [(m, lam) for m, lam in enumerate(lambdas) if lam > 0.0]
    backscatter = [(m, lam) for m, lam in enumerate(lambdas) if lam < 1.0]
    for k, a in enumerate(alphas_r if forward else ()):
        np.multiply(pattern._const, pattern._width_array("u", a), out=gain)
        peaks_r[:, k] = np.divide(gain, norms_r[k], out=tile_p).max(axis=1)
        np.copyto(gain, 0.0, where=outside)
        for m, lam in forward:
            sums[:, k, :, m] += lam * (gain @ np.reciprocal(lobe_mix(lam, norms_r[k], norms_i)).T)
    for k, a in enumerate(alphas_i if backscatter else ()):
        np.multiply(pattern._const, pattern._width_array("v", a), out=gain)
        peaks_i[:, k] = np.divide(gain, norms_i[k], out=tile_p).max(axis=1)
        np.copyto(gain, 0.0, where=outside)
        for m, lam in backscatter:
            sums[:, :, k, m] += (1.0 - lam) * (gain @ np.reciprocal(lobe_mix(lam, norms_r, norms_i[k])).T)
    return sums, peaks_r, peaks_i


def _tile_window_sums(pattern: ScanPattern, alphas_r, alphas_i, lambdas, rows):
    """Dual-lobe diffuse sums per unit S^2 in the strongest tile's delay window, with a certificate.

    For receivers with no specular path (spec_power 0) predict anchors
    the delay window on the strongest tile. Scaling by S^2 does not
    move it, so one pass at unit S serves every S. Returns two
    (R, Ar, Ai, L) arrays over the positions `rows`, indexed like
    _specular_window_sums: the window sums, and where they are certified.
    An entry is certified when the strongest tile outweighs every tile
    of a different path length (more than _ANCHOR_TIE_M apart) by
    (1 + _CERTIFICATE_MARGIN), and no tile lies within 2 _ANCHOR_TIE_M of
    the window edge. Rounding of the S^2 scaling can then only move the
    anchor among tiles of one path length (mirror images tie exactly),
    which leaves the window unchanged, so s^2 times a certified entry is
    the diffuse sum predict gates.

    The pass runs one width pair at a time, on the tiles of each row in
    path-length order: there the window and the tie band of an anchor
    are index ranges, found once per row.
    """
    lengths = pattern._lengths[rows]  # (R, T)
    n_rows, n_tiles = lengths.shape
    n_lam = len(lambdas)
    gate = _LENGTH_GATE
    tie = _ANCHOR_TIE_M
    order = np.argsort(lengths, axis=-1, kind="stable")
    # per row and length rank of the anchor: the window [lo, hi), the tie
    # band [band_lo, band_hi), and the count of tiles near the window edge
    lo, hi, band_lo, band_hi, at_edge = (np.empty((n_rows, n_tiles), dtype=np.intp) for _ in range(5))
    for r, ranked in enumerate(np.take_along_axis(lengths, order, axis=-1)):
        lo[r], hi[r] = np.searchsorted(ranked, ranked - gate), np.searchsorted(ranked, ranked + gate, "right")
        band_lo[r] = np.searchsorted(ranked, ranked - tie)
        band_hi[r] = np.searchsorted(ranked, ranked + tie, "right")
        at_edge[r] = sum(
            np.searchsorted(ranked, edge + 2.0 * tie, "right") - np.searchsorted(ranked, edge - 2.0 * tie)
            for edge in (ranked - gate, ranked + gate)
        )
    flat_order = (order + n_tiles * np.arange(n_rows)[:, None]).ravel()
    base = n_tiles * np.arange(n_lam * n_rows).reshape(n_lam, n_rows)
    row = np.arange(n_rows)
    band = np.arange((band_hi - band_lo).max())
    tile_p = np.empty((n_lam, n_rows, n_tiles))
    # one spare zero past the end keeps every window end a valid index of reduceat
    flat = np.zeros(tile_p.size + 1)
    ranked_p = flat[:-1].reshape(n_lam, n_rows, n_tiles)
    shape = (len(alphas_r), len(alphas_i), n_lam, n_rows)
    sums = np.empty(shape)
    certified = np.empty(shape, dtype=bool)
    for i, a_r in enumerate(alphas_r):
        for j, a_i in enumerate(alphas_i):
            pattern.tile_powers(1.0, a_r, a_i, lambdas, rows, out=tile_p)
            np.take(tile_p.reshape(n_lam, -1), flat_order, axis=1, out=ranked_p.reshape(n_lam, -1), mode="clip")
            k = ranked_p.argmax(axis=-1)  # (L, R): the anchor's length rank
            top = np.take_along_axis(ranked_p, k[..., None], axis=-1)[..., 0]
            windows = np.stack([base + lo[row, k], base + hi[row, k]], axis=-1)
            sums[i, j] = np.add.reduceat(flat, windows.ravel())[::2].reshape(n_lam, n_rows)
            # zero the anchor's tie band; the largest tile left is its rival
            flat[base[..., None] + np.minimum(band_lo[row, k, None] + band, band_hi[row, k, None] - 1)] = 0.0
            rival = ranked_p.max(axis=-1)
            certified[i, j] = (top >= (1.0 + _CERTIFICATE_MARGIN) * rival) & (at_edge[row, k] == 0)
    return sums.transpose(3, 0, 1, 2), certified.transpose(3, 0, 1, 2)


class _ShapeTable:
    """Per-unit-S^2 tables of a grid of dual-lobe shapes, built once per pattern and grid.

    Column n is shape n of the product alphas_r x alphas_i x lambdas, in
    that order; each shape is a LobeParams.shape (alpha_r, alpha_i, lambda).
    window[p, n] is the diffuse sum in the delay window that
    predict anchors at position p: on the specular path where there is
    one, else on the strongest tile. limit[p, n] is the largest S^2 at
    which s^2 * window[p, n] is the diffuse sum that predict gates: the
    specular power over (1 + _CERTIFICATE_MARGIN) times a bound on every
    tile power, or with no specular path +inf or -inf as the tile-anchor
    certificate holds or not.
    """

    def __init__(self, pattern: ScanPattern, alphas_r, alphas_i, lambdas):
        lam = np.asarray(lambdas)
        window, peaks_r, peaks_i = _specular_window_sums(pattern, alphas_r, alphas_i, lambdas)  # (P, Ar, Ai, L)
        # a dual-lobe tile power is a mediant of the two pure ones; a lobe of weight zero bounds nothing
        bound = np.maximum(
            np.where(lam > 0.0, peaks_r[:, :, None, None], 0.0), np.where(lam < 1.0, peaks_i[:, None, :, None], 0.0)
        )
        spec = pattern.spec_power[:, None, None, None]
        # the rows with no specular path are set below; a bound of 0 certifies every S
        with np.errstate(divide="ignore"):
            limit = np.divide(spec, (1.0 + _CERTIFICATE_MARGIN) * bound, out=np.zeros_like(window), where=spec > 0.0)
        self.window, self.limit = window.reshape(len(window), -1), limit.reshape(len(limit), -1)
        rows = np.flatnonzero(pattern.spec_power == 0.0)
        if rows.size:
            sums, certified = _tile_window_sums(pattern, alphas_r, alphas_i, lambdas, rows)
            self.window[rows] = sums.reshape(rows.size, -1)
            self.limit[rows] = np.where(certified.reshape(rows.size, -1), np.inf, -np.inf)


def tile_centers(scene: Scene, tile_edge: float, receivers: int = 1) -> tuple[np.ndarray, float]:
    """Tile-center positions (T, 3) in row-major (height, width) order, plus tile area.

    A tiling that would give the receivers more than MAX_PATHS paths is an input error.
    """
    if not 0.0 < tile_edge < math.inf:
        raise ValueError(f"tile edge must be > 0 m and finite, got {tile_edge}")
    wall = scene.wall
    # counted in floats, which a tiny edge takes to inf where math.ceil would raise
    across, up = wall.width / tile_edge, wall.height / tile_edge
    if not receivers * across * up <= MAX_PATHS:
        tiles = f"{receivers} receivers x {across * up:.6g} tiles"
        raise ValueError(f"tile edge {tile_edge} m gives {tiles}, more than {MAX_PATHS:,} paths")
    n_u = max(1, math.ceil(across))
    n_w = max(1, math.ceil(up))
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
    materials: MaterialDatabase,
    tile_edge: float = DEFAULT_TILE_EDGE,
    mode: NormalizationMode = NormalizationMode.HEMISPHERE,
    polarization: Polarization = Polarization.TE,
) -> ScanPattern:
    """Precompute per-tile geometry and constants for a set of receivers."""
    material = materials.get(scene.wall.material)
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    if rx.shape[1] != 3:
        raise ValueError("rx_positions must be (P, 3)")
    n_pos = rx.shape[0]
    centers, area = tile_centers(scene, tile_edge, n_pos)
    paths = SurfacePaths(scene.tx, centers, scene.wall.normal)

    n_tiles = centers.shape[0]
    const = np.empty((n_pos, n_tiles))
    u_base = np.empty((n_pos, n_tiles))
    v_base = np.empty((n_pos, n_tiles))
    lengths = np.empty((n_pos, n_tiles))
    for p in range(n_pos):
        r_s, cos_psi_r, cos_psi_i = paths.receiver(rx[p])
        for row, cos_psi in ((u_base[p], cos_psi_r), (v_base[p], cos_psi_i)):
            np.divide(np.add(1.0, cos_psi, out=row), 2.0, out=row)
        np.add(paths.r_i, r_s, out=lengths[p])
        const[p] = element_constant(link, paths.r_i, r_s, paths.cos_ti, area)

    spec_length, spec_cos = specular_paths(scene.tx, rx, scene.wall)
    spec_power = np.zeros(n_pos)
    for p in np.flatnonzero(spec_length).tolist():
        length, cos_theta = float(spec_length[p]), float(spec_cos[p])
        ctx = IncidenceContext(math.acos(min(1.0, cos_theta)), link.wavelength, polarization)
        rough = initial_scattering_coefficient(material, ctx).gamma_rough
        spec_power[p] = link.friis_power(length) * rough * rough

    return ScanPattern(
        mode=mode,
        tile_theta=np.arccos(paths.cos_ti),
        const=const,
        u_base=u_base,
        v_base=v_base,
        lengths=lengths,
        spec_power=spec_power,
        spec_length=spec_length,
    )


def simulate_scan(
    scene: Scene,
    scanspec: ScanSpec,
    lobe_params: LobeParams,
    link: RadioLink,
    materials: MaterialDatabase,
    tile_edge: float = DEFAULT_TILE_EDGE,
    mode: NormalizationMode = NormalizationMode.HEMISPHERE,
    polarization: Polarization = Polarization.TE,
) -> list[SimRecord]:
    """Simulated scan over the arc/semicylinder, ordered by (delta_h, azimuth)."""
    keys, positions = scan_positions(scene, scanspec)
    pattern = build_pattern(scene, positions, link, materials, tile_edge, mode, polarization)
    total_w, spec_w, diff_w = pattern.predict(lobe_params)
    return [
        SimRecord(
            azimuth_deg=az,
            delta_h_cm=height_m_to_cm(dh),
            power_dbm=watts_to_dbm(float(total)),
            specular_dbm=watts_to_dbm(float(spec)),
            diffuse_dbm=watts_to_dbm(float(diff)),
        )
        for (az, dh), total, spec, diff in zip(keys, total_w, spec_w, diff_w)
    ]
