"""Single-bounce simulation: specular image path plus tiled diffuse sum.

The wall is split into near-square tiles; every tile contributes incoherent
diffuse power through the active lobe model, and the image-method specular
path contributes Friis power weighted by |Gamma_rough|^2. Two gates emulate
the measurement's path selection: tiles whose path length leaves the delay
window around the strongest path are cut individually (5 ns, which is 1.5 m
of path length at SPEED_OF_LIGHT), and a whole path family (the specular
path, or the aggregated diffuse sum) is dropped when it falls more than
35 dB below the stronger one. ScanPattern.gate applies these rules for predict
and the screen's uncertified cells; the screen's tables encode the delay window
too, as a mask (_specular_window_sums) and as ranked windows with an edge margin
(_tile_window_sums). predict sums tiles in tile-index order, the tables in fixed
orders, so identical inputs give bit-identical results. Every per-row pass
(build_pattern, predict, the two table passes) works in blocks of whole receiver
rows, at most _BLOCK_PATHS paths each, so its temporaries take a block's memory;
every step is elementwise or reduces along one row, so a row's values do not
depend on its block. Only the operand of _specular_window_sums' matrix products
is a whole (P, T) array: BLAS may round a product over fewer rows differently.
The fit keeps build_pattern's whole pattern, which it predicts and screens many
times; simulate_scan reads each row once, so it builds and predicts one block at
a time. Both run one row code (_Tiling.pattern) and refill one 3-array block
workspace: receiver writes r_s and both lobe cosines into the pattern's own
path-length and lobe-base rows, which become those in place, with its C row as
scratch, and simulate_scan's predict puts its lobe gains and gate's buffer there,
so a block takes 7 float64 arrays and gate's bool tile mask.
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
    lobe_mix,
    mixed_power,
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
# build_pattern and predict work on whole rows of at most this many paths, 256 KB of float64
_BLOCK_PATHS = 1 << 15


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices covering n_rows, each at most _BLOCK_PATHS entries of n_cols, and at least one row."""
    step = max(1, _BLOCK_PATHS // n_cols)
    return [slice(start, min(start + step, n_rows)) for start in range(0, n_rows, step)]


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
    It keeps 32 B per path (C, U, V and the path length) and per lobe
    width only the (T,) normalization: each pass forms the lobe gains
    U^alpha and V^alpha that it uses. simulate_scan makes one pattern per
    block of receiver rows, and they share one dict of norms.
    """

    def __init__(self, mode, tile_theta, const, u_base, v_base, lengths, spec_power, spec_length, norms=None):
        self.mode = mode
        self.tile_theta = tile_theta  # (T,)
        self._const = const  # (P, T): everything except S^2, lobe gain, normalization
        self._u = u_base  # (P, T): (1 + cos psi_r)/2
        self._v = v_base  # (P, T): (1 + cos psi_i)/2
        self._lengths = lengths  # (P, T): r_i + r_s
        self.spec_power = spec_power  # (P,): specular power, 0 where no specular point
        self._spec_length = spec_length  # (P,)
        self._norms: dict[int, np.ndarray] = {} if norms is None else norms
        self._shape_tables: dict[tuple, _ShapeTable] = {}

    @property
    def n_positions(self) -> int:
        return self._const.shape[0]

    @property
    def n_tiles(self) -> int:
        return self._const.shape[1]

    def _norm(self, alpha: int) -> np.ndarray:
        """The (T,) normalization of lobe width alpha, computed once per pattern."""
        norm = self._norms.get(alpha)
        if norm is None:
            norm = self._norms[alpha] = single_lobe_norm(self.mode, alpha, self.tile_theta)
        return norm

    def tile_powers(self, s_value: float, alpha_r: int, alpha_i: int, lambdas, rows=slice(None), work=(None, None)):
        """(..., R, T) tile powers before gating, watts, of mixes `lambdas` of any shape (...) at the rows `rows`.

        (alpha_r, alpha_i, lambda) is a LobeParams.shape, so the single
        lobe is the mix-1 case. work's two (R, T) arrays receive the lobe gains.
        """
        lam = np.asarray(lambdas, dtype=float)[..., None, None]
        # the gains are never views of U and V, so a scalar mix (of the gains' shape) may write into forward
        forward, backscatter = np.power(self._u[rows], alpha_r, out=work[0]), np.power(self._v[rows], alpha_i, out=work[1])
        out, term = (forward, backscatter) if lam.ndim == 2 else (None, None)
        norm_r, norm_i = self._norm(alpha_r), self._norm(alpha_i)
        return mixed_power(s_value, self._const[rows], lam, forward, backscatter, norm_r, norm_i, out, (term, backscatter))

    def predict(self, params: LobeParams, work=None):
        """Gated per-position powers: (total_w, spec_w, diff_w), gated a block of rows at a time.

        Each block's lobe gains and gate's buffer go into work if given, two arrays of a block's rows or more.
        """
        out = np.empty((3, self.n_positions))
        for rows in _row_blocks(self.n_positions, self.n_tiles):
            block = [a[: rows.stop - rows.start] for a in work[:2]] if work else (None, None)
            out[:, rows] = self.gate(self.tile_powers(params.s_coeff, *params.shape, rows, block), rows, block[1])
        return tuple(out)

    def gate(self, tile_p: np.ndarray, rows=slice(None), work=None):
        """Gate the tile powers `tile_p` (..., R, T) of the positions `rows`, in work, a buffer of its shape, if given.

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
        work = np.subtract(lengths, best_len[..., None], out=work)
        tile_in = np.abs(work, out=work) <= _LENGTH_GATE
        spec_in = np.abs(spec_len - best_len) <= _LENGTH_GATE

        work.fill(0.0)
        np.copyto(work, tile_p, where=tile_in)
        diff_sum = work.sum(axis=-1)
        spec_w, diff_w = power_gate(np.where(spec_in, spec_p, 0.0), diff_sum)
        return spec_w + diff_w, spec_w, diff_w

    def shape_table(self, grid) -> _ShapeTable:
        """The _ShapeTable of grid, (alphas_r, alphas_i, lambdas), built once per pattern."""
        if grid not in self._shape_tables:
            self._shape_tables[grid] = _ShapeTable(self, *grid)
        return self._shape_tables[grid]

    def shape_totals(self, grid, s_values, columns) -> np.ndarray:
        """Gated total watts (P, Q) of Q candidates: candidate q is column columns[q] of grid's table at S s_values[q].

        The table's shapes[n] is column n's LobeParams.shape. Each entry
        equals predict's total for that candidate to rounding (about
        1e-15): at each position the diffuse sum is s^2 times the table's
        window entry where s^2 is within the table's limit, and every
        other cell takes gate's total. One gate call serves the candidates
        of one S and width pair, but only their uncertified cells take its
        values, so column q depends on candidate q alone; see
        docs/stage_a_screen.md.
        """
        table = self.shape_table(grid)
        s_sq = np.square(s_values)
        spec_w, diff_w = power_gate(self.spec_power[:, None], s_sq * table.window[:, columns])
        total_w = spec_w + diff_w
        uncertified = s_sq > table.limit[:, columns]
        groups: dict[tuple, list[tuple[int, float]]] = {}
        for q in np.flatnonzero(uncertified.any(axis=0)).tolist():
            alpha_r, alpha_i, lam = table.shapes[columns[q]]
            groups.setdefault((s_values[q], alpha_r, alpha_i), []).append((q, lam))
        for (s_value, alpha_r, alpha_i), members in groups.items():
            qs, lams = map(list, zip(*members))
            rows = np.flatnonzero(uncertified[:, qs].any(axis=1))
            tile_p = self.tile_powers(s_value, alpha_r, alpha_i, lams, rows)
            cells = np.ix_(rows, qs)
            total_w[cells] = np.where(uncertified[cells], self.gate(tile_p, rows)[0].T, total_w[cells])
        return total_w


def _distinct_shapes(alphas_r, alphas_i, lambdas) -> np.ndarray:
    """(Ar, Ai, L) mask of the grid's shapes equal to no earlier one: a lobe of weight zero keeps the first width."""
    lam, first_r, first_i = np.asarray(lambdas), np.arange(len(alphas_r)) == 0, np.arange(len(alphas_i)) == 0
    return ((lam < 1.0) | first_i[:, None]) & ((lam > 0.0) | first_r[:, None, None])


def _specular_window_sums(pattern: ScanPattern, alphas_r, alphas_i, lambdas):
    """Specular-window sums and pure-lobe peaks per unit S^2 of a dual-lobe shape grid, one pass per lobe width.

    Returns sums (P, N), the diffuse sum over the tiles in the delay window
    around the specular path of each of the grid's N distinct shapes, in
    _ShapeTable column order, and peaks_r (P, Ar) and
    peaks_i (P, Ai), each pure lobe's largest tile power over all tiles
    (0 for a lobe of weight zero in every mix); see docs/stage_a_screen.md.
    """
    n_pos = pattern.n_positions
    sums = np.zeros((n_pos, len(alphas_r), len(alphas_i), len(lambdas)))
    peaks_r, peaks_i = np.zeros((n_pos, len(alphas_r))), np.zeros((n_pos, len(alphas_i)))
    # the matrix products' operand is the one (P, T) array; the rest is per block of rows or per tile
    gain, blocks = np.empty_like(pattern._const), _row_blocks(n_pos, pattern.n_tiles)
    scratch = np.empty((blocks[0].stop, pattern.n_tiles))

    def lobe_pass(lobe_base, alphas, peaks, other_alphas, forward_lobe, lobe_sums):
        """One lobe's peaks and terms of the sums, whose axis 1 indexes its widths."""
        mixes = [(m, lam) for m, lam in enumerate(lambdas) if (lam > 0.0 if forward_lobe else lam < 1.0)]
        # each width mixes its (T,) norm with the other lobe's (A, T) stack, in one more (A, T) array
        others = np.array([pattern._norm(a) for a in other_alphas])
        mix = np.empty_like(others)
        for k, a in enumerate(alphas if mixes else ()):
            norm = pattern._norm(a)
            for rows in blocks:  # gain = C * lobe_base^a, zero outside the specular delay window
                work, block = scratch[: rows.stop - rows.start], gain[rows]
                np.multiply(pattern._const[rows], np.power(lobe_base[rows], a, out=work), out=block)
                peaks[rows, k] = np.divide(block, norm, out=work).max(axis=1)
                np.abs(np.subtract(pattern._lengths[rows], pattern._spec_length[rows, None], out=work), out=work)
                np.copyto(block, 0.0, where=work > _LENGTH_GATE)
            for m, lam in mixes:
                np.reciprocal(lobe_mix(lam, *((norm, others) if forward_lobe else (others, norm)), out=mix), out=mix)
                lobe_sums[:, k, :, m] += (lam if forward_lobe else 1.0 - lam) * (gain @ mix.T)

    lobe_pass(pattern._u, alphas_r, peaks_r, alphas_i, True, sums)
    lobe_pass(pattern._v, alphas_i, peaks_i, alphas_r, False, sums.transpose(0, 2, 1, 3))
    return sums[:, _distinct_shapes(alphas_r, alphas_i, lambdas)], peaks_r, peaks_i


def _tile_window_sums(pattern: ScanPattern, alphas_r, alphas_i, lambdas, rows):
    """Dual-lobe diffuse sums per unit S^2 in the strongest tile's delay window, with a certificate.

    For receivers with no specular path (spec_power 0) predict anchors
    the delay window on the strongest tile. Scaling by S^2 does not
    move it, so one pass at unit S serves every S. Returns two (R, N)
    arrays over the positions `rows` and the grid's N distinct shapes, in
    _ShapeTable column order: the window sums, and where they are certified.
    An entry is certified when the strongest tile outweighs every tile
    of a different path length (more than _ANCHOR_TIE_M apart) by
    (1 + _CERTIFICATE_MARGIN), and no tile lies within 2 _ANCHOR_TIE_M of
    the window edge. Rounding of the S^2 scaling can then only move the
    anchor among tiles of one path length (mirror images tie exactly),
    which leaves the window unchanged, so s^2 times a certified entry is
    the diffuse sum predict gates.

    The pass works on the tiles of each row in path-length order: there
    the window and the tie band of an anchor are index ranges, found once
    per row. It runs over _row_blocks of rows and reuses two mix buffers:
    each width pair forms the tile powers of the mixes of its distinct
    shapes in one, in tile order with (T,) norms, and gathers them into
    length order in the other (the gather moves values, so they keep
    their bits), which first holds mixed_power's backscatter term.
    """
    distinct = _distinct_shapes(alphas_r, alphas_i, lambdas)
    lam = np.asarray(lambdas, dtype=float)
    n_lam, n_tiles = lam.size, pattern.n_tiles
    gate, tie = _LENGTH_GATE, _ANCHOR_TIE_M
    blocks = _row_blocks(len(rows), n_tiles)
    # one spare entry past the end keeps every window end a valid index of reduceat
    flat, term = np.empty(n_lam * blocks[0].stop * n_tiles + 1), np.empty(n_lam * blocks[0].stop * n_tiles)
    sums = np.empty((*distinct.shape, len(rows)))
    certified = np.empty(sums.shape, dtype=bool)
    for block in blocks:
        block_rows, n_rows = rows[block], block.stop - block.start
        const, u, v, lengths = (arr[block_rows] for arr in (pattern._const, pattern._u, pattern._v, pattern._lengths))
        order = np.argsort(lengths, axis=-1, kind="stable")
        # per row and length rank of the anchor: the window [start, end), the
        # ranks of its tie band, and whether no tile lies near the window edge
        window = np.empty((n_rows, n_tiles, 2), dtype=np.intp)
        band_lo, band_hi = np.empty((2, n_rows, n_tiles), dtype=np.intp)
        clear = np.empty((n_rows, n_tiles), dtype=bool)
        for r, ranked in enumerate(np.take_along_axis(lengths, order, axis=-1)):
            window[r, :, 0] = np.searchsorted(ranked, ranked - gate)
            window[r, :, 1] = np.searchsorted(ranked, ranked + gate, "right")
            band_lo[r] = np.searchsorted(ranked, ranked - tie)
            band_hi[r] = np.searchsorted(ranked, ranked + tie, "right")
            clear[r] = 0 == sum(
                np.searchsorted(ranked, edge + 2.0 * tie, "right") - np.searchsorted(ranked, edge - 2.0 * tie)
                for edge in (ranked - gate, ranked + gate)
            )
        band = np.minimum(band_lo[..., None] + np.arange((band_hi - band_lo).max()), band_hi[..., None] - 1)
        del band_lo, band_hi, lengths
        # the block's (R, T) entries in each row's length order
        ranks = (order + n_tiles * np.arange(n_rows)[:, None]).ravel()
        base = n_tiles * np.arange(n_lam * n_rows).reshape(n_lam, n_rows)
        row = np.arange(n_rows)
        for i, a_r in enumerate(alphas_r):
            forward = u**a_r
            for j, a_i in enumerate(alphas_i):
                ms = np.flatnonzero(distinct[i, j])
                if not ms.size:
                    continue
                size = ms.size * n_rows * n_tiles
                tile_p, ranked_p = (buf[:size].reshape(ms.size, n_rows, n_tiles) for buf in (term, flat))
                backscatter, norms = v**a_i, (pattern._norm(a_r), pattern._norm(a_i))
                mixed_power(1.0, const, lam[ms, None, None], forward, backscatter, *norms, tile_p, (ranked_p, backscatter))
                # mode "clip": "raise" would buffer the gather in a third array
                np.take(tile_p.reshape(ms.size, -1), ranks, axis=1, out=ranked_p.reshape(ms.size, -1), mode="clip")
                first = base[: ms.size]
                k = ranked_p.argmax(axis=-1)  # (M, R): the anchor's length rank
                top = flat[first + k]
                ends = first[..., None] + window[row, k]
                sums[i, j, ms, block] = np.add.reduceat(flat[: size + 1], ends.ravel())[::2].reshape(ms.size, n_rows)
                # zero the anchor's tie band; the largest tile left is its rival
                flat[first[..., None] + band[row, k]] = 0.0
                rival = ranked_p.max(axis=-1)
                certified[i, j, ms, block] = (top >= (1.0 + _CERTIFICATE_MARGIN) * rival) & clear[row, k]
    return sums[distinct].T, certified[distinct].T


class _ShapeTable:
    """Per-unit-S^2 tables of a grid of dual-lobe shapes, built once per pattern and grid.

    Column n is shapes[n], a LobeParams.shape (alpha_r, alpha_i, lambda): the
    product alphas_r x alphas_i x lambdas in that order, each shape equal
    to an earlier one skipped (_distinct_shapes). window[p, n] is the
    diffuse sum in the delay window that predict anchors at position p: on
    the specular path where there is one, else on the strongest tile.
    limit[p, n] is the largest S^2 at which s^2 * window[p, n] is the
    diffuse sum that predict gates: the specular power over
    (1 + _CERTIFICATE_MARGIN) times a bound on every tile power, or with
    no specular path +inf or -inf as the tile-anchor certificate holds or
    not.
    """

    def __init__(self, pattern: ScanPattern, alphas_r, alphas_i, lambdas):
        lam = np.asarray(lambdas)
        distinct = _distinct_shapes(alphas_r, alphas_i, lambdas)
        self.shapes = [(alphas_r[i], alphas_i[j], lambdas[m]) for i, j, m in np.argwhere(distinct).tolist()]
        self.window, peaks_r, peaks_i = _specular_window_sums(pattern, alphas_r, alphas_i, lambdas)
        # a dual-lobe tile power is a mediant of the two pure ones; a lobe of weight zero bounds nothing
        bound = np.maximum(
            np.where(lam > 0.0, peaks_r[:, :, None, None], 0.0), np.where(lam < 1.0, peaks_i[:, None, :, None], 0.0)
        )[:, distinct] * (1.0 + _CERTIFICATE_MARGIN)
        spec = pattern.spec_power[:, None]
        # the rows with no specular path are set below; a bound of 0 certifies every S
        with np.errstate(divide="ignore"):
            self.limit = np.divide(spec, bound, out=np.zeros_like(bound), where=spec > 0.0)
        del bound  # before the tile pass, whose buffers are the build's largest at a fine tiling
        rows = np.flatnonzero(pattern.spec_power == 0.0)
        if rows.size:
            self.window[rows], certified = _tile_window_sums(pattern, alphas_r, alphas_i, lambdas, rows)
            self.limit[rows] = np.where(certified, np.inf, -np.inf)


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


class _Tiling:
    """The per-tiling part of build_pattern, done once per call; pattern(rx, arrays) is the per-row part.

    It holds the tiles' incident paths and angles, the (T,) normalization
    of each lobe width that the patterns of its receivers use (one dict,
    shared), and work, receiver's three coordinate differences for one
    block of rows, which pattern refills for each block and simulate_scan's
    predict reuses; the tile centers stay only in SurfacePaths' (3, T)
    rows. The tiling must give n_receivers at most MAX_PATHS paths. Block
    arrays are separate (R, T) arrays: freeing one stacked array of them
    would raise glibc's mmap threshold, and a fit's later arrays would then
    stay in the heap (measured at 76 x 900 paths).
    """

    def __init__(self, scene, n_receivers, link, materials, tile_edge, mode, polarization):
        self.scene, self.link, self.mode, self.polarization = scene, link, mode, polarization
        self.material = materials.get(scene.wall.material)
        centers, self.area = tile_centers(scene, tile_edge, n_receivers)
        self.paths = SurfacePaths(scene.tx, centers, scene.wall.normal)
        self.tile_theta = np.arccos(self.paths.cos_ti)
        self.norms: dict[int, np.ndarray] = {}
        self.n_tiles = centers.shape[0]
        self.block_rows = _row_blocks(max(1, n_receivers), self.n_tiles)[0].stop
        self.work: list[np.ndarray] = []

    def pattern(self, rx: np.ndarray, arrays) -> ScanPattern:
        """The ScanPattern of the receivers rx (R, 3), its C, U, V and path lengths written into four (R, T) arrays."""
        const, u_base, v_base, lengths = arrays
        paths = self.paths
        if not self.work:  # allocated after the caller's arrays, which a fit keeps, so the heap can return it
            self.work = [np.empty((self.block_rows, self.n_tiles)) for _ in range(3)]
        for rows in _row_blocks(len(rx), self.n_tiles):
            work = [a[: rows.stop - rows.start] for a in self.work]
            # receiver's scratch is the C row, which element_constant fills afterwards
            r_s, *cosines = paths.receiver(rx[rows], (lengths[rows], u_base[rows], v_base[rows]), [*work, const[rows]])
            element_constant(self.link, paths.r_i, r_s, paths.cos_ti, self.area, out=const[rows])
            # then r_s becomes the path length, and each cos psi its lobe base (1 + cos psi)/2, in place
            np.add(paths.r_i, r_s, out=r_s)
            for cos_psi in cosines:
                np.divide(np.add(1.0, cos_psi, out=cos_psi), 2.0, out=cos_psi)

        spec_length, spec_cos = specular_paths(self.scene.tx, rx, self.scene.wall)
        spec_power = np.zeros(len(rx))
        for p in np.flatnonzero(spec_length).tolist():
            length, cos_theta = float(spec_length[p]), float(spec_cos[p])
            ctx = IncidenceContext(math.acos(min(1.0, cos_theta)), self.link.wavelength, self.polarization)
            rough = initial_scattering_coefficient(self.material, ctx).gamma_rough
            spec_power[p] = self.link.friis_power(length) * rough * rough
        return ScanPattern(self.mode, self.tile_theta, const, u_base, v_base, lengths, spec_power, spec_length, self.norms)


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
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    if rx.shape[1] != 3:
        raise ValueError("rx_positions must be (P, 3)")
    tiling = _Tiling(scene, rx.shape[0], link, materials, tile_edge, mode, polarization)
    return tiling.pattern(rx, [np.empty((rx.shape[0], tiling.n_tiles)) for _ in range(4)])


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
    """Simulated scan over the arc/semicylinder, ordered by (delta_h, azimuth).

    It builds and predicts one block of receiver rows at a time, into
    arrays allocated once per call, so it never holds the whole pattern;
    the powers equal those of build_pattern(...).predict bit for bit.
    """
    keys, positions = scan_positions(scene, scanspec)
    tiling = _Tiling(scene, len(positions), link, materials, tile_edge, mode, polarization)
    arrays = [np.empty((tiling.block_rows, tiling.n_tiles)) for _ in range(4)]
    powers = np.empty((3, len(positions)))
    for rows in _row_blocks(len(positions), tiling.n_tiles):
        block = tiling.pattern(positions[rows], [a[: rows.stop - rows.start] for a in arrays])
        powers[:, rows] = block.predict(lobe_params, tiling.work)
    return [
        SimRecord(
            azimuth_deg=az,
            delta_h_cm=height_m_to_cm(dh),
            power_dbm=watts_to_dbm(float(total)),
            specular_dbm=watts_to_dbm(float(spec)),
            diffuse_dbm=watts_to_dbm(float(diff)),
        )
        for (az, dh), total, spec, diff in zip(keys, *powers)
    ]
