import math
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmscatter import SPEED_OF_LIGHT, raytrace, watts_to_dbm
from mmscatter.cli import EXIT_DATA
from mmscatter.cli import main as cli_main
from mmscatter.fileio import default_materials, read_scan, write_simulated_scan
from mmscatter.geometry import (
    DEFAULT_CYLINDER_HEIGHTS,
    ScanSpec,
    Scene,
    SurfacePaths,
    Wall,
    paper_scene,
    rx_position,
    scan_positions,
)
from mmscatter.fitting import _shape_grid
from mmscatter.lobes import LobeModel, LobeParams, NormalizationMode, element_constant, normalization_f
from mmscatter.materials import (
    IncidenceContext,
    Material,
    MaterialDatabase,
    Polarization,
    fresnel_gamma,
    initial_scattering_coefficient,
)
from mmscatter.raytrace import (
    _BLOCK_PATHS,
    DELAY_GATE_S,
    build_pattern,
    power_gate,
    simulate_scan,
    tile_centers,
)

CONVERGENCE_EDGES = (0.4, 0.2, 0.1, 0.05, 0.025)
CONVERGENCE_TOL_DB = 0.1
# every dual-lobe shape a fit screens: widths 1-10 of both lobes and 11 mixes, less the
# 90 + 90 duplicates at lambda 1 and 0, where the zero-weight lobe's width drops out
DUAL_GRID = _shape_grid(LobeModel.DUAL_LOBE)
DUAL_COLUMNS = np.arange(math.prod(map(len, DUAL_GRID)) - 2 * 90)


def single(s, alpha_r=4):
    return LobeParams(model=LobeModel.SINGLE_LOBE, s_coeff=s, alpha_r=alpha_r)


def dual(s, alpha_r, alpha_i, lam):
    return LobeParams(model=LobeModel.DUAL_LOBE, s_coeff=s, alpha_r=alpha_r, alpha_i=alpha_i, lambda_mix=lam)


def _warm_one_time_caches(scene, link, db):
    """Fill, outside a tracemalloc window, what the first pass of a process allocates for good.

    The per-width coefficient caches of both normalizations and numpy's own
    helpers: a memory test run alone, or first, would otherwise count them.
    """
    _, rx = scan_positions(scene, ScanSpec())
    for mode in NormalizationMode:
        pattern = build_pattern(scene, rx[:2], link, db, 0.5, mode)
        pattern.shape_totals(DUAL_GRID, [0.3] * DUAL_COLUMNS.size, DUAL_COLUMNS)
        for params in (single(0.3, 1), dual(0.4, 3, 2, 0.4)):
            pattern.predict(params)
        simulate_scan(scene, ScanSpec(), dual(0.4, 3, 2, 0.4), link, db, 0.5, mode)


@pytest.fixture
def scene30():
    return paper_scene("rough_wall", 30.0)


def at_receiver(scene, rx, params, link, materials, tile_edge):
    """predict's (total_w, spec_w, diff_w) at one receiver, as floats."""
    pattern = build_pattern(scene, rx[None, :], link, materials, tile_edge)
    return tuple(float(w[0]) for w in pattern.predict(params))


def window_tiles(pattern, tile_p, p):
    """The live tiles of receiver p within the delay window around its strongest path, written out for p alone."""
    if pattern.spec_power[p] >= tile_p.max():
        anchor = pattern._spec_length[p]
    else:
        anchor = pattern._lengths[p, tile_p.argmax()]
    return np.flatnonzero((tile_p > 0.0) & (np.abs(pattern._lengths[p] - anchor) <= DELAY_GATE_S * SPEED_OF_LIGHT))


@dataclass(frozen=True)
class ConvergenceReport:
    entries: tuple[tuple[float, float], ...]
    converged: bool


def convergence_probe(scene, rx, params, link, materials, edges=CONVERGENCE_EDGES):
    """Total power at one receiver versus tile edge; converged when the last halving moves < 0.1 dB."""
    entries = tuple((edge, at_receiver(scene, rx, params, link, materials, edge)[0]) for edge in edges)
    last, prev = entries[-1][1], entries[-2][1]
    if last == 0.0 or prev == 0.0:
        converged = last == prev
    else:
        converged = abs(10.0 * math.log10(prev / last)) < CONVERGENCE_TOL_DB
    return ConvergenceReport(entries=entries, converged=converged)


class TestSimulatePoint:
    """One receiver through build_pattern: predict's gated powers."""

    def test_dead_scene_has_no_contributions(self, paper_link, materials_db):
        # eps_r = 1 gives Gamma = 0; S = 0 kills the diffuse side
        vacuum_wall = MaterialDatabase([Material("void", eps_r=1.0, h_rms=1e-4)])
        scene = Scene(
            wall=Wall(center=np.zeros(3), normal=np.array([1.0, 0.0, 0.0]), width=3.0, height=3.0, material="void"),
            tx=np.array([1.3, -0.75, 0.0]),
            carrier_frequency=28e9,
        )
        rx = np.array([1.3, 0.75, 0.0])
        powers = at_receiver(scene, rx, single(0.0), paper_link, vacuum_wall, 0.5)
        assert powers == (0.0, 0.0, 0.0)
        assert watts_to_dbm(powers[0]) == float("-inf")

    def test_metal_specular_dominates_at_specular_position(self, paper_link, materials_db):
        scene = paper_scene("metal_sheet", 30.0)
        s_theory = initial_scattering_coefficient(
            materials_db.get("metal_sheet"), IncidenceContext(scene.incidence_angle, paper_link.wavelength)
        ).s_coeff
        rx = rx_position(scene, 1.5, 30.0, 0.0)
        _, spec_w, diff_w = at_receiver(scene, rx, single(s_theory), paper_link, materials_db, 0.2)
        assert watts_to_dbm(spec_w) > watts_to_dbm(diff_w)

    def test_inverse_square_on_specular(self, paper_link, materials_db):
        near = paper_scene("rough_wall", 30.0, tx_distance=1.5)
        far = paper_scene("rough_wall", 30.0, tx_distance=3.0)
        rx_near, rx_far = rx_position(near, 1.5, 30.0, 0.0), rx_position(far, 3.0, 30.0, 0.0)
        _, spec_near, *_ = at_receiver(near, rx_near, single(0.3), paper_link, materials_db, 0.5)
        _, spec_far, *_ = at_receiver(far, rx_far, single(0.3), paper_link, materials_db, 0.5)
        drop = watts_to_dbm(spec_near) - watts_to_dbm(spec_far)
        assert drop == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_linear_total_identity(self, paper_link, materials_db, scene30):
        rx = rx_position(scene30, 1.5, 20.0, 0.0)
        params = dual(0.4, 2, 9, 0.3)
        pattern = build_pattern(scene30, rx[None, :], paper_link, materials_db, 0.25)
        total_w, spec_w, diff_w = (float(w[0]) for w in pattern.predict(params))
        tile_p = pattern.tile_powers(params.s_coeff, *params.shape)[0]
        assert spec_w == pattern.spec_power[0] > 0.0
        assert diff_w == pytest.approx(math.fsum(tile_p[window_tiles(pattern, tile_p, 0)]), rel=1e-12)
        assert total_w == spec_w + diff_w

    def test_path_lengths_and_delays(self, paper_link, materials_db, scene30):
        # at the specular position the specular path is the strongest, so it
        # anchors the window: the diffuse sum takes every live tile whose
        # delay lies within 5 ns of it
        rx = rx_position(scene30, 1.5, 30.0, 0.0)
        pattern = build_pattern(scene30, rx[None, :], paper_link, materials_db, 0.5)
        _, spec_w, diff_w = (float(w[0]) for w in pattern.predict(single(0.3)))
        tile_p = pattern.tile_powers(0.3, *single(0.3).shape)[0]
        assert spec_w == pattern.spec_power[0] >= tile_p.max()
        excess_delay = (pattern._lengths[0] - pattern._spec_length[0]) / SPEED_OF_LIGHT
        in_window = (tile_p > 0.0) & (np.abs(excess_delay) <= DELAY_GATE_S)
        assert 0 < np.count_nonzero(in_window) < tile_p.size
        assert diff_w == pytest.approx(math.fsum(tile_p[in_window]), rel=1e-12)


class TestGating:
    def test_batched_gate_equals_per_mix_gate(self, paper_link, materials_db, scene30):
        _, rx = scan_positions(scene30, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.25)
        lambdas = [k / 10 for k in range(11)]
        rows = np.array([0, 5, 9, 18, 19, 37, 75])
        batched = pattern.gate(pattern.tile_powers(0.4, 2, 9, lambdas, rows), rows)
        for k, lam in enumerate(lambdas):
            per_mix = pattern.gate(pattern.tile_powers(0.4, 2, 9, lam)[rows], rows)
            for b, m in zip(batched, per_mix):
                assert np.array_equal(b[k], m)


def row_form_pattern(scene, rx, link, tile_edge):
    """const, u, v, lengths and cos_ts (P, T) as a loop over receivers computes them on (T, 3) rows."""
    centers, area = tile_centers(scene, tile_edge)
    normal = scene.wall.normal
    to_point = centers - scene.tx
    r_i = np.linalg.norm(to_point, axis=1)
    v_i = to_point / r_i[:, None]
    cos_ti = np.clip(-(v_i @ normal), -1.0, 1.0)
    spec_dir = v_i - 2.0 * (v_i @ normal)[:, None] * normal
    rows = {"const": [], "u": [], "v": [], "lengths": [], "cos_ts": []}
    for point in rx:
        from_point = point - centers
        r_s = np.linalg.norm(from_point, axis=1)
        v_s = from_point / r_s[:, None]
        rows["u"].append((1.0 + np.clip((v_s * spec_dir).sum(axis=1), -1.0, 1.0)) / 2.0)
        rows["v"].append((1.0 + np.clip((v_s * -v_i).sum(axis=1), -1.0, 1.0)) / 2.0)
        rows["lengths"].append(r_i + r_s)
        rows["cos_ts"].append(np.clip(v_s @ normal, -1.0, 1.0))
        rows["const"].append(element_constant(link, r_i, r_s, cos_ti, area))
    return {name: np.array(values) for name, values in rows.items()}


def where_gate(pattern, tile_p, rows=slice(None)):
    """ScanPattern.gate with the delay window applied by np.where on fresh arrays."""
    spec_p, spec_len, lengths = pattern.spec_power[rows], pattern._spec_length[rows], pattern._lengths[rows]
    tile_best_len = lengths[np.arange(lengths.shape[0]), tile_p.argmax(axis=-1)]
    best_len = np.where(spec_p >= tile_p.max(axis=-1), spec_len, tile_best_len)
    window = DELAY_GATE_S * SPEED_OF_LIGHT
    tile_in = np.abs(lengths - best_len[..., None]) <= window
    spec_in = np.abs(spec_len - best_len) <= window
    spec_w, diff_w = power_gate(np.where(spec_in, spec_p, 0.0), np.where(tile_in, tile_p, 0.0).sum(axis=-1))
    return spec_w + diff_w, spec_w, diff_w


def _oblique_scene():
    # the oblique layout of test_cli.py::test_oblique_wall_matches_the_paper_scene
    wall = Wall(center=np.zeros(3), normal=np.array([0.6, 0.8, 0.0]), width=3.0, height=3.0, material="rough_wall")
    return Scene(wall=wall, tx=np.array([1.2, 0.6, 0.0]), carrier_frequency=28e9)


def _tilted_scene():
    # every component of the normal nonzero, so every term of each sum rounds
    normal = np.array([math.cos(0.5) * math.cos(0.35), math.sin(0.5) * math.cos(0.35), math.sin(0.35)])
    wall = Wall(center=np.array([0.3, -1.7, 1.1]), normal=normal, width=3.7, height=3.0, material="rough_wall")
    return Scene(wall=wall, tx=wall.center + 1.5 * normal + 0.4 * wall.u_axis, carrier_frequency=28e9)


class TestComponentForm:
    """build_pattern and gate against the row form and the np.where gate, bit for bit."""

    @pytest.mark.parametrize(
        "make_scene, heights, tile_edge",
        [
            (lambda: paper_scene("rough_wall", 10.0), (0.0,), 0.1),
            (lambda: paper_scene("rough_wall", 30.0), (0.0,), 0.1),
            (lambda: paper_scene("rough_wall", 60.0), (0.0,), 0.1),
            (_oblique_scene, (0.0, 0.3), 0.1),
            (_tilted_scene, (0.0, 0.3), 0.1),
            (lambda: paper_scene("rough_wall", 30.0), DEFAULT_CYLINDER_HEIGHTS, 0.1),
            (lambda: paper_scene("rough_wall", 30.0), DEFAULT_CYLINDER_HEIGHTS, 0.05),
        ],
        ids=["paper-10", "paper-30", "paper-60", "oblique", "tilted", "raised-0.1", "raised-0.05"],
    )
    def test_pattern_and_gate_equal_row_form(self, make_scene, heights, tile_edge, paper_link, materials_db):
        scene = make_scene()
        _, rx = scan_positions(scene, ScanSpec(height_offsets=heights))
        pattern = build_pattern(scene, rx, paper_link, materials_db, tile_edge)
        former = row_form_pattern(scene, rx, paper_link, tile_edge)
        for name, attr in (("const", "_const"), ("u", "_u"), ("v", "_v"), ("lengths", "_lengths")):
            assert np.array_equal(getattr(pattern, attr), former[name]), name
        # the matrix product, which a three-term sum does not reproduce on an oblique wall
        paths = SurfacePaths(scene.tx, tile_centers(scene, tile_edge)[0], scene.wall.normal)
        assert np.array_equal([paths.cos_ts(point) for point in rx], former["cos_ts"])
        for params in (single(0.3), dual(0.4, 2, 9, 0.3), dual(0.9, 1, 1, 0.5)):
            tile_p = pattern.tile_powers(params.s_coeff, *params.shape)
            for new, old in zip(pattern.gate(tile_p), where_gate(pattern, tile_p)):
                assert np.array_equal(new, old)

    def test_batched_gate_equals_where_gate(self, paper_link, materials_db, scene30):
        _, rx = scan_positions(scene30, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.1)
        rows = np.array([0, 5, 9, 18, 19, 37, 75])
        tile_p = pattern.tile_powers(0.9, 1, 9, [k / 10 for k in range(11)], rows)  # (G, R, T)
        assert tile_p.shape == (11, rows.size, pattern.n_tiles)
        for new, old in zip(pattern.gate(tile_p, rows), where_gate(pattern, tile_p, rows)):
            assert new.shape == (11, rows.size)
            assert np.array_equal(new, old)


class TestBlocks:
    """predict gates a block of receiver rows at a time, with the bits and a fraction of the memory of one pass."""

    @pytest.mark.parametrize("mode", list(NormalizationMode))
    @pytest.mark.parametrize(
        "params", [single(0.3, 4), dual(0.4, 3, 2, 0.0), dual(0.4, 3, 2, 0.4), dual(0.4, 3, 2, 1.0)],
        ids=["single", "dual-0", "dual-0.4", "dual-1"],
    )
    def test_predict_equals_one_block_gate(self, params, mode, paper_link, materials_db, scene30):
        _, rx = scan_positions(scene30, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.05, mode)
        rows = _BLOCK_PATHS // pattern.n_tiles
        # 76 receivers x 3,600 tiles: 8 full blocks of 9 rows and a partial one of 4
        assert pattern.n_positions // rows >= 3 and pattern.n_positions % rows
        one_block = pattern.gate(pattern.tile_powers(params.s_coeff, *params.shape))
        for blocked, whole in zip(pattern.predict(params), one_block):
            assert blocked.tobytes() == whole.tobytes()

    def test_predict_memory_is_bounded_by_its_blocks(self, paper_link, materials_db, scene30):
        _, rx = scan_positions(scene30, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.025)
        n_pos, n_tiles = pattern.n_positions, pattern.n_tiles
        assert (n_pos, n_tiles) == (76, 14_400)
        params = dual(0.4, 3, 2, 0.4)
        pattern.predict(params)  # fills the norm memo, which the pattern keeps
        block = 8 * (_BLOCK_PATHS // n_tiles) * n_tiles
        # at most three float64 blocks live at once (the two lobe gains and a product
        # of the mix, which it writes into the forward gains; gate's tile powers, work
        # buffer and mask are fewer), the mixed (T,) norm, and per receiver the (3, P)
        # result and a few row scalars
        bound = 3 * block + 8 * n_tiles + 1024 * n_pos
        _warm_one_time_caches(scene30, paper_link, materials_db)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            pattern.predict(params)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # one (P, T) float64 temporary alone is 8.75 MB
        assert peak < bound < 8 * n_pos * n_tiles

    def test_simulate_memory_is_bounded_by_its_blocks(self, paper_link, materials_db, scene30):
        spec = ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS)
        n_pos, n_tiles = len(scan_positions(scene30, spec)[0]), tile_centers(scene30, 0.05)[0].shape[0]
        assert (n_pos, n_tiles) == (76, 3_600)
        _warm_one_time_caches(scene30, paper_link, materials_db)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            simulate_scan(scene30, spec, dual(0.4, 3, 2, 0.4), paper_link, materials_db, 0.05)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        block = 8 * (_BLOCK_PATHS // n_tiles) * n_tiles
        # float64 blocks: the tiling's workspace of three differences, which
        # then holds predict's two lobe gains and gate's buffer (3), and the
        # block's C, U, V and path lengths, into which receiver writes r_s and
        # both cosines, its scratch being the C row (4), plus gate's bool tile
        # mask; per tile, the (3, T) rows of the points and both directions (9),
        # r_i, cos theta_i, theta_i and the two widths' norms (5), and predict's
        # mixed norm and one temporary of it (2), 16 float64 arrays of T in all;
        # per receiver its position, key and powers
        bound = 7 * block + block // 8 + 16 * 8 * n_tiles + 1024 * n_pos
        # the whole pattern, C, U, V and the path lengths, is 8.75 MB
        assert peak < bound < 4 * 8 * n_pos * n_tiles

    def test_table_memory_is_bounded_by_its_blocks(self, monkeypatch, paper_link, materials_db, scene30):
        _, rx = scan_positions(scene30, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        whole = build_pattern(scene30, rx, paper_link, materials_db, 0.05).shape_table(DUAL_GRID)
        n_tiles = 3_600
        # blocks of 2 rows: the 8 rows with no specular path span 4 blocks of the tile pass
        monkeypatch.setattr(raytrace, "_BLOCK_PATHS", 2 * n_tiles)
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.05)
        n_pos, n_columns, n_lam = pattern.n_positions, DUAL_COLUMNS.size, len(DUAL_GRID[2])
        assert (n_pos, pattern.n_tiles, np.sum(pattern.spec_power == 0.0)) == (76, n_tiles, 8)
        for alpha in DUAL_GRID[0]:
            pattern._norm(alpha)  # the pattern keeps its norms
        _warm_one_time_caches(scene30, paper_link, materials_db)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            table = raytrace._ShapeTable(pattern, *DUAL_GRID)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert table.window.tobytes() == whole.window.tobytes() and table.limit.tobytes() == whole.limit.tobytes()
        block = 8 * 2 * n_tiles
        # the kept window and limit, the one (P, T) matrix-product operand, the
        # specular pass's (P, Ar, Ai, L) sums and its two (A, T) norm arrays;
        # the tile pass's two mix buffers of n_lam blocks each, and at most 16
        # more block arrays (the rows' C, U, V, lengths, length order and ranks,
        # window ends (2), tie band (4), and both lobe gains)
        bound = 2 * 8 * n_pos * n_columns + 8 * n_pos * n_tiles + 8 * n_pos * 1_100 + 2 * 8 * 10 * n_tiles
        bound += (2 * n_lam + 16) * block
        # one (P, T) float64 array is 2.2 MB
        assert peak < bound

    def test_simulate_norms_each_width_once(self, monkeypatch, paper_link, materials_db, scene30):
        widths = []
        norm = raytrace.single_lobe_norm

        def counting_norm(mode, alpha, theta_i):
            widths.append(alpha)
            return norm(mode, alpha, theta_i)

        monkeypatch.setattr(raytrace, "single_lobe_norm", counting_norm)
        spec = ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS)
        # 9 blocks of receiver rows share the tiling's norms
        simulate_scan(scene30, spec, dual(0.4, 3, 2, 0.4), paper_link, materials_db, 0.05)
        assert sorted(widths) == [2, 3]

    def test_pattern_keeps_no_array_per_lobe_width(self, paper_link, materials_db, scene30):
        _, rx = scan_positions(scene30, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.05)
        n_pos, n_tiles = pattern.n_positions, pattern.n_tiles
        assert (n_pos, n_tiles) == (76, 3_600)
        n_columns, n_widths = DUAL_COLUMNS.size, len(DUAL_GRID[0])
        assert (n_columns, n_widths) == (920, 10)
        _warm_one_time_caches(scene30, paper_link, materials_db)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            pattern.shape_totals(DUAL_GRID, [0.3] * n_columns, DUAL_COLUMNS)
            for params in (single(0.3, 1), dual(0.4, 3, 2, 0.4), dual(0.4, 10, 7, 0.0)):
                pattern.predict(params)
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(pattern.shape_table(DUAL_GRID).shapes) == n_columns
        # the table's window and limit, one (T,) norm per width, and 64 KB of
        # dicts and objects; one (P, T) float64 array alone is 2.2 MB
        bound = 2 * 8 * n_pos * n_columns + n_widths * 8 * n_tiles + 64 * 1024
        assert kept < bound < 8 * n_pos * n_tiles

    def test_passes_leave_the_pattern_arrays_unchanged(self, paper_link, materials_db, scene30):
        # the digest scene, whose fit at S 0.8 takes the screen's fallback; the
        # single lobe of width 1 would write into U if its gains were a view of it
        _, rx = scan_positions(scene30, ScanSpec(height_offsets=(0.0, 0.3)))
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.5)
        arrays = (pattern._const, pattern._u, pattern._v, pattern._lengths)
        before = [arr.tobytes() for arr in arrays]
        for params in (single(0.3, 1), dual(0.4, 1, 2, 0.0), dual(0.4, 1, 2, 0.4), dual(0.4, 1, 2, 1.0)):
            pattern.predict(params)
        pattern.shape_totals(DUAL_GRID, [0.8] * DUAL_COLUMNS.size, DUAL_COLUMNS)
        assert np.any(0.8**2 > pattern._shape_tables[DUAL_GRID].limit)
        assert [arr.tobytes() for arr in arrays] == before


class TestStream:
    """simulate_scan builds and predicts a block of receiver rows at a time, with the stored pattern's bits."""

    @pytest.mark.parametrize("mode", list(NormalizationMode))
    @pytest.mark.parametrize(
        "params", [single(0.3, 4), dual(0.4, 3, 2, 0.0), dual(0.4, 3, 2, 0.4), dual(0.4, 3, 2, 1.0)],
        ids=["single", "dual-0", "dual-0.4", "dual-1"],
    )
    def test_simulate_equals_stored_pattern(self, params, mode, paper_link, materials_db, scene30):
        spec = ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS)
        keys, rx = scan_positions(scene30, spec)
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.05, mode)
        # 76 receivers x 3,600 tiles: 8 full blocks of 9 rows and a partial one of 4
        assert pattern.n_positions % (_BLOCK_PATHS // pattern.n_tiles)
        stored = np.array([[watts_to_dbm(float(w)) for w in row] for row in zip(*pattern.predict(params))])
        records = simulate_scan(scene30, spec, params, paper_link, materials_db, 0.05, mode)
        assert [(r.azimuth_deg, r.delta_h_cm / 100.0) for r in records] == keys
        streamed = np.array([[r.power_dbm, r.specular_dbm, r.diffuse_dbm] for r in records])
        assert streamed.tobytes() == stored.tobytes()
        # the +-90 deg receivers, in the wall plane, have no specular path
        assert [r.azimuth_deg for r in records if r.specular_dbm == -math.inf] == [-90.0, 90.0] * 4

    @pytest.mark.parametrize("first", ["behind", "too-long"])
    def test_first_fault_in_a_later_block(self, first, monkeypatch, tmp_path, capsys, paper_link, materials_db):
        # receivers 40 (the fifth block of 9 rows) and 60 (the seventh) are at fault
        scene = paper_scene("rough_wall", 30.0)
        wall = scene.wall
        faulty = {"behind": wall.center - 0.5 * wall.normal, "too-long": wall.center + 1e154 * wall.normal}
        messages = {
            "behind": "rx lies behind the wall plane",
            "too-long": f"path length to the receiver at {faulty['too-long'].tolist()} m is too long",
        }
        second = "too-long" if first == "behind" else "behind"
        positions = raytrace.scan_positions

        def faulty_positions(scene, spec):
            keys, rx = positions(scene, spec)
            rx[40], rx[60] = faulty[first], faulty[second]
            return keys, rx

        monkeypatch.setattr(raytrace, "scan_positions", faulty_positions)
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--s", "0.35", "--tiles-m", "0.05", "--heights", "0,0.1,0.2,0.3", "--out", str(out)]
        assert cli_main(argv) == EXIT_DATA
        assert f"input error: {messages[first]}" in capsys.readouterr().err
        assert not out.exists()
        # the stored pattern of the same receivers names the same fault
        _, rx = faulty_positions(scene, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        with pytest.raises(ValueError, match=re.escape(messages[first])):
            build_pattern(scene, rx, paper_link, materials_db, 0.05)


class TestContributions:
    """The tile contributions in each receiver's delay window against the gated powers of predict."""

    @pytest.mark.parametrize(
        "material, theta_deg, params, wall_width",
        [
            ("rough_wall", 30.0, single(0.3), 3.0),
            ("metal_sheet", 20.0, dual(0.3, 3, 8, 0.35), 3.0),
            # a wide wall has tiles outside the delay window
            ("rough_wall", 30.0, single(0.3), 8.0),
            # at S 0.9 and width 1 a tile outweighs the specular path at some
            # positions and anchors the window there
            ("smooth_wall", 45.0, dual(0.9, 1, 1, 0.5), 3.0),
        ],
    )
    def test_contributions_agree_with_predict(self, material, theta_deg, params, wall_width, paper_link, materials_db):
        scene = paper_scene(material, theta_deg, wall_width=wall_width)
        _, rx = scan_positions(scene, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        pattern = build_pattern(scene, rx, paper_link, materials_db, 0.25)
        total_w, spec_w, diff_w = pattern.predict(params)
        assert np.array_equal(total_w, spec_w + diff_w)
        all_tile_p = pattern.tile_powers(params.s_coeff, *params.shape)
        left_out = 0
        for p in range(len(rx)):
            tile_p = all_tile_p[p]
            window = window_tiles(pattern, tile_p, p)
            if diff_w[p] > 0.0:
                assert diff_w[p] == pytest.approx(math.fsum(tile_p[window]), rel=1e-12)
            left_out += np.count_nonzero(tile_p > 0.0) - window.size
        if wall_width > 3.0:
            assert left_out > 0


class TestTileCenters:
    def test_equal_to_per_tile_loop(self):
        # a tilted wall off the origin, so that every term of the sum rounds
        for azimuth_deg, tilt_deg in ((0.0, 0.0), (30.0, 20.0), (45.0, -10.0), (80.0, 35.0)):
            az, tilt = math.radians(azimuth_deg), math.radians(tilt_deg)
            normal = np.array([math.cos(az) * math.cos(tilt), math.sin(az) * math.cos(tilt), math.sin(tilt)])
            wall = Wall(center=np.array([0.3, -1.7, 1.1]), normal=normal, width=3.7, height=3.0, material="m")
            scene = Scene(wall=wall, tx=wall.center + 1.5 * normal, carrier_frequency=28e9)
            u, w = wall.u_axis, wall.w_axis
            for edge in (0.4, 0.3, 0.1, 0.07, 0.025):
                centers, area = tile_centers(scene, edge)
                n_u, n_w = math.ceil(wall.width / edge), math.ceil(wall.height / edge)
                du, dw = wall.width / n_u, wall.height / n_w
                loop = [
                    wall.center
                    + (-wall.width / 2.0 + (iu + 0.5) * du) * u
                    + (-wall.height / 2.0 + (iw + 0.5) * dw) * w
                    for iw in range(n_w)
                    for iu in range(n_u)
                ]
                assert np.array_equal(centers, np.array(loop))
                assert area == du * dw

    def test_too_many_paths_is_refused(self, scene30):
        # counted before anything is built, so neither call allocates; the wall is 3 x 3 m
        with pytest.raises(ValueError, match=r"^tile edge 1e-308 m gives 1 receivers x inf tiles, more than 10,000,0"):
            tile_centers(scene30, 1e-308)
        with pytest.raises(ValueError, match=r"^tile edge 0\.01 m gives 112 receivers x 90000 tiles, more than"):
            tile_centers(scene30, 0.01, receivers=112)
        assert tile_centers(scene30, 0.01, receivers=111)[0].shape == (90_000, 3)


class TestKernelAgreement:
    @pytest.mark.parametrize("mode", list(NormalizationMode))
    @pytest.mark.parametrize("params", [single(0.4, 3), dual(0.4, 2, 9, 0.3)], ids=["single", "dual"])
    def test_scalar_kernel_matches_tile_powers(self, params, mode, paper_link, materials_db, scene30):
        _, rx = scan_positions(scene30, ScanSpec())
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.25, mode)
        centers, area = tile_centers(scene30, 0.25)
        tx, n = scene30.tx.tolist(), scene30.wall.normal.tolist()
        rx_scale = paper_link.g_r * paper_link.wavelength**2 / (480.0 * math.pi**2)

        def per_path_power(r, c):
            # P = S^2 K^2 / (r_i r_s)^2 * A cos(theta_i) * G_r lambda^2 / (480 pi^2) * gain / F
            to_c = [ci - ti for ci, ti in zip(c, tx)]
            from_c = [ri - ci for ri, ci in zip(r, c)]
            r_i, r_s = math.hypot(*to_c), math.hypot(*from_c)
            v_i = [x / r_i for x in to_c]
            v_s = [x / r_s for x in from_c]
            cos_ti = -sum(a * b for a, b in zip(v_i, n))
            along_n = sum(a * b for a, b in zip(v_i, n))
            mirror = [a - 2.0 * along_n * b for a, b in zip(v_i, n)]
            cos_psi_r = sum(a * b for a, b in zip(v_s, mirror))
            cos_psi_i = -sum(a * b for a, b in zip(v_s, v_i))
            gain = ((1.0 + cos_psi_r) / 2.0) ** params.alpha_r
            if params.model is LobeModel.DUAL_LOBE:
                lam = params.lambda_mix
                gain = lam * gain + (1.0 - lam) * ((1.0 + cos_psi_i) / 2.0) ** params.alpha_i
            norm = normalization_f(params, math.acos(cos_ti), mode)
            field_sq = (params.s_coeff * paper_link.k_const / (r_i * r_s)) ** 2 * area * cos_ti * gain / norm
            return field_sq * rx_scale

        per_path = np.array([[per_path_power(r, c) for c in centers.tolist()] for r in rx.tolist()])
        assert np.allclose(pattern.tile_powers(params.s_coeff, *params.shape), per_path, rtol=1e-12, atol=0.0)


class TestNormTable:
    @pytest.mark.parametrize("mode", list(NormalizationMode))
    def test_vector_table_equals_scalar_norm(self, paper_link, materials_db, scene30, mode):
        _, rx = scan_positions(scene30, ScanSpec())
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.1, mode)
        for alpha in range(1, 11):
            scalar = [normalization_f(single(0.3, alpha), float(t), mode) for t in pattern.tile_theta]
            assert pattern._norm(alpha).tolist() == scalar


class TestDeterminism:
    def test_bit_identical_repeat(self, paper_link, materials_db, scene30):
        spec = ScanSpec()
        a = simulate_scan(scene30, spec, dual(0.4, 2, 9, 0.3), paper_link, materials_db, 0.25)
        b = simulate_scan(scene30, spec, dual(0.4, 2, 9, 0.3), paper_link, materials_db, 0.25)
        assert a == b

    def test_reciprocity_of_lengths(self, paper_link, materials_db, scene30):
        rx = rx_position(scene30, 1.5, 40.0, 0.1)
        forward = build_pattern(scene30, rx[None, :], paper_link, materials_db, 0.5)
        swapped_scene = Scene(wall=scene30.wall, tx=rx, carrier_frequency=scene30.carrier_frequency)
        backward = build_pattern(swapped_scene, scene30.tx[None, :], paper_link, materials_db, 0.5)
        assert np.allclose(forward._lengths, backward._lengths, rtol=0.0, atol=1e-12)


class TestScan:
    def test_arc_record_count(self, paper_link, materials_db, scene30):
        records = simulate_scan(scene30, ScanSpec(), single(0.3), paper_link, materials_db, 0.5)
        assert len(records) == 19

    def test_cylinder_record_count(self, paper_link, materials_db, scene30):
        spec = ScanSpec(height_offsets=(0.0, 0.10, 0.20, 0.30))
        records = simulate_scan(scene30, spec, single(0.3), paper_link, materials_db, 0.5)
        assert len(records) == 76
        assert sorted({r.delta_h_cm for r in records}) == [0.0, 10.0, 20.0, 30.0]

    def test_dual_beats_single_toward_backscatter(self, paper_link, materials_db, scene30):
        # with the mix weighted 80% toward the incident direction, the dual
        # model returns more power at the backscatter arc position (the Tx
        # azimuth) than a single lobe with the same S
        spec = ScanSpec()
        dual_recs = simulate_scan(scene30, spec, dual(0.35, 1, 10, 0.2), paper_link, materials_db, 0.2)
        single_recs = simulate_scan(scene30, spec, single(0.35, 4), paper_link, materials_db, 0.2)
        at = {r.azimuth_deg: r for r in dual_recs}
        ref = {r.azimuth_deg: r for r in single_recs}
        assert at[-30.0].power_dbm > ref[-30.0].power_dbm + 1.0

    def test_smooth_and_marble_profiles_close(self, paper_link, materials_db):
        # overlapping best-fit S (0.20 for both): profiles within 2 dB everywhere
        spec = ScanSpec()
        smooth = simulate_scan(paper_scene("smooth_wall", 30.0), spec, single(0.20), paper_link, materials_db, 0.2)
        marble = simulate_scan(paper_scene("marble_wall", 30.0), spec, single(0.20), paper_link, materials_db, 0.2)
        for a, b in zip(smooth, marble):
            assert abs(a.power_dbm - b.power_dbm) <= 2.0

    def test_csv_shape_matches_measured_plus_split(self, paper_link, materials_db, scene30, tmp_path):
        records = simulate_scan(scene30, ScanSpec(), single(0.3), paper_link, materials_db, 0.5)
        path = tmp_path / "sim.csv"
        write_simulated_scan(records, path)
        header = path.read_text().splitlines()[0]
        assert header == "angle_deg,delta_h_cm,power_dbm,specular_dbm,diffuse_dbm"
        scan = read_scan(path)
        assert len(scan) == 19
        assert scan.powers_dbm() == [r.power_dbm for r in records]


class TestConvergenceProbe:
    def test_settles_at_default_geometry(self, paper_link, materials_db, scene30):
        rx = rx_position(scene30, 1.5, 30.0, 0.0)
        report = convergence_probe(scene30, rx, single(0.35), paper_link, materials_db)
        assert [e[0] for e in report.entries] == [0.4, 0.2, 0.1, 0.05, 0.025]
        assert report.converged
        powers_db = [10.0 * math.log10(p) for _, p in report.entries]
        assert abs(powers_db[-1] - powers_db[-2]) < 0.1

    def test_far_receiver_monotone_settling(self, paper_link, materials_db, scene30):
        rx = rx_position(scene30, 12.0, 30.0, 0.0)
        report = convergence_probe(scene30, rx, single(0.35), paper_link, materials_db)
        powers_db = [10.0 * math.log10(p) for _, p in report.entries]
        assert all(b <= a + 1e-9 for a, b in zip(powers_db, powers_db[1:]))
        assert report.converged

    def test_zero_s_entries_all_equal_specular(self, paper_link, materials_db, scene30):
        rx = rx_position(scene30, 1.5, 30.0, 0.0)
        report = convergence_probe(scene30, rx, single(0.0), paper_link, materials_db)
        powers = {p for _, p in report.entries}
        assert len(powers) == 1
        _, spec_w, _ = at_receiver(scene30, rx, single(0.0), paper_link, materials_db, 0.1)
        assert next(iter(powers)) == pytest.approx(spec_w, rel=1e-12)

    @pytest.mark.parametrize(
        "azimuth_deg",
        [
            pytest.param(
                az,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="a receiver in the wall plane sees the tile sum of dA/r^2, which diverges"
                    " logarithmically as the tiles shrink",
                ),
            )
            if abs(az) == 90.0
            else az
            for az in ScanSpec().azimuths_deg()
        ],
    )
    def test_every_default_arc_position_converges(self, azimuth_deg, paper_link, materials_db, scene30):
        rx = rx_position(scene30, ScanSpec().radius, azimuth_deg, 0.0)
        report = convergence_probe(scene30, rx, dual(0.35, 4, 10, 0.2), paper_link, materials_db)
        assert report.converged, report.entries

    def test_specular_power_tiling_independent(self, paper_link, materials_db, scene30):
        rx = rx_position(scene30, 1.5, 30.0, 0.0)
        spec_values = set()
        for edge in (0.4, 0.1, 0.025):
            _, spec_w, _ = at_receiver(scene30, rx, single(0.4), paper_link, materials_db, edge)
            spec_values.add(spec_w)
        assert len(spec_values) == 1


def scattered_and_intercepted(material, theta_deg, params, link, materials):
    """Diffuse power leaving a 1 m wall through a far hemisphere of receivers, and the power it intercepts.

    The ungated tile powers of every receiver are summed, turned into flux
    through the receive aperture and integrated by the midpoint rule on a
    20 x 40 (theta, phi) grid at 60 m; linear units, HEMISPHERE mode.
    """
    scene = paper_scene(material, theta_deg, wall_width=1.0, wall_height=1.0)
    radius, n_theta, n_phi = 60.0, 20, 40
    theta = (np.arange(n_theta) + 0.5) * (math.pi / 2) / n_theta
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi) / n_phi
    t, p = np.meshgrid(theta, phi, indexing="ij")
    # the wall normal is +x
    directions = np.stack([np.cos(t), np.sin(t) * np.cos(p), np.sin(t) * np.sin(p)], axis=-1).reshape(-1, 3)
    pattern = build_pattern(scene, scene.wall.center + radius * directions, link, materials, 0.25)
    diff_w = pattern.tile_powers(params.s_coeff, *params.shape).sum(axis=1)
    aperture = link.g_r * link.wavelength**2 / (4.0 * math.pi)
    d_omega = (math.pi / 2 / n_theta) * (2.0 * math.pi / n_phi)
    scattered = float((diff_w / aperture * radius**2 * np.sin(t).reshape(-1) * d_omega).sum())

    centers, area = tile_centers(scene, 0.25)
    tx_dist = np.linalg.norm(centers - scene.tx, axis=1)
    incident_flux = link.p_t * link.g_t / (4.0 * math.pi * tx_dist**2)
    intercepted = float((incident_flux * area * np.cos(pattern.tile_theta)).sum())
    return scattered, intercepted


class TestEnergySanity:
    # The diffuse power integrates to 2 S^2 of the intercepted power (see
    # the xfail test below), so the bound holds for S up to 1/sqrt(2); the
    # draws stop at 0.7, where 2 S^2 = 0.98 leaves room for the 0.3%
    # quadrature error of the hemisphere grid.
    @settings(deadline=None, max_examples=25)
    @given(
        material=st.sampled_from(default_materials().names()),
        s=st.floats(0.0, 0.7),
        alpha=st.integers(1, 10),
        theta_deg=st.floats(0.0, 80.0),
    )
    def test_scattered_power_bounded_by_intercepted(self, material, s, alpha, theta_deg, paper_link, materials_db):
        params = single(s, alpha)
        scattered, intercepted = scattered_and_intercepted(material, theta_deg, params, paper_link, materials_db)
        assert scattered <= intercepted

    @pytest.mark.xfail(
        strict=True,
        reason="diffuse power is twice S^2 of the intercepted power: K^2 = 60 P_t G_t is a peak-field "
        "constant, while the G_r lambda^2 / (480 pi^2) receive factor takes the field as RMS",
    )
    @pytest.mark.parametrize("theta_deg, alpha", [(0.0, 1), (30.0, 4), (80.0, 10)])
    def test_scattered_power_is_s_squared_of_intercepted(self, theta_deg, alpha, paper_link, materials_db):
        s = 0.5
        params = single(s, alpha)
        scattered, intercepted = scattered_and_intercepted("rough_wall", theta_deg, params, paper_link, materials_db)
        assert scattered == pytest.approx(s * s * intercepted, rel=0.01)


def fresnel_margins(scene, rx, wavelength):
    """Distance of each receiver's reflection point from the nearest wall edge, in first-Fresnel-zone radii."""
    wall = scene.wall
    tx_height = float(np.dot(scene.tx - wall.center, wall.normal))
    rx_height = (rx - wall.center) @ wall.normal
    mirrored = scene.tx - 2.0 * tx_height * wall.normal
    point = mirrored + (tx_height / (tx_height + rx_height))[:, None] * (rx - mirrored)
    d_in, d_out = np.linalg.norm(point - scene.tx, axis=1), np.linalg.norm(rx - point, axis=1)
    radius = np.sqrt(wavelength * d_in * d_out / (d_in + d_out))
    to_edge = np.minimum(
        wall.width / 2.0 - np.abs((point - wall.center) @ wall.u_axis),
        wall.height / 2.0 - np.abs((point - wall.center) @ wall.w_axis),
    )
    return to_edge / radius


class TestPhysicalOptics:
    """The image-method specular path against a coherent Kirchhoff sum over a smooth wall."""

    @pytest.mark.parametrize("pol", list(Polarization))
    def test_image_path_matches_kirchhoff_sum(self, pol, paper_link):
        wavelength = paper_link.wavelength
        materials = MaterialDatabase([Material("smooth", eps_r=6.0, h_rms=0.0)])
        scene = paper_scene("smooth", 30.0, wall_width=1.0, wall_height=1.0)
        rx = np.array(
            [rx_position(scene, 1.5, az, dh) for dh in (0.0, 0.2) for az in ScanSpec().azimuths_deg()]
        )
        inside = np.flatnonzero(fresnel_margins(scene, rx, wavelength) >= 2.0)
        assert inside.size >= 6
        spec_power = build_pattern(scene, rx[inside], paper_link, materials, 0.5, polarization=pol).spec_power
        assert np.all(spec_power > 0.0)

        centers, area = tile_centers(scene, wavelength / 6.0)
        paths = SurfacePaths(scene.tx, centers, scene.wall.normal)
        # Gamma at each tile's own incidence angle, interpolated from a fine table
        # (Gamma is smooth in the angle; the table error is below 1e-6)
        theta = np.arccos(paths.cos_ti)
        table = np.linspace(theta.min(), theta.max(), 4001)
        gamma = np.interp(theta, table, [fresnel_gamma(6.0, t, pol) for t in table.tolist()])
        k = 2.0 * math.pi / wavelength
        for p, power in zip(inside.tolist(), spec_power.tolist()):
            r_s, cos_ts = paths.receiver(rx[p : p + 1])[0][0], paths.cos_ts(rx[p])
            # (1 / (j lambda)) sum Gamma e^(-jk(r_i + r_s)) / (r_i r_s) (cos theta_i + cos theta_s) / 2 dA,
            # which is Gamma e^(-jkL) / L for the image path of length L off an infinite wall
            terms = gamma * np.exp(-1j * k * (paths.r_i + r_s)) / (paths.r_i * r_s) * (paths.cos_ti + cos_ts) / 2.0
            field = terms.sum() * area / (1j * wavelength)
            # the free-space link budget turns |field|^2 in 1/m^2 into received watts
            link_scale = paper_link.p_t * paper_link.g_t * paper_link.g_r * (wavelength / (4.0 * math.pi)) ** 2
            po_power = link_scale * abs(field) ** 2
            assert abs(10.0 * math.log10(po_power / power)) <= 0.5
