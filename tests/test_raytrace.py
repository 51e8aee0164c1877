import math

import numpy as np
import pytest

from mmscatter import dbm_to_watts
from mmscatter.fileio import read_scan, write_simulated_scan
from mmscatter.geometry import (
    DEFAULT_CYLINDER_HEIGHTS,
    ScanSpec,
    Scene,
    Wall,
    paper_scene,
    patch_angles,
    rx_position,
    scan_positions,
)
from mmscatter.lobes import LobeModel, LobeParams, NormalizationMode, normalization_f, scattered_field_sq
from mmscatter.materials import IncidenceContext, Material, initial_scattering_coefficient
from mmscatter.raytrace import (
    LENGTH_GATE_M,
    PathKind,
    build_pattern,
    convergence_probe,
    simulate_point,
    simulate_scan,
    tile_centers,
)


def single(s, alpha_r=4):
    return LobeParams(model=LobeModel.SINGLE_LOBE, s_coeff=s, alpha_r=alpha_r)


def dual(s, alpha_r, alpha_i, lam):
    return LobeParams(model=LobeModel.DUAL_LOBE, s_coeff=s, alpha_r=alpha_r, alpha_i=alpha_i, lambda_mix=lam)


@pytest.fixture
def scene30():
    return paper_scene("rough_wall", 30.0)


class TestSimulatePoint:
    def test_dead_scene_has_no_contributions(self, paper_link, materials_db):
        # eps_r = 1 gives Gamma = 0; S = 0 kills the diffuse side
        vacuum_wall = Material("void", eps_r=1.0, h_rms=1e-4, thickness=0.1)
        scene = Scene(
            wall=Wall(center=np.zeros(3), normal=np.array([1.0, 0.0, 0.0]), width=3.0, height=3.0, material="void"),
            tx=np.array([1.3, -0.75, 0.0]),
            carrier_frequency=28e9,
        )
        rx = np.array([1.3, 0.75, 0.0])
        result = simulate_point(scene, rx, single(0.0), paper_link, vacuum_wall, 0.5)
        assert result.contributions == ()
        assert result.gating_report.retained == 0
        assert result.total_power_dbm == float("-inf")

    def test_metal_specular_dominates_at_specular_position(self, paper_link, materials_db):
        scene = paper_scene("metal_sheet", 30.0)
        s_theory = initial_scattering_coefficient(
            materials_db.get("metal_sheet"), IncidenceContext(scene.incidence_angle, paper_link.wavelength)
        ).s_coeff
        rx = rx_position(scene, 1.5, 30.0, 0.0)
        result = simulate_point(scene, rx, single(s_theory), paper_link, materials_db, 0.2)
        assert result.specular_power_dbm > result.diffuse_power_dbm

    def test_inverse_square_on_specular(self, paper_link, materials_db):
        near = paper_scene("rough_wall", 30.0, tx_distance=1.5)
        far = paper_scene("rough_wall", 30.0, tx_distance=3.0)
        p_near = simulate_point(near, rx_position(near, 1.5, 30.0, 0.0), single(0.3), paper_link, materials_db, 0.5)
        p_far = simulate_point(far, rx_position(far, 3.0, 30.0, 0.0), single(0.3), paper_link, materials_db, 0.5)
        drop = p_near.specular_power_dbm - p_far.specular_power_dbm
        assert drop == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_linear_total_identity(self, paper_link, materials_db, scene30):
        rx = rx_position(scene30, 1.5, 20.0, 0.0)
        result = simulate_point(scene30, rx, dual(0.4, 2, 9, 0.3), paper_link, materials_db, 0.25)
        total_w = dbm_to_watts(result.total_power_dbm)
        kept_sum = sum(c.power for c in result.contributions)
        assert kept_sum == pytest.approx(total_w, rel=1e-12)
        spec_sum = sum(c.power for c in result.contributions if c.kind is PathKind.SPECULAR)
        diff_sum = sum(c.power for c in result.contributions if c.kind is PathKind.DIFFUSE)
        assert spec_sum == pytest.approx(dbm_to_watts(result.specular_power_dbm), rel=1e-12)
        assert diff_sum == pytest.approx(dbm_to_watts(result.diffuse_power_dbm), rel=1e-12)

    def test_path_lengths_and_delays(self, paper_link, materials_db, scene30):
        rx = rx_position(scene30, 1.5, 30.0, 0.0)
        result = simulate_point(scene30, rx, single(0.3), paper_link, materials_db, 0.5)
        strongest = max(result.contributions, key=lambda c: c.power)
        assert strongest.excess_delay == 0.0
        gate_seconds = LENGTH_GATE_M / 3.0e8
        for c in result.contributions:
            assert abs(c.excess_delay) <= gate_seconds + 1e-15


class TestGating:
    def test_monotone_in_threshold(self, paper_link, materials_db, scene30):
        positions = np.array([p.position for p in scan_positions(scene30, ScanSpec())])
        pattern = build_pattern(scene30, positions, paper_link, materials_db, 0.25)
        params = dual(0.5, 1, 10, 0.2)
        tight, *_ = pattern.predict(params, power_gate_db=5.0)
        default, *_ = pattern.predict(params, power_gate_db=35.0)
        loose, *_ = pattern.predict(params, power_gate_db=80.0)
        assert np.all(default >= tight)
        assert np.all(loose >= default)

    def test_delay_gate_drops_far_tiles(self, paper_link, materials_db):
        # a wide wall has tiles whose path length exceeds the 1.5 m window
        scene = paper_scene("rough_wall", 30.0, wall_width=8.0)
        rx = rx_position(scene, 1.5, 30.0, 0.0)
        result = simulate_point(scene, rx, single(0.3), paper_link, materials_db, 0.5)
        assert result.gating_report.dropped_delay > 0
        anchor = max(result.contributions, key=lambda c: c.power).path_length
        for c in result.contributions:
            assert abs(c.path_length - anchor) <= LENGTH_GATE_M + 1e-12

    def test_batched_gate_equals_per_mix_gate(self, paper_link, materials_db, scene30):
        rx = np.array([p.position for p in scan_positions(scene30, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))])
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.25)
        lambdas = [k / 10 for k in range(11)]
        rows = np.array([0, 5, 9, 18, 19, 37, 75])
        batched = pattern.gate(pattern.dual_tile_powers(0.4, 2, 9, lambdas, rows), rows)
        for k, lam in enumerate(lambdas):
            per_mix = pattern.gate(pattern.tile_powers(dual(0.4, 2, 9, lam), rows), rows)
            for b, m in zip(batched, per_mix):
                assert np.array_equal(b[k], m)


class TestContributions:
    """The per-path view of one receiver against the gated powers of predict."""

    @pytest.mark.parametrize(
        "material, theta_deg, params, wall_width",
        [
            ("rough_wall", 30.0, single(0.3), 3.0),
            ("metal_sheet", 20.0, dual(0.3, 3, 8, 0.35), 3.0),
            # a wide wall has tiles outside the delay window
            ("rough_wall", 30.0, single(0.3), 8.0),
        ],
    )
    def test_contributions_agree_with_predict(self, material, theta_deg, params, wall_width, paper_link, materials_db):
        scene = paper_scene(material, theta_deg, wall_width=wall_width)
        rx = np.array([p.position for p in scan_positions(scene, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))])
        pattern = build_pattern(scene, rx, paper_link, materials_db, 0.25)
        total_w, spec_w, diff_w, dropped_power, dropped_delay = pattern.predict(params)
        all_tile_p = pattern.tile_powers(params)
        for p in range(len(rx)):
            kept, report = pattern.contributions(params, p)
            assert report.dropped_power == dropped_power[p]
            assert report.dropped_delay == dropped_delay[p]
            assert math.fsum(c.power for c in kept) == pytest.approx(total_w[p], rel=1e-12)
            # the window around the strongest path, written out for this one receiver
            tile_p = all_tile_p[p]
            if pattern.spec_power[p] >= tile_p.max():
                anchor = pattern._spec_length[p]
            else:
                anchor = pattern._lengths[p, tile_p.argmax()]
            window = np.flatnonzero((tile_p > 0.0) & (np.abs(pattern._lengths[p] - anchor) <= LENGTH_GATE_M))
            diffuse_ids = [c.patch_id for c in kept if c.kind is PathKind.DIFFUSE]
            assert diffuse_ids == (window.tolist() if diff_w[p] > 0.0 else [])
            assert report.retained == len(diffuse_ids) + int(spec_w[p] > 0.0)
        if wall_width > 3.0:
            assert np.any(dropped_delay > 0)


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


class TestKernelAgreement:
    @pytest.mark.parametrize("mode", list(NormalizationMode))
    @pytest.mark.parametrize("params", [single(0.4, 3), dual(0.4, 2, 9, 0.3)], ids=["single", "dual"])
    def test_scalar_kernel_matches_tile_powers(self, params, mode, paper_link, materials_db, scene30):
        rx = np.array([p.position for p in scan_positions(scene30, ScanSpec())])
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.25, mode)
        centers, area = tile_centers(scene30, 0.25)
        rx_scale = paper_link.g_r * paper_link.wavelength**2 / (480.0 * math.pi**2)
        geoms = [[patch_angles(scene30.tx, r, c, scene30.wall.normal, area) for c in centers] for r in rx]
        scalar = np.array([[scattered_field_sq(params, g, paper_link, mode) for g in row] for row in geoms])
        assert np.allclose(scalar * rx_scale, pattern.tile_powers(params), rtol=1e-12, atol=0.0)


class TestNormTable:
    @pytest.mark.parametrize("mode", list(NormalizationMode))
    def test_vector_table_equals_scalar_norm(self, paper_link, materials_db, scene30, mode):
        rx = np.array([p.position for p in scan_positions(scene30, ScanSpec())])
        pattern = build_pattern(scene30, rx, paper_link, materials_db, 0.1, mode)
        for alpha in range(1, 11):
            scalar = [normalization_f(single(0.3, alpha), float(t), mode) for t in pattern.tile_theta]
            assert pattern._norms(alpha).tolist() == scalar


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
        baseline = simulate_point(scene30, rx, single(0.0), paper_link, materials_db, 0.1)
        assert next(iter(powers)) == pytest.approx(dbm_to_watts(baseline.specular_power_dbm), rel=1e-12)

    def test_specular_power_tiling_independent(self, paper_link, materials_db, scene30):
        rx = rx_position(scene30, 1.5, 30.0, 0.0)
        spec_values = set()
        for edge in (0.4, 0.1, 0.025):
            result = simulate_point(scene30, rx, single(0.4), paper_link, materials_db, edge)
            spec_values.add(result.specular_power_dbm)
        assert len(spec_values) == 1


class TestEnergySanity:
    def test_scattered_power_bounded_by_intercepted(self, paper_link, materials_db):
        # integrate the diffuse flux leaving the wall over a dense far
        # hemisphere of receivers and compare with the power the wall
        # intercepts from the Tx (loose factor-of-1 bound, linear units)
        scene = paper_scene("rough_wall", 30.0, wall_width=1.0, wall_height=1.0)
        s_value = 0.6238
        params = single(s_value, 4)
        radius = 60.0
        n_theta, n_phi = 40, 80
        centers_theta = [(it + 0.5) * (math.pi / 2) / n_theta for it in range(n_theta)]
        centers_phi = [(ip + 0.5) * (2.0 * math.pi) / n_phi for ip in range(n_phi)]
        positions = []
        for t in centers_theta:
            for p in centers_phi:
                direction = np.array(
                    [math.cos(t), math.sin(t) * math.cos(p), math.sin(t) * math.sin(p)]
                )  # wall normal is +x
                positions.append(scene.wall.center + radius * direction)
        pattern = build_pattern(scene, np.array(positions), paper_link, materials_db, 0.25)
        _, _, diff_w, _, _ = pattern.predict(params, power_gate_db=400.0)

        aperture = paper_link.g_r * paper_link.wavelength**2 / (4.0 * math.pi)
        d_omega = (math.pi / 2 / n_theta) * (2.0 * math.pi / n_phi)
        total_scattered = 0.0
        k = 0
        for t in centers_theta:
            for _p in centers_phi:
                flux = diff_w[k] / aperture
                total_scattered += flux * radius**2 * math.sin(t) * d_omega
                k += 1

        centers, area = tile_centers(scene, 0.25)
        cos_ti = np.cos(pattern.tile_theta)
        tx_dist = np.linalg.norm(centers - scene.tx, axis=1)
        intercepted = float(
            (paper_link.p_t * paper_link.g_t / (4.0 * math.pi * tx_dist**2) * area * cos_ti).sum()
        )
        assert total_scattered <= intercepted
