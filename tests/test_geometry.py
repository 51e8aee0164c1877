import math
from types import SimpleNamespace

import numpy as np
import pytest

from mmscatter.geometry import (
    DEFAULT_CYLINDER_HEIGHTS,
    ScanSpec,
    Scene,
    SurfacePaths,
    Wall,
    paper_scene,
    rx_position,
    scan_positions,
    specular_paths,
)


@pytest.fixture
def scene30():
    return paper_scene("rough_wall", 30.0)


class TestScanPositions:
    def test_arc_count(self, scene30):
        keys, positions = scan_positions(scene30, ScanSpec())
        assert len(keys) == 19
        assert positions.shape == (19, 3)

    def test_cylinder_count(self, scene30):
        keys, positions = scan_positions(scene30, ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS))
        assert len(keys) == 76
        assert positions.shape == (76, 3)

    def test_arc_radius_exact(self, scene30):
        for position in scan_positions(scene30, ScanSpec())[1]:
            dist = float(np.linalg.norm(position - scene30.wall.center))
            assert abs(dist - 1.5) <= 1e-12

    def test_positions_are_rx_position_of_each_key(self, scene30):
        # the fit places each scan point with rx_position: simulate's receivers must be the same floats
        spec = ScanSpec(height_offsets=DEFAULT_CYLINDER_HEIGHTS)
        keys, positions = scan_positions(scene30, spec)
        assert positions.tolist() == [rx_position(scene30, spec.radius, az, dh).tolist() for az, dh in keys]

    def test_ordering(self, scene30):
        keys, _ = scan_positions(scene30, ScanSpec(height_offsets=(0.2, 0.0)))
        by_height = [(delta_h, azimuth_deg) for azimuth_deg, delta_h in keys]
        assert by_height == sorted(by_height)

    def test_specular_side_is_positive_azimuth(self, scene30):
        # Tx sits at azimuth -30; its mirror direction is +30, where the
        # image path reflects at the wall center: two arc radii long
        keys, positions = scan_positions(scene30, ScanSpec())
        length, _ = specular_paths(scene30.tx, positions, scene30.wall)
        by_azimuth = dict(zip((azimuth_deg for azimuth_deg, _ in keys), length.tolist()))
        assert by_azimuth[30.0] == pytest.approx(3.0, abs=1e-12)
        assert by_azimuth[-30.0] != pytest.approx(3.0, abs=1e-3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScanSpec(radius=0.0)
        with pytest.raises(ValueError):
            ScanSpec(azimuth_step_deg=7.0, azimuth_range_deg=180.0)
        with pytest.raises(ValueError):
            ScanSpec(height_offsets=())

    def test_azimuth_count_is_bounded(self):
        # counted, never built
        message = r"^azimuth step 1e-300 over range 180.0 gives 1.8e\+302 azimuths, more than 100,000$"
        with pytest.raises(ValueError, match=message):
            ScanSpec(azimuth_step_deg=1e-300)
        with pytest.raises(ValueError, match=r"gives inf azimuths"):
            ScanSpec(azimuth_step_deg=5e-324)
        assert len(ScanSpec(azimuth_step_deg=180.0 / 99_999).azimuths_deg()) == 100_000


class TestSpecularPoint:
    """The image-method specular path of geometry.specular_paths."""

    def test_symmetric_pair_reflects_at_center(self, scene30):
        rx = rx_position(scene30, 1.5, 30.0, 0.0)
        length, cos_theta = specular_paths(scene30.tx, rx[None], scene30.wall)
        # Tx and Rx both 1.5 m from the wall center, 30 deg either side of the normal
        assert abs(float(length[0]) - 3.0) <= 1e-12
        assert abs(float(cos_theta[0]) - math.cos(math.radians(30.0))) <= 1e-12

    def test_image_method_closed_form(self):
        # wall plane x = 0, normal +x; the path is as long as the straight
        # line from the mirrored Tx, and meets the wall at the angle of that line
        wall = Wall(center=np.zeros(3), normal=np.array([1.0, 0.0, 0.0]), width=3.0, height=3.0, material="m")
        tx = np.array([1.2, -0.75, 0.2])
        rx = np.array([0.8, 0.75, 0.5])
        mirror = np.array([-1.2, -0.75, 0.2])
        expected_length = float(np.linalg.norm(rx - mirror))
        length, cos_theta = specular_paths(tx, np.array([rx, rx + [1.0, 0.0, 0.0]]), wall)
        assert abs(float(length[0]) - expected_length) <= 1e-14
        assert abs(float(cos_theta[0]) - (1.2 + 0.8) / expected_length) <= 1e-14
        # every receiver of the batch gets its own path
        assert abs(float(length[1]) - float(np.linalg.norm(rx + [1.0, 0.0, 0.0] - mirror))) <= 1e-14

    def test_misses_narrow_wall(self):
        wall = Wall(center=np.zeros(3), normal=np.array([1.0, 0.0, 0.0]), width=0.4, height=3.0, material="m")
        tx = np.array([1.0, -1.5, 0.0])
        rx = np.array([[1.0, -0.9, 0.0], [1.0, 1.5, 0.0]])
        length, cos_theta = specular_paths(tx, rx, wall)
        # the first reflection point lies 1.2 m off center, past the 0.2 m half width
        assert length.tolist() == [0.0, pytest.approx(2.0 * math.hypot(1.0, 1.5))]
        assert cos_theta[0] == 0.0

    def test_wrong_side_rejected(self):
        wall = Wall(center=np.zeros(3), normal=np.array([1.0, 0.0, 0.0]), width=3.0, height=3.0, material="m")
        with pytest.raises(ValueError):
            specular_paths(np.array([-1.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0]]), wall)
        with pytest.raises(ValueError):
            specular_paths(np.array([1.0, 0.0, 0.0]), np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), wall)

    def test_receiver_in_the_wall_plane_up_to_rounding(self):
        # 1e-16 m behind the plane is in it: no specular path, but a receiver;
        # 1e-6 m behind is not
        wall = Wall(center=np.zeros(3), normal=np.array([1.0, 0.0, 0.0]), width=3.0, height=3.0, material="m")
        tx, points = np.array([1.0, -1.0, 0.0]), np.array([[0.0, 0.5, 0.0], [0.0, -0.5, 0.2]])
        in_plane = np.array([-1e-16, 1.5, 0.0])
        length, cos_theta = specular_paths(tx, in_plane[None, :], wall)
        assert (length.tolist(), cos_theta.tolist()) == ([0.0], [0.0])
        SurfacePaths(tx, points, wall.normal).receiver(in_plane)
        behind = np.array([-1e-6, 1.5, 0.0])
        with pytest.raises(ValueError):
            specular_paths(tx, behind[None, :], wall)
        with pytest.raises(ValueError):
            SurfacePaths(tx, points, wall.normal).receiver(behind)


def path_geometry(tx, rx, point, normal):
    """Distances and angles (rad) of the path over one surface point, through SurfacePaths."""
    paths = SurfacePaths(tx, point[None, :], normal)
    r_s, cos_psi_r, cos_psi_i = paths.receiver(rx)
    cosines = [paths.cos_ti[0], paths.cos_ts(rx)[0], cos_psi_r[0], cos_psi_i[0]]
    theta_i, theta_s, psi_r, psi_i = np.arccos(cosines).tolist()
    return SimpleNamespace(
        r_i=float(paths.r_i[0]), r_s=float(r_s[0]), theta_i=theta_i, theta_s=theta_s, psi_r=psi_r, psi_i=psi_i
    )


class TestPatchAngles:
    """The path over one surface point, as the angles command computes it."""

    def test_specular_receiver_zeroes_psi_r(self, scene30):
        rx = rx_position(scene30, 1.5, 30.0, 0.0)
        geom = path_geometry(scene30.tx, rx, scene30.wall.center, scene30.wall.normal)
        assert geom.psi_r <= 1e-12

    def test_backscatter_receiver_zeroes_psi_i(self, scene30):
        # Rx back along the incoming ray, closer to the wall than the Tx
        patch = scene30.wall.center
        rx = patch + 0.6 * (scene30.tx - patch)
        geom = path_geometry(scene30.tx, rx, patch, scene30.wall.normal)
        assert geom.psi_i <= 1e-12

    def test_raised_receiver_breaks_specular_alignment(self, scene30):
        rx = rx_position(scene30, 1.5, 30.0, 0.30)
        geom = path_geometry(scene30.tx, rx, scene30.wall.center, scene30.wall.normal)
        assert geom.psi_r > 0.05

    def test_inplane_psi_r_equals_angle_difference(self, scene30):
        for az in (0.0, 10.0, 40.0, 80.0):
            rx = rx_position(scene30, 1.5, az, 0.0)
            geom = path_geometry(scene30.tx, rx, scene30.wall.center, scene30.wall.normal)
            assert abs(geom.psi_r - abs(geom.theta_s - geom.theta_i)) <= 1e-12

    def test_center_matches_scene_incidence(self, scene30):
        rx = rx_position(scene30, 1.5, 0.0, 0.0)
        geom = path_geometry(scene30.tx, rx, scene30.wall.center, scene30.wall.normal)
        assert abs(geom.theta_i - scene30.incidence_angle) <= 1e-12

    def test_mirror_symmetry_across_incidence_plane(self, scene30):
        # the incidence plane is z = 0 here; flipping the receiver height
        # leaves both lobe angles unchanged
        rx_up = rx_position(scene30, 1.5, 20.0, 0.25)
        rx_down = rx_up.copy()
        rx_down[2] = -rx_down[2]
        g_up = path_geometry(scene30.tx, rx_up, scene30.wall.center, scene30.wall.normal)
        g_down = path_geometry(scene30.tx, rx_down, scene30.wall.center, scene30.wall.normal)
        assert abs(g_up.psi_r - g_down.psi_r) <= 1e-12
        assert abs(g_up.psi_i - g_down.psi_i) <= 1e-12

    def test_distance_fields(self, scene30):
        rx = rx_position(scene30, 1.5, 30.0, 0.0)
        geom = path_geometry(scene30.tx, rx, scene30.wall.center, scene30.wall.normal)
        assert geom.r_i == pytest.approx(1.5, abs=1e-12)
        assert geom.r_s == pytest.approx(1.5, abs=1e-12)

    def test_degenerate_patch(self, scene30):
        with pytest.raises(ValueError):
            path_geometry(scene30.tx, scene30.wall.center, scene30.wall.center, scene30.wall.normal)
        with pytest.raises(ValueError):
            path_geometry(scene30.wall.center, scene30.tx, scene30.wall.center, scene30.wall.normal)


class TestSceneValidation:
    def test_normal_must_be_unit(self):
        with pytest.raises(ValueError):
            Wall(center=np.zeros(3), normal=np.array([1.0, 1.0, 0.0]), width=3.0, height=3.0, material="m")

    def test_normal_must_not_be_vertical(self):
        with pytest.raises(ValueError):
            Wall(center=np.zeros(3), normal=np.array([0.0, 0.0, 1.0]), width=3.0, height=3.0, material="m")

    def test_tx_must_be_outward(self):
        wall = Wall(center=np.zeros(3), normal=np.array([1.0, 0.0, 0.0]), width=3.0, height=3.0, material="m")
        with pytest.raises(ValueError):
            Scene(wall=wall, tx=np.array([-1.0, 0.0, 0.0]), carrier_frequency=28e9)

    def test_tx_offset_squared_must_be_finite(self):
        wall = Wall(center=np.zeros(3), normal=np.array([1.0, 0.0, 0.0]), width=3.0, height=3.0, material="m")
        with pytest.raises(ValueError, match=r"tx at \[1e\+170, -0.6, 0.0\] m is too far from the wall center"):
            Scene(wall=wall, tx=np.array([1e170, -0.6, 0.0]), carrier_frequency=28e9)

    def test_paper_scene_angle(self):
        for theta in (0.0, 20.0, 45.0, 80.0):
            scene = paper_scene("rough_wall", theta)
            assert math.degrees(scene.incidence_angle) == pytest.approx(theta, abs=1e-9)

