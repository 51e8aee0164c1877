"""Scene description and the arc / semicylinder measurement geometry.

A single rectangular wall is illuminated by a fixed Tx; the Rx is stepped
along a circular arc of configurable radius around the wall center (and
optionally raised by a set of height offsets, sweeping a semicylinder).
Azimuth 0 deg is the wall normal at the center; positive azimuth is the
specular side of the Tx. SurfacePaths holds the geometry of the
single-bounce paths over surface elements that the scattering model needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Wall",
    "Scene",
    "ScanSpec",
    "RxPosition",
    "ScatterGeometry",
    "SurfacePaths",
    "scan_positions",
    "specular_point",
    "patch_angles",
    "paper_scene",
]

_UP = np.array([0.0, 0.0, 1.0])

DEFAULT_ARC_HEIGHTS = (0.0,)
DEFAULT_CYLINDER_HEIGHTS = (0.0, 0.10, 0.20, 0.30)


def _as_vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Wall:
    """Vertical rectangular wall: center, outward unit normal, extents, material name."""

    center: np.ndarray
    normal: np.ndarray
    width: float
    height: float
    material: str

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vec3(self.center, "wall center"))
        object.__setattr__(self, "normal", _as_vec3(self.normal, "wall normal"))
        if abs(float(np.linalg.norm(self.normal)) - 1.0) > 1e-12:
            raise ValueError("wall normal must be unit length (within 1e-12)")
        if self.width <= 0.0 or self.height <= 0.0:
            raise ValueError("wall width and height must be > 0")
        if abs(float(np.dot(self.normal, _UP))) > 1.0 - 1e-9:
            raise ValueError("wall normal must not be vertical")

    @property
    def u_axis(self) -> np.ndarray:
        """Horizontal in-wall axis (width direction)."""
        u = np.cross(_UP, self.normal)
        return u / np.linalg.norm(u)

    @property
    def w_axis(self) -> np.ndarray:
        """Vertical in-wall axis (height direction)."""
        return np.cross(self.normal, self.u_axis)

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        rel = point - self.center
        return (
            abs(float(np.dot(rel, self.u_axis))) <= self.width / 2.0 + tol
            and abs(float(np.dot(rel, self.w_axis))) <= self.height / 2.0 + tol
        )


@dataclass(frozen=True, eq=False)
class Scene:
    """One wall, one Tx position, one carrier frequency."""

    wall: Wall
    tx: np.ndarray
    carrier_frequency: float

    def __post_init__(self):
        object.__setattr__(self, "tx", _as_vec3(self.tx, "tx position"))
        if self.carrier_frequency <= 0.0:
            raise ValueError("carrier_frequency must be > 0 Hz")
        if float(np.dot(self.tx - self.wall.center, self.wall.normal)) <= 0.0:
            raise ValueError("tx must lie strictly on the outward side of the wall plane")

    @property
    def incidence_angle(self) -> float:
        """Incidence angle at the wall center, radians from the normal."""
        to_tx = self.tx - self.wall.center
        cos_t = float(np.dot(to_tx, self.wall.normal) / np.linalg.norm(to_tx))
        return math.acos(min(1.0, max(-1.0, cos_t)))

    @property
    def specular_sign(self) -> float:
        """Sign of the u-axis half-plane holding the specular direction (+1/-1)."""
        side = float(np.dot(self.tx - self.wall.center, self.wall.u_axis))
        return 1.0 if side <= 0.0 else -1.0


@dataclass(frozen=True)
class ScanSpec:
    """Receiver scan layout: arc radius, azimuth stepping, height offsets (m)."""

    radius: float = 1.5
    azimuth_step_deg: float = 10.0
    azimuth_range_deg: float = 180.0
    height_offsets: tuple[float, ...] = DEFAULT_ARC_HEIGHTS

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("scan radius must be > 0")
        if self.azimuth_step_deg <= 0.0 or self.azimuth_range_deg <= 0.0:
            raise ValueError("azimuth step and range must be > 0")
        steps = self.azimuth_range_deg / self.azimuth_step_deg
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(
                f"azimuth step {self.azimuth_step_deg} must divide range {self.azimuth_range_deg} evenly"
            )
        if len(self.height_offsets) == 0:
            raise ValueError("at least one height offset is required")
        object.__setattr__(self, "height_offsets", tuple(float(h) for h in self.height_offsets))

    def azimuths_deg(self) -> list[float]:
        n = round(self.azimuth_range_deg / self.azimuth_step_deg)
        half = self.azimuth_range_deg / 2.0
        return [-half + k * self.azimuth_step_deg for k in range(n + 1)]


@dataclass(frozen=True, eq=False)
class RxPosition:
    azimuth_deg: float
    delta_h: float
    position: np.ndarray


def rx_position(scene: Scene, radius: float, azimuth_deg: float, delta_h: float) -> np.ndarray:
    """Rx location on the scan cylinder: azimuth from the wall normal, specular side positive."""
    az = math.radians(azimuth_deg)
    wall = scene.wall
    return (
        wall.center
        + radius * (math.cos(az) * wall.normal + math.sin(az) * scene.specular_sign * wall.u_axis)
        + delta_h * wall.w_axis
    )


def scan_positions(scene: Scene, spec: ScanSpec) -> list[RxPosition]:
    """Ordered receiver positions, sorted by (delta_h, azimuth)."""
    positions = []
    for dh in sorted(spec.height_offsets):
        for az in spec.azimuths_deg():
            positions.append(RxPosition(azimuth_deg=az, delta_h=dh, position=rx_position(scene, spec.radius, az, dh)))
    return positions


def specular_point(tx: np.ndarray, rx: np.ndarray, wall: Wall) -> np.ndarray | None:
    """Image-method reflection point on the wall, or None if it misses the rectangle."""
    tx = _as_vec3(tx, "tx")
    rx = _as_vec3(rx, "rx")
    n = wall.normal
    tx_height = float(np.dot(tx - wall.center, n))
    rx_height = float(np.dot(rx - wall.center, n))
    if tx_height <= 0.0 or rx_height <= 0.0:
        raise ValueError("tx and rx must lie on the outward side of the wall plane")
    mirrored = tx - 2.0 * tx_height * n
    direction = rx - mirrored
    denom = float(np.dot(direction, n))
    if denom <= 0.0:
        return None
    t = -float(np.dot(mirrored - wall.center, n)) / denom
    if not 0.0 < t < 1.0:
        return None
    point = mirrored + t * direction
    if not wall.contains(point):
        return None
    return point


class SurfacePaths:
    """Single-bounce path geometry from a Tx over surface points, to one receiver at a time.

    The incident side is computed once for all points: r_i and cos_ti are
    (T,) arrays. receiver(rx) computes the scattered side. psi_r is the
    angle between the Rx direction and the mirror image of the incident
    direction, psi_i between the Rx direction and the reverse-incident
    direction; both are 3D angles, so the same values serve in-plane and
    raised receivers. Every cosine is clipped to [-1, 1].
    """

    def __init__(self, tx: np.ndarray, points: np.ndarray, normal: np.ndarray):
        self.points = points
        self.normal = normal
        to_point = points - tx
        self.r_i = np.linalg.norm(to_point, axis=1)
        if np.any(self.r_i == 0.0):
            raise ValueError("degenerate geometry: tx coincides with a surface point")
        self._v_i = to_point / self.r_i[:, None]
        self.cos_ti = np.clip(-(self._v_i @ normal), -1.0, 1.0)
        if np.any(self.cos_ti <= 0.0):
            raise ValueError("tx does not illuminate the surface from the outward side")
        self._spec_dir = self._v_i - 2.0 * (self._v_i @ normal)[:, None] * normal

    def receiver(self, rx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(r_s, cos_ts, cos_psi_r, cos_psi_i) per point for the receiver at rx."""
        from_point = rx - self.points
        r_s = np.linalg.norm(from_point, axis=1)
        if np.any(r_s == 0.0):
            raise ValueError("degenerate geometry: rx coincides with a surface point")
        v_s = from_point / r_s[:, None]
        cos_ts = np.clip(v_s @ self.normal, -1.0, 1.0)
        if np.any(cos_ts < 0.0):
            raise ValueError("rx lies behind the wall plane")
        cos_psi_r = np.clip((v_s * self._spec_dir).sum(axis=1), -1.0, 1.0)
        cos_psi_i = np.clip((v_s * -self._v_i).sum(axis=1), -1.0, 1.0)
        return r_s, cos_ts, cos_psi_r, cos_psi_i


@dataclass(frozen=True)
class ScatterGeometry:
    """Distances (m) and angles (rad) of one Tx -> surface element -> Rx path.

    theta_i and theta_s are measured from the surface normal; psi_r and
    psi_i are the lobe angles of SurfacePaths.
    """

    r_i: float
    r_s: float
    theta_i: float
    theta_s: float
    psi_r: float
    psi_i: float


def patch_angles(tx: np.ndarray, rx: np.ndarray, patch_center: np.ndarray, wall_normal: np.ndarray) -> ScatterGeometry:
    """Distances and angles of the path over one surface element (SurfacePaths for one point)."""
    paths = SurfacePaths(
        _as_vec3(tx, "tx"), _as_vec3(patch_center, "patch_center")[None, :], _as_vec3(wall_normal, "wall_normal")
    )
    r_s, cos_ts, cos_psi_r, cos_psi_i = paths.receiver(_as_vec3(rx, "rx"))
    theta_i, theta_s, psi_r, psi_i = np.arccos([paths.cos_ti[0], cos_ts[0], cos_psi_r[0], cos_psi_i[0]]).tolist()
    return ScatterGeometry(
        r_i=float(paths.r_i[0]), r_s=float(r_s[0]), theta_i=theta_i, theta_s=theta_s, psi_r=psi_r, psi_i=psi_i
    )


def paper_scene(
    material: str,
    theta_i_deg: float,
    frequency_hz: float = 28.0e9,
    tx_distance: float = 1.5,
    wall_width: float = 3.0,
    wall_height: float = 3.0,
) -> Scene:
    """Default measurement layout: wall at the origin, Tx on the incident side.

    The wall normal is +x and the specular side is +y; the Tx sits at the
    given distance and incidence angle on the -y side, at the wall-center
    height.
    """
    if not 0.0 <= theta_i_deg < 90.0:
        raise ValueError(f"theta_i_deg must be in [0, 90), got {theta_i_deg}")
    wall = Wall(
        center=np.zeros(3),
        normal=np.array([1.0, 0.0, 0.0]),
        width=wall_width,
        height=wall_height,
        material=material,
    )
    theta = math.radians(theta_i_deg)
    tx = wall.center + tx_distance * (math.cos(theta) * wall.normal - math.sin(theta) * wall.u_axis)
    return Scene(wall=wall, tx=tx, carrier_frequency=frequency_hz)
