"""Scene description and the arc / semicylinder measurement geometry.

A single rectangular wall is illuminated by a fixed Tx; the Rx is stepped
along a circular arc of configurable radius around the wall center (and
optionally raised by a set of height offsets, sweeping a semicylinder).
Azimuth 0 deg is the wall normal at the center; positive azimuth is the
specular side of the Tx. specular_paths runs the image method for every
receiver at once; SurfacePaths holds the geometry of the single-bounce
paths over surface elements that the scattering model needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Wall",
    "Scene",
    "ScanSpec",
    "SurfacePaths",
    "scan_positions",
    "specular_paths",
    "paper_scene",
    "height_m_to_cm",
    "MAX_ANGLES",
]

_UP = np.array([0.0, 0.0, 1.0])

DEFAULT_ARC_HEIGHTS = (0.0,)
DEFAULT_CYLINDER_HEIGHTS = (0.0, 0.10, 0.20, 0.30)
# the most angles one azimuth sweep or CLI theta grid may hold
MAX_ANGLES = 100_000
# a receiver this close to the wall plane, on either side, lies in it: the
# +-90 deg scan positions do, up to rounding of about 1e-16 m
_IN_PLANE_M = 1e-9


def _as_vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    return arr


def height_m_to_cm(delta_h_m: float) -> float:
    """Height offset in the scan-file unit; quantized to 1e-9 cm so the
    common decimal heights (0.1 m, 0.2 m, ...) convert without float dust."""
    return round(delta_h_m * 100.0, 9)


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
        if not (0.0 < self.width < math.inf and 0.0 < self.height < math.inf):
            raise ValueError(f"wall width and height must be > 0 and finite, got {self.width} and {self.height}")
        if abs(float(np.dot(self.normal, _UP))) > 1.0 - 1e-9:
            raise ValueError("wall normal must not be vertical")

    @cached_property
    def u_axis(self) -> np.ndarray:
        """Horizontal in-wall axis (width direction), computed once per wall."""
        u = np.cross(_UP, self.normal)
        return u / np.linalg.norm(u)

    @cached_property
    def w_axis(self) -> np.ndarray:
        """Vertical in-wall axis (height direction), computed once per wall."""
        return np.cross(self.normal, self.u_axis)


@dataclass(frozen=True, eq=False)
class Scene:
    """One wall, one Tx position, one carrier frequency."""

    wall: Wall
    tx: np.ndarray
    carrier_frequency: float

    def __post_init__(self):
        object.__setattr__(self, "tx", _as_vec3(self.tx, "tx position"))
        if not 0.0 < self.carrier_frequency < math.inf:
            raise ValueError(f"carrier_frequency must be > 0 Hz and finite, got {self.carrier_frequency}")
        # in Python floats, which overflow to inf without a warning
        offset = [t - c for t, c in zip(self.tx.tolist(), self.wall.center.tolist())]
        if not sum(d * d for d in offset) < math.inf:
            raise ValueError(f"tx at {self.tx.tolist()} m is too far from the wall center: its offset squared is inf")
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
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"scan radius must be > 0 and finite, got {self.radius}")
        step, span = self.azimuth_step_deg, self.azimuth_range_deg
        if not (0.0 < step < math.inf and 0.0 < span < math.inf):
            raise ValueError(f"azimuth step and range must be > 0 and finite, got {step} and {span}")
        steps = span / step
        if not steps < MAX_ANGLES:
            raise ValueError(
                f"azimuth step {step} over range {span} gives {steps + 1:.6g} azimuths, more than {MAX_ANGLES:,}"
            )
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"azimuth step {step} must divide range {span} evenly")
        heights = tuple(float(h) for h in self.height_offsets)
        if len(heights) == 0:
            raise ValueError("at least one height offset is required")
        if not all(map(math.isfinite, heights)):
            raise ValueError(f"height offsets must be finite, got {heights}")
        # a scan file keys receivers by height in cm: heights equal in cm would repeat their arc's receivers
        first: dict[float, float] = {}
        for h in heights:
            cm = height_m_to_cm(h)
            if cm in first:
                twins = f"{first[cm]!r} and {h!r} m are both {cm!r} cm in a scan file"
                raise ValueError(f"height offsets must be distinct, got {heights}: {twins}")
            first[cm] = h
        object.__setattr__(self, "height_offsets", heights)

    def azimuths_deg(self) -> list[float]:
        n = round(self.azimuth_range_deg / self.azimuth_step_deg)
        half = self.azimuth_range_deg / 2.0
        return [-half + k * self.azimuth_step_deg for k in range(n + 1)]


def rx_position(scene: Scene, radius: float, azimuth_deg: float, delta_h: float) -> np.ndarray:
    """Rx location on the scan cylinder: azimuth from the wall normal, specular side positive."""
    az = math.radians(azimuth_deg)
    wall = scene.wall
    return (
        wall.center
        + radius * (math.cos(az) * wall.normal + math.sin(az) * scene.specular_sign * wall.u_axis)
        + delta_h * wall.w_axis
    )


def scan_positions(scene: Scene, spec: ScanSpec) -> tuple[list[tuple[float, float]], np.ndarray]:
    """Receiver keys (azimuth_deg, delta_h), sorted by (delta_h, azimuth), and their positions (P, 3)."""
    keys = [(az, dh) for dh in sorted(spec.height_offsets) for az in spec.azimuths_deg()]
    return keys, np.array([rx_position(scene, spec.radius, az, dh) for az, dh in keys])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a (P, 3) with b, (3,) or (P, 3), rounded as np.dot of two 3-vectors."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def specular_paths(tx: np.ndarray, rx: np.ndarray, wall: Wall) -> tuple[np.ndarray, np.ndarray]:
    """Image-method specular path from tx to each receiver of rx (P, 3): (length, cos_theta), each (P,).

    cos_theta is the cosine of the reflection angle at the wall. Both are 0
    where the reflection point misses the wall rectangle, or where the
    path is degenerate: a reflection point at either antenna, or grazing.
    """
    n = wall.normal
    tx_height = float(np.dot(tx - wall.center, n))
    if tx_height <= 0.0 or np.any(_row_dots(rx - wall.center, n) < -_IN_PLANE_M):
        raise ValueError("tx and rx must lie on the outward side of the wall plane")
    mirrored = tx - 2.0 * tx_height * n
    direction = rx - mirrored
    denom = _row_dots(direction, n)
    # t is 0 where the mirrored ray does not run toward the wall, a miss below
    t = -float(np.dot(mirrored - wall.center, n)) / np.where(denom > 0.0, denom, np.inf)
    point = mirrored + t[:, None] * direction
    d_in, d_out = point - tx, rx - point
    len_in, len_out = np.sqrt(_row_dots(d_in, d_in)), np.sqrt(_row_dots(d_out, d_out))
    cos_theta = -_row_dots(d_in, n) / np.where(len_in > 0.0, len_in, np.inf)
    off_u, off_w = (np.abs(_row_dots(point - wall.center, axis)) for axis in (wall.u_axis, wall.w_axis))
    hit = (0.0 < t) & (t < 1.0) & (off_u <= wall.width / 2.0 + 1e-9) & (off_w <= wall.height / 2.0 + 1e-9)
    # a reflection point at either antenna, or at grazing, is degenerate
    hit &= (np.minimum(len_in, len_out) > 1e-12) & (cos_theta > 1e-12)
    return np.where(hit, len_in + len_out, 0.0), np.where(hit, cos_theta, 0.0)


def _sum3(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """a[0] b[0] + a[1] b[1] + a[2] b[2] into out, added in that order; tmp is scratch of out's shape."""
    np.multiply(a[0], b[0], out=out)
    for k in (1, 2):
        out += np.multiply(a[k], b[k], out=tmp)
    return out


class SurfacePaths:
    """Single-bounce path geometry from a Tx over surface points, to a block of receivers at a time.

    The incident side is computed once for all points: r_i and cos_ti are
    (T,) arrays. receiver(rx) computes the scattered side, a row per
    receiver. psi_r is the angle between the Rx direction and the mirror
    image of the incident direction, psi_i between the Rx direction and the
    reverse-incident direction; both are 3D angles, so the same values serve
    in-plane and raised receivers. Every cosine is clipped to [-1, 1].

    The points and the mirrored and reverse-incident directions are kept
    as contiguous (3, T) component rows. receiver forms r_s and both lobe
    cosines as three-term sums of (R, T) arrays, added in axis order as a
    row reduction of (T, 3) arrays adds them, so they are bit for bit the
    same; it writes them into a workspace that a scan pattern allocates
    once and refills per block of receivers. cos_ts(rx) keeps the matrix
    product with the normal.
    """

    def __init__(self, tx: np.ndarray, points: np.ndarray, normal: np.ndarray):
        self.points = points
        self.normal = normal
        to_point = points - tx
        self.r_i = np.linalg.norm(to_point, axis=1)
        self._r_i_max = float(self.r_i.max())
        if np.any(self.r_i == 0.0):
            raise ValueError("degenerate geometry: tx coincides with a surface point")
        v_i = to_point / self.r_i[:, None]
        self.cos_ti = np.clip(-(v_i @ normal), -1.0, 1.0)
        if np.any(self.cos_ti <= 0.0):
            raise ValueError("tx does not illuminate the surface from the outward side")
        spec_dir = v_i - 2.0 * (v_i @ normal)[:, None] * normal
        self._point_rows, self._spec_rows, self._back_rows = (a.T.copy() for a in (points, spec_dir, -v_i))

    def receiver(self, rx: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(r_s, cos_psi_r, cos_psi_i) per point for the receivers rx (R, 3), each (R, T): a row per receiver.

        They and every (R, T) temporary live in out, seven (R, T) float
        arrays that a caller may reuse across blocks of receivers, or in
        new ones.
        """
        work = out if out is not None else [np.empty((len(rx), self.r_i.size)) for _ in range(7)]
        d, (r_s, cos_psi_r, cos_psi_i, tmp) = work[:3], work[3:]
        with np.errstate(over="ignore"):
            for k, row in enumerate(self._point_rows):
                np.subtract(rx[:, k, None], row, out=d[k])
            np.sqrt(_sum3(d, d, r_s, tmp), out=r_s)
            # element_constant divides by (r_i r_s)^2, which the largest r_i and r_s bound
            reach = self._r_i_max * r_s.max(axis=-1)
            too_long = ~(reach * reach < math.inf)
            behind = np.any(_sum3(d, self.normal.tolist(), cos_psi_r, tmp) < -_IN_PLANE_M, axis=-1)
        on_point = np.any(r_s <= _IN_PLANE_M, axis=-1)
        p = int(np.argmax(too_long | on_point | behind))  # the first receiver at fault, or 0 if none is
        if too_long[p]:
            raise ValueError(f"path length to the receiver at {rx[p].tolist()} m is too long: (r_i r_s)^2 is not finite")
        if on_point[p]:
            raise ValueError("degenerate geometry: rx coincides with a surface point")
        if behind[p]:
            raise ValueError("rx lies behind the wall plane")
        for dk in d:
            np.divide(dk, r_s, out=dk)
        np.clip(_sum3(d, self._spec_rows, cos_psi_r, tmp), -1.0, 1.0, out=cos_psi_r)
        np.clip(_sum3(d, self._back_rows, cos_psi_i, tmp), -1.0, 1.0, out=cos_psi_i)
        return r_s, cos_psi_r, cos_psi_i

    def cos_ts(self, rx: np.ndarray) -> np.ndarray:
        """Cosine of the scattering angle theta_s per point, toward the receiver at rx."""
        from_point = rx - self.points
        v_s = from_point / np.linalg.norm(from_point, axis=1)[:, None]
        return np.clip(v_s @ self.normal, -1.0, 1.0)


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
