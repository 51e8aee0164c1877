"""Surface materials and smooth/rough reflection coefficients.

A rough surface attenuates the specular reflection by the Rayleigh
roughness factor

    R = exp(-g) * I0(g),   g = 8 * (pi * h_rms * cos(theta_i) / lambda)^2

so the rough-surface reflection coefficient is R * Gamma, and the power
removed from the specular component reappears as diffuse scattering with
amplitude coefficient

    S = sqrt((1 - R^2) * Gamma^2)

which preserves the energy split S^2 + (R*Gamma)^2 = Gamma^2 of the
reflected power.

The line grammar of every input file (_data_lines, parse_float, parse_int),
write_lines and the material database reader live here too, in a module
without numpy, so that `theory` loads none; fileio re-exports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

__all__ = [
    "Polarization",
    "Material",
    "MaterialDatabase",
    "IncidenceContext",
    "ReflectionBundle",
    "bessel_i0",
    "fresnel_gamma",
    "rayleigh_factor",
    "initial_scattering_coefficient",
    "FileFormatError",
    "parse_float",
    "parse_int",
    "write_lines",
    "read_materials",
    "default_materials",
]

# Power series below this point, asymptotic expansion above; both branches
# agree to better than 1e-10 at the switch.
_I0_SERIES_LIMIT = 15.0
_I0_ARG_MAX = 700.0


class Polarization(Enum):
    TE = "TE"
    TM = "TM"


@dataclass(frozen=True)
class Material:
    """One surface: relative permittivity and roughness.

    h_rms is the standard deviation of the surface height about its mean,
    in meters. The wall is a dielectric half-space, so it has no thickness.
    """

    name: str
    eps_r: float
    h_rms: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("material name must be non-empty")
        if self.eps_r < 1.0:
            raise ValueError(f"{self.name}: eps_r must be >= 1, got {self.eps_r}")
        if self.h_rms < 0.0:
            raise ValueError(f"{self.name}: h_rms must be >= 0 m, got {self.h_rms}")


class MaterialDatabase:
    """Name-keyed material collection; names are unique."""

    def __init__(self, materials=()):
        self._by_name: dict[str, Material] = {}
        for mat in materials:
            self.add(mat)

    def add(self, material: Material) -> None:
        if material.name in self._by_name:
            raise ValueError(f"duplicate material name: {material.name}")
        self._by_name[material.name] = material

    def get(self, name: str) -> Material:
        try:
            return self._by_name[name]
        except KeyError:
            known = ", ".join(sorted(self._by_name)) or "<empty database>"
            raise KeyError(f"unknown material {name!r}; known: {known}") from None

    def names(self) -> list[str]:
        return list(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)


@dataclass(frozen=True)
class IncidenceContext:
    """Incidence angle (radians from the surface normal), wavelength, polarization.

    Grazing incidence (theta_i -> pi/2) is excluded: the roughness factor is
    a small-incidence-angle model and does not represent scattering losses
    near grazing.
    """

    theta_i: float
    wavelength: float
    polarization: Polarization = Polarization.TE

    def __post_init__(self):
        if not 0.0 <= self.theta_i < math.pi / 2:
            raise ValueError(f"theta_i must be in [0, pi/2), got {self.theta_i}")
        if not 0.0 < self.wavelength < math.inf:
            raise ValueError(f"wavelength must be > 0 m and finite, got {self.wavelength}")


@dataclass(frozen=True)
class ReflectionBundle:
    """Smooth and rough reflection coefficients with the scattering split.

    gamma_rough = rayleigh_r * gamma holds exactly, and
    s_coeff^2 + gamma_rough^2 = gamma^2 to 1e-12.
    """

    gamma: float
    rayleigh_r: float
    gamma_rough: float
    s_coeff: float

    def __post_init__(self):
        if abs(self.gamma) > 1.0:
            raise ValueError(f"|gamma| must be <= 1, got {self.gamma}")
        if not 0.0 < self.rayleigh_r <= 1.0:
            raise ValueError(f"rayleigh_r must be in (0, 1], got {self.rayleigh_r}")
        if self.gamma_rough != self.rayleigh_r * self.gamma:
            raise ValueError("gamma_rough must equal rayleigh_r * gamma exactly")
        if not 0.0 <= self.s_coeff < 1.0:
            raise ValueError(f"s_coeff must be in [0, 1), got {self.s_coeff}")
        residual = self.s_coeff**2 + self.gamma_rough**2 - self.gamma**2
        if abs(residual) > 1e-12:
            raise ValueError(f"energy split violated: S^2 + Gamma_rough^2 - Gamma^2 = {residual}")


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind and zero order, I0(x).

    Valid for 0 <= x <= 700 (exp overflow guard); relative error < 1e-10.
    """
    if x < 0.0:
        raise ValueError(f"bessel_i0 requires x >= 0, got {x}")
    if x > _I0_ARG_MAX:
        raise ValueError(f"bessel_i0 argument too large (max {_I0_ARG_MAX}), got {x}")
    if x < _I0_SERIES_LIMIT:
        # sum_k (x/2)^(2k) / (k!)^2
        q = 0.25 * x * x
        term = 1.0
        total = 1.0
        for k in range(1, 80):
            term *= q / (k * k)
            total += term
            if term < total * 1e-18:
                break
        return total
    return math.exp(x) / math.sqrt(2.0 * math.pi * x) * _i0_asymptotic_sum(x)


def _i0_asymptotic_sum(x: float) -> float:
    """sum_k a_k / x^k of the asymptotic I0(x) ~ exp(x)/sqrt(2 pi x) * sum_k a_k / x^k.

    a_0 = 1, a_k = a_{k-1} * (2k-1)^2 / (8k); truncated at the smallest term.
    """
    total = 1.0
    term = 1.0
    for k in range(1, 40):
        next_term = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        if abs(next_term) >= abs(term):
            break
        term = next_term
        total += term
        if abs(term) < total * 1e-16:
            break
    return total


def fresnel_gamma(eps_r: float, theta_i: float, pol: Polarization = Polarization.TE) -> float:
    """Amplitude reflection coefficient of a lossless dielectric half-space.

    TE (E-field perpendicular to the incidence plane):
        (cos t - sqrt(eps - sin^2 t)) / (cos t + sqrt(eps - sin^2 t))
    TM (E-field in the incidence plane), zero at the Brewster angle:
        (eps cos t - sqrt(eps - sin^2 t)) / (eps cos t + sqrt(eps - sin^2 t))
    """
    if eps_r < 1.0:
        raise ValueError(f"eps_r must be >= 1, got {eps_r}")
    if not 0.0 <= theta_i < math.pi / 2:
        raise ValueError(f"theta_i must be in [0, pi/2), got {theta_i}")
    if eps_r == 1.0:
        # no dielectric contrast; avoids cancellation noise in cos - sqrt(1 - sin^2)
        return 0.0
    cos_t = math.cos(theta_i)
    root = math.sqrt(eps_r - math.sin(theta_i) ** 2)
    if pol is Polarization.TE:
        return (cos_t - root) / (cos_t + root)
    return (eps_r * cos_t - root) / (eps_r * cos_t + root)


def rayleigh_factor(h_rms: float, theta_i: float, wavelength: float) -> float:
    """Roughness loss factor R = exp(-g) * I0(g), g = 8 (pi h_rms cos(theta_i) / lambda)^2.

    R is 1 for a perfectly smooth surface and decays toward 0 with
    increasing electrical roughness.
    """
    if h_rms < 0.0:
        raise ValueError(f"h_rms must be >= 0 m, got {h_rms}")
    if wavelength <= 0.0:
        raise ValueError(f"wavelength must be > 0 m, got {wavelength}")
    g = 8.0 * (math.pi * h_rms * math.cos(theta_i) / wavelength) ** 2
    # exp(-g) * I0(g) evaluated in a form that stays finite for large g:
    # for g past the series range, fold exp(-g) into the asymptotic prefactor.
    if g < _I0_SERIES_LIMIT:
        return math.exp(-g) * bessel_i0(g)
    return _i0_asymptotic_sum(g) / math.sqrt(2.0 * math.pi * g)


def initial_scattering_coefficient(material: Material, ctx: IncidenceContext) -> ReflectionBundle:
    """Theoretical scattering coefficient S = sqrt((1 - R^2) * Gamma^2).

    S^2 is the fraction of the power incident on the surface element that is
    redistributed into all scattering directions. The returned bundle also
    carries Gamma, R and the rough-surface reflection coefficient
    Gamma_rough = R * Gamma.
    """
    gamma = fresnel_gamma(material.eps_r, ctx.theta_i, ctx.polarization)
    r = rayleigh_factor(material.h_rms, ctx.theta_i, ctx.wavelength)
    s_coeff = math.sqrt((1.0 - r * r) * gamma * gamma)
    return ReflectionBundle(gamma=gamma, rayleigh_r=r, gamma_rough=r * gamma, s_coeff=s_coeff)


# --- the line grammar of every input file, and the material database file ------


class FileFormatError(ValueError):
    """Malformed input file; message carries `path:line:`."""


def _err(source: str, lineno: int, message: str) -> FileFormatError:
    return FileFormatError(f"{source}:{lineno}: {message}")


def parse_float(token: str) -> float:
    """float(token) in the one number grammar of input files and CLI options.

    float() alone would also read "1_0" as 10 and non-ASCII digits; both are refused.
    """
    if "_" in token or not token.isascii():
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def parse_int(token: str) -> int:
    """int(token) of plain ASCII digits with an optional leading '-', the integer grammar of files and options."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def _parse_float(token: str, source: str, lineno: int, what: str) -> float:
    try:
        value = parse_float(token)
    except ValueError:
        raise _err(source, lineno, f"non-numeric {what}: {token!r}") from None
    if math.isnan(value):
        raise _err(source, lineno, f"{what} must not be NaN")
    return value


def _parse_finite(token: str, source: str, lineno: int, what: str) -> float:
    value = _parse_float(token, source, lineno, what)
    if math.isinf(value):
        raise _err(source, lineno, f"{what} must be finite, got {value!r}")
    return value


def _parse_int(token: str, source: str, lineno: int, what: str) -> int:
    try:
        return parse_int(token)
    except ValueError:
        raise _err(source, lineno, f"non-integer {what}: {token!r}") from None


def _data_lines(path):
    """Yield (1-based line number, line) for every line that is neither blank
    nor a '#' comment, with surrounding whitespace stripped: the one line
    grammar of every input format."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        text = fh.read()
    for no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield no, line


def write_lines(path, lines, header_comment: str | None = None) -> None:
    """Write lines with LF endings, after a `# header_comment` line if one is given."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header_comment is not None:
            # escaped, a line break in a value (an --out path, say) cannot end the comment line
            fh.write("# " + header_comment.replace("\r", "\\r").replace("\n", "\\n") + "\n")
        fh.write("\n".join(lines))
        fh.write("\n")


_MATERIAL_KEYS = {"eps_r": None, "h_rms_mm": "mm", "thickness_cm": "cm"}
_LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3}


def _parse_length(token: str, default_unit: str, source: str, lineno: int, what: str) -> float:
    parts = token.split()
    if len(parts) == 1:
        unit = default_unit
    elif len(parts) == 2:
        unit = parts[1]
        if unit not in _LENGTH_UNITS:
            raise _err(source, lineno, f"unknown unit {unit!r} for {what} (use m, cm, or mm)")
    else:
        raise _err(source, lineno, f"malformed {what} value {token!r}")
    return _parse_finite(parts[0], source, lineno, what) * _LENGTH_UNITS[unit]


def _close_material(db: MaterialDatabase, record, source: str) -> None:
    """Add the open record (name, line number, fields), if any, to db."""
    if record is None:
        return
    name, lineno, fields = record
    missing = [k for k in _MATERIAL_KEYS if k not in fields]
    if missing:
        raise _err(source, lineno, f"material {name!r} is missing {', '.join(missing)}")
    try:
        db.add(Material(name=name, eps_r=fields["eps_r"], h_rms=fields["h_rms_mm"]))
    except ValueError as exc:
        raise _err(source, lineno, str(exc)) from None


def read_materials(path) -> MaterialDatabase:
    """Parse a material database file (see data/materials.txt for the format)."""
    source = str(path)
    db = MaterialDatabase()
    record = None  # the open `material` record: (name, line number, fields)
    for no, line in _data_lines(path):
        key, _, value = line.partition(" ")
        value = value.strip()
        if key == "material":
            _close_material(db, record, source)
            if not value:
                raise _err(source, no, "material record needs a name")
            record = (value, no, {})
        elif key in _MATERIAL_KEYS:
            if record is None:
                raise _err(source, no, f"{key} outside a material record")
            name, _, fields = record
            if key in fields:
                raise _err(source, no, f"duplicate key {key} for material {name!r}")
            unit = _MATERIAL_KEYS[key]
            if unit is None:
                fields[key] = _parse_finite(value, source, no, key)
            else:
                fields[key] = _parse_length(value, unit, source, no, key)
            # the half-space reflection model never reads the slab thickness,
            # but a record must still give a valid one
            if key == "thickness_cm" and fields[key] <= 0.0:
                raise _err(source, no, f"thickness_cm must be > 0 m, got {fields[key]!r}")
        else:
            raise _err(source, no, f"unknown key {key!r}")
    _close_material(db, record, source)
    if len(db) == 0:
        raise FileFormatError(f"{source}: no material records found")
    return db


def default_materials() -> MaterialDatabase:
    """The shipped four-surface database."""
    return read_materials(Path(__file__).parent / "data" / "materials.txt")
