"""Diffuse scattering from building surfaces at millimeter-wave frequencies.

Reflection and roughness-loss computations, directive/backscattering lobe
models, arc and semicylinder scan simulation, and scattering-parameter
fitting by FVU minimization.
"""

import math

__version__ = "0.1.0"

# Engineering convention used throughout: wavelength = SPEED_OF_LIGHT / frequency.
SPEED_OF_LIGHT = 3.0e8  # m/s

DBM_REF_WATTS = 1.0e-3


def watts_to_dbm(p_watts: float) -> float:
    if p_watts < 0.0:
        raise ValueError(f"power must be >= 0 W, got {p_watts}")
    if p_watts == 0.0:
        return float("-inf")
    return 10.0 * math.log10(p_watts / DBM_REF_WATTS)


def db_to_linear(x_db: float) -> float:
    """10^(x_db / 10), or inf where that overflows a float."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


def dbm_to_watts(p_dbm: float) -> float:
    return DBM_REF_WATTS * db_to_linear(p_dbm)


def wavelength_for_frequency(freq_hz: float) -> float:
    if freq_hz <= 0.0:
        raise ValueError(f"frequency must be > 0 Hz, got {freq_hz}")
    return SPEED_OF_LIGHT / freq_hz
