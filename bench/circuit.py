"""Closed forms of the circuit model that several checks share."""

import math


def lc_frequency(inductance: float, capacitance: float) -> float:
    """Resonance 1/(2 pi sqrt(L C)) in Hz."""
    return 1.0 / (2.0 * math.pi * math.sqrt(inductance * capacitance))


def coupling_rate(f_r: float, f_m: float, c0: float, cm: float, cr: float, n_defects: int = 1) -> float:
    """g/2pi = 1/2 sqrt(f_r f_m) sqrt(N Cm/(Cr + N (Cm + C0))) for N defect periods."""
    return 0.5 * math.sqrt(f_r * f_m) * math.sqrt(n_defects * cm / (cr + n_defects * (cm + c0)))
