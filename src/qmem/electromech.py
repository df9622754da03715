"""Equivalent-circuit electromechanics of a piezoelectric mode.

A single mechanical mode seen from its coupling electrodes is modeled by
the Butterworth-Van-Dyke circuit: static capacitance C0 in parallel with
a motional series branch Cm-Lm (lossless by default, optional Rm for
fitting measured data).  The module evaluates and fits the admittance,
converts circuit parameters into linear coupling rates to a shunt LC
circuit or qubit, and applies the multi-defect scaling under which the
motional capacitance grows with the number of defect cells.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import TWO_PI, FrequencyTrace, angular, fit_least_squares, read_csv_table, write_csv_table
from .errors import ResonanceNotInWindow


@dataclass(frozen=True)
class BvdParams:
    """Butterworth-Van-Dyke parameters of one mechanical mode.

    Attributes
    ----------
    C0 : float
        Static (electrode) capacitance in farads.
    Cm : float
        Motional capacitance in farads; measures piezoelectric coupling.
    Lm : float
        Motional inductance in henries.
    Rm : float
        Motional resistance in ohms; 0 means lossless (the default).
    """

    C0: float
    Cm: float
    Lm: float
    Rm: float = 0.0

    def __post_init__(self):
        if self.C0 <= 0.0 or self.Cm <= 0.0 or self.Lm <= 0.0:
            raise ValueError("C0, Cm, Lm must all be positive")
        if self.Rm < 0.0:
            raise ValueError("Rm must be >= 0")
        if self.Lm * self.Cm == 0.0:
            raise ValueError(f"Lm*Cm underflows to 0 (Lm={self.Lm:g}, Cm={self.Cm:g}): "
                             "the series resonance is not finite")

    @property
    def series_resonance_hz(self) -> float:
        """Series resonance 1/(2*pi*sqrt(Lm*Cm)), the mechanical frequency."""
        return 1.0 / (TWO_PI * math.sqrt(self.Lm * self.Cm))

    @property
    def parallel_resonance_hz(self) -> float:
        """Antiresonance f_s*sqrt(1 + Cm/C0) where Im Y crosses zero."""
        return self.series_resonance_hz * math.sqrt(1.0 + self.Cm / self.C0)


@dataclass(frozen=True)
class ShuntCircuit:
    """LC shunt (qubit or mixer) the mechanical mode couples to.

    Either ``Lr`` or ``f_r`` must be given; supplying both is accepted
    only if they agree to 1e-9 relative.
    """

    Cr: float
    Lr: float | None = None
    f_r: float | None = None

    def __post_init__(self):
        if self.Cr <= 0.0:
            raise ValueError("Cr must be positive")
        if self.Lr is None and self.f_r is None:
            raise ValueError("supply Lr or f_r")
        if self.Lr is not None:
            if self.Lr <= 0.0:
                raise ValueError("Lr must be positive")
            if self.Lr * self.Cr == 0.0:
                raise ValueError(f"Lr*Cr underflows to 0 (Lr={self.Lr:g}, Cr={self.Cr:g}): "
                                 "the resonance is not finite")
            derived = 1.0 / (TWO_PI * math.sqrt(self.Lr * self.Cr))
            if self.f_r is not None:
                if abs(derived - self.f_r) > 1e-9 * self.f_r:
                    raise ValueError("f_r inconsistent with 1/(2*pi*sqrt(Lr*Cr))")
            object.__setattr__(self, "f_r", derived)
        if self.f_r is None or self.f_r <= 0.0:
            raise ValueError("f_r must be positive")


@dataclass(frozen=True)
class DefectArraySpec:
    """Number of defect unit cells forming a collective mode."""

    N: int = 1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")


def bvd_admittance(params: BvdParams, f_hz):
    """Complex admittance Y(f) of the BVD circuit, in siemens.

    Y = i*omega*C0 + 1/(Rm + i*omega*Lm + 1/(i*omega*Cm)).  Accepts a
    scalar or an array of frequencies.  At the exact lossless series
    resonance the magnitude is infinite; a ``(inf+0j)`` sentinel is
    returned there.
    """
    scalar = np.isscalar(f_hz)
    f = np.atleast_1d(np.asarray(f_hz, dtype=float))
    if np.any(f <= 0.0):
        raise ValueError("frequencies must be positive")
    omega = angular(f)
    z_series = params.Rm + 1j * omega * params.Lm + 1.0 / (1j * omega * params.Cm)
    y = np.empty_like(z_series)
    singular = z_series == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        y[~singular] = 1.0 / z_series[~singular]
    y[singular] = complex(math.inf, 0.0)
    y = y + 1j * omega * params.C0
    return complex(y[0]) if scalar else y


def _bvd_initial_guess(trace: FrequencyTrace) -> BvdParams:
    f = trace.frequencies
    im = np.imag(trace.response)
    sign = np.sign(im)
    down = np.nonzero((sign[:-1] > 0) & (sign[1:] < 0))[0]
    if down.size == 0:
        raise ResonanceNotInWindow("Im Y never crosses from + to - in the window")
    i_s = int(down[0])
    f_s = 0.5 * (f[i_s] + f[i_s + 1])
    # away from resonance Y ~ i*omega*C0, use the window edge further from f_s
    edge = -1 if (f[-1] - f_s) > (f_s - f[0]) else 0
    c0 = abs(im[edge]) / angular(f[edge])

    # near the series resonance the inverse motional susceptance is linear,
    # 1/(Im Y - omega*C0) ~ -2*Lm*(omega - omega_s); its zero crossing and
    # slope pin omega_s and Lm from the samples around the sign flip
    window = slice(max(i_s - 1, 0), min(i_s + 3, len(f)))
    omega = angular(f[window])
    branch = im[window] - omega * c0
    if np.all(branch != 0.0):
        u = 1.0 / branch
        slope, intercept = np.polyfit(omega, u, 1)
        omega_s = -intercept / slope
        lm = -slope / 2.0
        if lm > 0.0 and angular(f[0]) < omega_s < angular(f[-1]):
            cm = 1.0 / (omega_s**2 * lm)
            return BvdParams(C0=c0, Cm=cm, Lm=lm, Rm=0.0)

    # fallback: place the antiresonance from its zero crossing if visible
    up = np.nonzero((sign[:-1] < 0) & (sign[1:] > 0))[0]
    up = up[up > i_s]
    if up.size > 0:
        j = int(up[0])
        f_p = f[j] - im[j] * (f[j + 1] - f[j]) / (im[j + 1] - im[j])
        ratio = max((f_p / f_s) ** 2 - 1.0, 1e-9)
    else:
        ratio = 1e-4  # antiresonance outside window, weak-coupling fallback
    cm = ratio * c0
    lm = 1.0 / (angular(f_s) ** 2 * cm)
    return BvdParams(C0=c0, Cm=cm, Lm=lm, Rm=0.0)


def fit_bvd(trace: FrequencyTrace, fit_rm: bool = False) -> BvdParams:
    """Least-squares fit of BVD parameters to an admittance trace.

    Fits Im Y with residuals scaled by |Y| (appropriate for multiplicative
    noise); with ``fit_rm`` the real part is included and the motional
    resistance is a free (positive) parameter.  Internally the model is
    parametrized by (C0, Cm, series resonance) so the pole position is a
    fit axis rather than a stiff Lm-Cm combination.  Raises
    ``ResonanceNotInWindow`` when the trace shows no series resonance and
    ``FitDidNotConverge`` when the optimizer fails.
    """
    if len(trace) < 50:
        raise ValueError("need at least 50 points spanning the series resonance")
    guess = _bvd_initial_guess(trace)
    f = trace.frequencies
    y_data = trace.response
    scale = np.abs(y_data)
    scale[scale == 0.0] = np.max(scale) if np.max(scale) > 0 else 1.0
    omega = angular(f)

    def unpack(theta) -> BvdParams:
        c0, cm = np.exp(theta[0]), np.exp(theta[1])
        lm = 1.0 / (angular(theta[2]) ** 2 * cm)
        rm = math.exp(theta[3]) if fit_rm else 0.0
        return BvdParams(C0=c0, Cm=cm, Lm=lm, Rm=rm)

    def reactance(theta):
        """Motional reactance x_m in the pole-position parametrization, and
        its derivatives by log Cm and by the series resonance in Hz."""
        cm, omega_s = np.exp(theta[1]), angular(theta[2])
        x_m = (omega**2 - omega_s**2) / (omega * omega_s**2 * cm)
        return x_m, -x_m, -2.0 * TWO_PI * omega / (omega_s**3 * cm)

    def residuals(theta):
        c0 = np.exp(theta[0])
        x_m = reactance(theta)[0]
        if fit_rm:
            y = 1j * omega * c0 + 1.0 / (math.exp(theta[3]) + 1j * x_m)
            return np.concatenate([
                (np.imag(y) - np.imag(y_data)) / scale,
                (np.real(y) - np.real(y_data)) / scale,
            ])
        b = omega * c0 - 1.0 / x_m
        return (b - np.imag(y_data)) / scale

    def jacobian(theta):
        c0 = math.exp(theta[0])
        x_m, dx_log_cm, dx_f_s = reactance(theta)
        if fit_rm:
            rm = math.exp(theta[3])
            # dY = -dZ/Z^2 for the motional branch Z = Rm + i x_m
            inv_z2 = 1.0 / (rm + 1j * x_m) ** 2
            dy = np.column_stack([
                1j * omega * c0,
                -1j * dx_log_cm * inv_z2,
                -1j * dx_f_s * inv_z2,
                -rm * inv_z2,
            ]) / scale[:, None]
            return np.concatenate([np.imag(dy), np.real(dy)])
        inv_x2 = 1.0 / x_m**2
        return np.column_stack([omega * c0, dx_log_cm * inv_x2, dx_f_s * inv_x2]) / scale[:, None]

    theta0 = [math.log(guess.C0), math.log(guess.Cm), guess.series_resonance_hz]
    if fit_rm:
        # start at Q ~ 1e6, tiny next to the motional reactance scale
        theta0.append(math.log(1e-6 * guess.Lm * angular(guess.series_resonance_hz)))
    result, _, _ = fit_least_squares(
        "BVD", residuals, theta0, jac=jacobian, ftol=1e-14, xtol=1e-14, gtol=1e-14,
        max_nfev=5000,
    )
    return unpack(result.x)


def coupling_rate_gsm(params: BvdParams, shunt: ShuntCircuit, f_m_hz: float | None = None) -> float:
    """Linear coupling rate between the mechanical mode and a shunt circuit.

    Returns g/2pi in Hz from the angular rate
    g = (1/2)*sqrt(omega_r*omega_m)*sqrt(Cm/(Cr + Cm + C0)).
    The mechanical frequency defaults to the BVD series resonance.  The
    expression assumes Cr well above C0 + Cm; a warning is issued when
    Cr <= 10*(C0 + Cm).
    """
    if f_m_hz is None:
        f_m_hz = params.series_resonance_hz
    if f_m_hz <= 0.0:
        raise ValueError("mechanical frequency must be positive")
    if shunt.Cr <= 10.0 * (params.C0 + params.Cm):
        warnings.warn(
            "Cr is not large compared to C0 + Cm; the coupling formula "
            "degrades outside its validity regime",
            stacklevel=2,
        )
    factor = math.sqrt(params.Cm / (shunt.Cr + params.Cm + params.C0))
    return 0.5 * math.sqrt(shunt.f_r * f_m_hz) * factor


def coupling_rate_gij(ci: float, cj: float, cij: float, fi_hz: float, fj_hz: float) -> float:
    """Capacitive coupling rate between two LC modes, returned as g/2pi in Hz.

    g = (1/2)*sqrt(omega_i*omega_j) * Cij/sqrt((Ci+Cij)*(Cj+Cij)).
    """
    if ci <= 0.0 or cj <= 0.0:
        raise ValueError("mode capacitances must be positive")
    if cij < 0.0:
        raise ValueError("coupling capacitance must be >= 0")
    if fi_hz <= 0.0 or fj_hz <= 0.0:
        raise ValueError("frequencies must be positive")
    return 0.5 * math.sqrt(fi_hz * fj_hz) * cij / math.sqrt((ci + cij) * (cj + cij))


def motional_lc_equivalent(params: BvdParams) -> tuple[float, float, float]:
    """Map the BVD circuit onto a parallel LC mode behind a coupling capacitor.

    Returns ``(Cj, Cij, Lj)`` such that a parallel Lj-Cj oscillator seen
    through a series capacitor Cij has the same port impedance (same zero
    and pole) as the BVD network:

        Cij = C0 + Cm,  Cj = C0*(C0 + Cm)/Cm,  Lj = Lm*Cm**2/(C0 + Cm)**2

    With this mapping the two-mode capacitive coupling rate reproduces the
    shunt-circuit coupling rate exactly.
    """
    cij = params.C0 + params.Cm
    cj = params.C0 * cij / params.Cm
    lj = params.Lm * params.Cm**2 / cij**2
    return cj, cij, lj


def scale_defects(params: BvdParams, spec: DefectArraySpec) -> BvdParams:
    """BVD parameters of an N-defect collective mode.

    Cm and C0 scale with the coupling area (Cm' = N*Cm, C0' = N*C0, the
    electrodes are enlarged with the array) while Lm' = Lm/N keeps the
    mode frequency unchanged.
    """
    n = spec.N
    return replace(params, C0=n * params.C0, Cm=n * params.Cm, Lm=params.Lm / n)


def save_admittance_csv(path, trace: FrequencyTrace) -> None:
    """Write an admittance trace as CSV with header ``f_Hz,ReY_S,ImY_S``."""
    write_csv_table(path, ("f_Hz", "ReY_S", "ImY_S"),
                    zip(trace.frequencies, trace.response.real, trace.response.imag))


def load_admittance_csv(path) -> FrequencyTrace:
    """Read an admittance trace from CSV with header ``f_Hz,ReY_S,ImY_S``."""
    _, table = read_csv_table(path, (("f_Hz", "ReY_S", "ImY_S"),))
    return FrequencyTrace(table[:, 0], table[:, 1] + 1j * table[:, 2])
