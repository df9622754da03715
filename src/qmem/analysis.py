"""Extraction of Q, frequency, and lifetime from measured traces.

Frequency-domain resonances are fitted with a Lorentzian on the signal
magnitude; free decays with a single exponential.  The energy-decay
convention tau = Q/omega relates the two, and
:func:`q_tau_consistency` quantifies how well a (Q, f, tau) triple obeys
it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import FrequencyTrace, TimeTrace, angular, fit_least_squares, read_csv_table, require_finite
from .errors import FitDidNotConverge, NonDecayingTrace, NoPeakFound


@dataclass(frozen=True)
class ResonanceFit:
    """Lorentzian fit result with 1-sigma uncertainties."""

    f0: float
    Q: float
    amplitude: complex
    background: float
    uncertainties: dict
    residual_norm: float


@dataclass(frozen=True)
class RingdownFit:
    """Exponential decay fit result with 1-sigma uncertainties."""

    tau: float
    initial_amplitude: float
    offset: float
    uncertainties: dict
    residual_norm: float


def fit_lorentzian(trace: FrequencyTrace) -> ResonanceFit:
    """Fit |background + A/(1 + 2iQ(f - f0)/f0)| to the trace magnitude.

    Initialization is deterministic: f0 from the peak sample, Q from the
    half-maximum width, background from the window edges.  The complex
    amplitude absorbs the relative phase between peak and background.
    Raises ``NoPeakFound`` when no sample rises above the noise floor.
    """
    if len(trace) < 20:
        raise ValueError("need at least 20 points")
    f = trace.frequencies
    y = np.abs(trace.response)
    # normalize out the overall signal scale so the fit (and its stopping
    # point) is exactly invariant under amplitude rescaling
    y_scale = float(np.max(y))
    if y_scale == 0.0:
        raise NoPeakFound("trace is identically zero")
    y = y / y_scale

    median = float(np.median(y))
    mad = float(np.median(np.abs(y - median)))
    prominence = float(np.max(y) - median)
    if prominence <= 5.0 * mad + 1e-12 * max(float(np.max(y)), 1.0):
        raise NoPeakFound("no sample rises significantly above the median level")

    i_peak = int(np.argmax(y))
    f0_init = f[i_peak]
    n_edge = max(len(y) // 10, 2)
    bg_init = float(np.median(np.concatenate([y[:n_edge], y[-n_edge:]])))
    height = y[i_peak] - bg_init
    half = bg_init + 0.5 * height
    above = y >= half
    left = i_peak
    while left > 0 and above[left - 1]:
        left -= 1
    right = i_peak
    while right < len(y) - 1 and above[right + 1]:
        right += 1
    fwhm = max(f[right] - f[left], f[1] - f[0])
    q_init = min(max(f0_init / fwhm, 1.0), 1e9)

    def model(theta):
        """|m| - y for the complex model m, and the Jacobian of |m|."""
        f0, log_q, re_a, im_a, bg = theta
        q, a = math.exp(log_q), re_a + 1j * im_a
        denom = 1.0 + 2j * q * (f - f0) / f0
        m = bg + a / denom
        abs_m = np.abs(m)

        def jacobian():
            # d|m| = Re(conj(m) dm)/|m|, with dm per parameter
            a_over_denom2 = a / denom**2
            dm = np.column_stack([
                a_over_denom2 * 2j * q * f / f0**2,
                -a_over_denom2 * (denom - 1.0),
                1.0 / denom,
                1j / denom,
                np.ones_like(f),
            ])
            return np.real(np.conj(m)[:, None] * dm) / abs_m[:, None]

        return abs_m - y, jacobian

    theta0 = np.array([f0_init, math.log(q_init), height, 0.0, bg_init])
    result, sigma, _ = fit_least_squares("Lorentzian", model, theta0, tol=1e-15)

    f0, log_q, re_a, im_a, bg = result.x
    if not (np.isfinite(result.x).all() and f[0] <= f0 <= f[-1]
            and math.log(1e-3) <= log_q <= math.log(1e12)):
        raise FitDidNotConverge(f"Lorentzian fit failed: f0 {f0:.6g} Hz outside the trace"
                                f" or ln Q {log_q:.3g} outside [ln 1e-3, ln 1e12]")
    if bg < 0.0:  # |bg + A/denom| is even in (bg, A): report bg >= 0
        bg, re_a, im_a = -bg, -re_a, -im_a
    q = math.exp(log_q)
    uncertainties = {
        "f0": sigma[0],
        "Q": sigma[1] * q,
        "amplitude": math.hypot(sigma[2], sigma[3]) * y_scale,
        "background": sigma[4] * y_scale,
    }
    return ResonanceFit(
        f0=float(f0),
        Q=q,
        amplitude=complex(re_a, im_a) * y_scale,
        background=float(bg) * y_scale,
        uncertainties=uncertainties,
        residual_norm=math.sqrt(2.0 * result.cost) * y_scale,
    )


def fit_ringdown(trace: TimeTrace) -> RingdownFit:
    """Fit offset + A*exp(-t/tau) to an energy-proportional ringdown.

    The time constant is initialized from the 1/e crossing (or flagged as
    non-decaying when there is none).  Raises ``NonDecayingTrace`` when
    the best-fit tau exceeds 100 times the recorded span; warns when the
    span covers less than two time constants.
    """
    if len(trace) < 20:
        raise ValueError("need at least 20 points")
    t = trace.times - trace.times[0]
    y = trace.amplitude
    # normalize the signal scale for exact rescaling invariance
    y_scale = float(np.max(np.abs(y)))
    if y_scale > 0.0:
        y = y / y_scale
    else:
        y_scale = 1.0
    span = t[-1]

    n_tail = max(len(y) // 10, 2)
    offset_init = float(np.mean(y[-n_tail:]))
    a_init = y[0] - offset_init
    tau_init = 1000.0 * span
    if a_init > 0.0:
        target = offset_init + a_init / math.e
        below = np.nonzero(y <= target)[0]
        if below.size > 0 and below[0] > 0:
            tau_init = max(float(t[below[0]]), float(t[1]))

    def model(theta):
        log_tau, a, offset = theta
        tau = math.exp(log_tau)
        decay = np.exp(-t / tau)

        def jacobian():
            return np.column_stack([a * decay * t / tau, decay, np.ones_like(t)])

        return offset + a * decay - y, jacobian

    theta0 = np.array([math.log(tau_init), a_init, offset_init])
    result, sigma, _ = fit_least_squares("ringdown", model, theta0, tol=1e-15)

    tau = math.exp(result.x[0])
    if tau > 100.0 * span:
        raise NonDecayingTrace(
            f"best-fit tau {tau:.3g} s exceeds 100x the trace span {span:.3g} s"
        )
    if span < 2.0 * tau:
        warnings.warn("trace spans less than two time constants", stacklevel=2)
    uncertainties = {
        "tau": sigma[0] * tau,
        "initial_amplitude": sigma[1] * y_scale,
        "offset": sigma[2] * y_scale,
    }
    return RingdownFit(
        tau=tau,
        initial_amplitude=float(result.x[1]) * y_scale,
        offset=float(result.x[2]) * y_scale,
        uncertainties=uncertainties,
        residual_norm=math.sqrt(2.0 * result.cost) * y_scale,
    )


def q_tau_consistency(quality_factor: float, f_hz: float, tau_s: float) -> float:
    """Relative discrepancy |Q - omega*tau|/Q under the energy convention.

    tau = Q/omega is the energy decay time; a value near zero means the
    frequency-domain Q and the ringdown lifetime describe the same loss.
    """
    require_finite(above=0.0, quality_factor=quality_factor, f_hz=f_hz, tau_s=tau_s)
    return abs(quality_factor - angular(f_hz) * tau_s) / quality_factor


def load_frequency_trace_csv(path) -> FrequencyTrace:
    """Read a frequency trace from CSV, ``f_Hz,mag`` or ``f_Hz,re,im``."""
    cols, table = read_csv_table(path, (("f_Hz", "mag"), ("f_Hz", "re", "im")))
    imag = table[:, 2] if len(cols) == 3 else 0.0
    return FrequencyTrace(table[:, 0], table[:, 1] + 1j * imag)


def load_time_trace_csv(path) -> TimeTrace:
    """Read a time trace from CSV with header ``t_s,amp``."""
    _, table = read_csv_table(path, (("t_s", "amp"),))
    return TimeTrace(table[:, 0], table[:, 1])
