import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmem import analysis
from qmem.analysis import (
    fit_lorentzian,
    fit_ringdown,
    load_frequency_trace_csv,
    load_time_trace_csv,
    q_tau_consistency,
)
from qmem.core import FrequencyTrace, TimeTrace, angular, fit_least_squares
from qmem.errors import FitDidNotConverge, NonDecayingTrace, NoPeakFound


def lorentzian_trace(f0=97.2e6, q=6.8e5, amp=1.0, bg=0.05, span=3e3, n=401,
                     noise=0.0, seed=0):
    f = np.linspace(f0 - span / 2, f0 + span / 2, n)
    y = np.abs(bg + amp / (1.0 + 2j * q * (f - f0) / f0))
    if noise:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise * rng.standard_normal(n))
    return FrequencyTrace(f, y)


def ringdown_trace(tau=1.023e-3, amp=1.0, offset=0.0, span=5e-3, n=400,
                   noise=0.0, seed=0):
    t = np.linspace(0.0, span, n)
    y = offset + amp * np.exp(-t / tau)
    if noise:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise * rng.standard_normal(n))
    return TimeTrace(t, y)


def test_lorentzian_noiseless_round_trip():
    fit = fit_lorentzian(lorentzian_trace())
    assert fit.f0 == pytest.approx(97.2e6, abs=1.0)
    assert fit.Q == pytest.approx(6.8e5, rel=1e-6)
    assert fit.residual_norm < 1e-10


def test_lorentzian_noisy_recovery_within_two_percent():
    fit = fit_lorentzian(lorentzian_trace(noise=0.01, seed=3))
    assert fit.Q == pytest.approx(6.8e5, rel=0.02)
    assert fit.f0 == pytest.approx(97.2e6, rel=1e-6)
    assert fit.uncertainties["Q"] > 0


def test_lorentzian_flat_trace_raises():
    f = np.linspace(97e6, 98e6, 101)
    with pytest.raises(NoPeakFound):
        fit_lorentzian(FrequencyTrace(f, np.full(101, 0.3)))


def test_lorentzian_needs_enough_points():
    with pytest.raises(ValueError):
        fit_lorentzian(lorentzian_trace(n=10))


def test_lorentzian_amplitude_scale_invariance():
    trace = lorentzian_trace(noise=0.005, seed=5)
    fit1 = fit_lorentzian(trace)
    fit2 = fit_lorentzian(FrequencyTrace(trace.frequencies, 137.0 * trace.response))
    assert fit2.Q == pytest.approx(fit1.Q, rel=1e-9)
    assert fit2.f0 == pytest.approx(fit1.f0, rel=1e-12)


def test_lorentzian_frequency_offset_covariance():
    trace = lorentzian_trace(noise=0.005, seed=6)
    shift = 5e6
    shifted = FrequencyTrace(trace.frequencies + shift, trace.response)
    fit1 = fit_lorentzian(trace)
    fit2 = fit_lorentzian(shifted)
    assert fit2.f0 == pytest.approx(fit1.f0 + shift, abs=1e-3)
    # the absolute linewidth, not Q itself, is the offset-invariant quantity
    assert fit2.f0 / fit2.Q == pytest.approx(fit1.f0 / fit1.Q, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    bg=st.floats(0.01, 0.3), phase=st.floats(-math.pi, math.pi),
    noise=st.floats(0.0, 1e-2), seed=st.integers(0, 2**32 - 1),
)
def test_lorentzian_recovery_property(bg, phase, noise, seed):
    # 2,001 points keep the statistical Q error at 1e-2 noise near 0.5 %
    trace = lorentzian_trace(amp=np.exp(1j * phase), bg=bg, n=2001, noise=noise, seed=seed)
    fit = fit_lorentzian(trace)
    assert fit.background >= 0.0
    assert trace.frequencies[0] <= fit.f0 <= trace.frequencies[-1]
    assert fit.Q == pytest.approx(6.8e5, rel=0.02)
    assert fit.f0 == pytest.approx(97.2e6, rel=1e-6)


@pytest.mark.xfail(raises=FitDidNotConverge, strict=True, reason=(
    "at a background near 0 the phase of A barely changes |m|, and lm "
    "exhausts its evaluations in that flat direction"))
def test_lorentzian_with_background_near_zero_converges():
    fit = fit_lorentzian(lorentzian_trace(amp=np.exp(1j), bg=1e-3, noise=1e-3))
    assert fit.Q == pytest.approx(6.8e5, rel=0.02)


def test_lorentzian_reports_the_mirror_of_a_negative_background(monkeypatch):
    # |bg + A/denom| is even in (bg, A): a solution with bg < 0 is reported
    # as its mirror, with the same uncertainties
    trace = lorentzian_trace(noise=0.005, seed=5)
    direct = fit_lorentzian(trace)

    def mirrored(*args, **kwargs):
        result, sigma, singular_values = fit_least_squares(*args, **kwargs)
        result.x = result.x * np.array([1.0, 1.0, -1.0, -1.0, -1.0])
        return result, sigma, singular_values

    monkeypatch.setattr(analysis, "fit_least_squares", mirrored)
    assert fit_lorentzian(trace) == direct


def test_lorentzian_centred_outside_the_trace_raises():
    # the wing of a resonance 3 to 20 linewidths above its centre
    f0, q = 97.2e6, 6.8e5
    f = np.linspace(f0 + 3.0 * f0 / q, f0 + 20.0 * f0 / q, 201)
    y = np.abs(1.0 / (1.0 + 2j * q * (f - f0) / f0))
    with pytest.raises(FitDidNotConverge, match="outside the trace") as info:
        fit_lorentzian(FrequencyTrace(f, y))
    assert "\n" not in str(info.value)


def test_ringdown_noiseless_round_trip():
    fit = fit_ringdown(ringdown_trace(offset=0.1))
    assert fit.tau == pytest.approx(1.023e-3, rel=1e-9)
    assert fit.offset == pytest.approx(0.1, abs=1e-9)
    assert fit.residual_norm < 1e-10


def test_ringdown_noisy_recovery_within_one_percent():
    fit = fit_ringdown(ringdown_trace(noise=0.01, seed=9))
    assert fit.tau == pytest.approx(1.023e-3, rel=0.01)


def test_ringdown_constant_trace_raises():
    t = np.linspace(0, 1e-3, 50)
    with pytest.raises(NonDecayingTrace):
        fit_ringdown(TimeTrace(t, np.full(50, 2.0)))


def test_ringdown_amplitude_scale_invariance():
    trace = ringdown_trace(noise=0.01, seed=4)
    fit1 = fit_ringdown(trace)
    fit2 = fit_ringdown(TimeTrace(trace.times, 42.0 * trace.amplitude))
    assert fit2.tau == pytest.approx(fit1.tau, rel=1e-9)


def test_ringdown_short_span_warns():
    trace = ringdown_trace(tau=1.023e-3, span=1.2e-3)
    with pytest.warns(UserWarning):
        fit_ringdown(trace)


def test_q_tau_consistency_paper_point():
    assert q_tau_consistency(6.25e5, 97.2e6, 1.023e-3) < 1e-3


def test_q_tau_consistency_exact_and_doubled():
    f = 97.2e6
    tau = 1e-3
    q = angular(f) * tau
    assert q_tau_consistency(q, f, tau) == 0.0
    assert q_tau_consistency(q, f, 2 * tau) == pytest.approx(1.0, rel=1e-12)


def test_q_tau_validation():
    with pytest.raises(ValueError):
        q_tau_consistency(-1.0, 1e8, 1e-3)


def test_frequency_trace_csv_loaders(tmp_path):
    mag = tmp_path / "mag.csv"
    mag.write_text("f_Hz,mag\n" + "\n".join(f"{1e6 + i},{i}" for i in range(5)) + "\n")
    trace = load_frequency_trace_csv(mag)
    assert len(trace) == 5 and trace.response[2] == 2.0 + 0j

    cplx = tmp_path / "cplx.csv"
    cplx.write_text("f_Hz,re,im\n1e6,1.0,2.0\n2e6,3.0,4.0\n")
    trace = load_frequency_trace_csv(cplx)
    assert trace.response[1] == 3.0 + 4.0j

    bad = tmp_path / "bad.csv"
    bad.write_text("f_Hz,mag\n1e6,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_frequency_trace_csv(bad)


def test_time_trace_csv_loader(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t_s,amp\n0.0,1.0\n1.0,0.5\n")
    trace = load_time_trace_csv(path)
    assert trace.amplitude[1] == 0.5
    bad = tmp_path / "bad_header.csv"
    bad.write_text("time,amp\n0.0,1.0\n")
    with pytest.raises(ValueError):
        load_time_trace_csv(bad)
