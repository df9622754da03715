import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmem.core import angular
from qmem import losses
from qmem.errors import DegenerateJacobian
from qmem.losses import (
    ConstantChannel,
    LossStack,
    PowerLawChannel,
    QvsTDataset,
    ZenerChannel,
    fit_loss_stack,
    landau_rumer_q_inverse,
    total_q,
    total_q_inverse,
    zener_q_inverse,
)


def peaked_zener(f_hz, t_peak, delta=1e-4, activation_temp=150.0):
    """Zener channel whose Debye peak sits at ``t_peak`` for frequency f."""
    tau0 = math.exp(-activation_temp / t_peak) / angular(f_hz)
    return ZenerChannel(delta=delta, tau0=tau0, activation_temp=activation_temp)


def test_zener_peak_value_is_half_delta():
    f = 100e6
    ch = peaked_zener(f, 40.0, delta=1e-4)
    assert zener_q_inverse(ch, f, 40.0) == pytest.approx(5e-5, rel=1e-10)
    # the peak is the global maximum over temperature
    temps = np.linspace(5.0, 300.0, 2000)
    values = [zener_q_inverse(ch, f, t) for t in temps]
    assert max(values) <= 5e-5 * (1 + 1e-10)


def test_zener_low_frequency_asymptote():
    ch = ZenerChannel(delta=1e-4, tau0=1e-12, activation_temp=0.0)
    f = 1e3  # omega*tau ~ 6e-9
    wt = angular(f) * ch.tau0
    assert zener_q_inverse(ch, f, 10.0) == pytest.approx(ch.delta * wt, rel=1e-12)


def test_zener_extreme_arguments_do_not_overflow():
    ch = ZenerChannel(delta=1e-4, tau0=1e-12, activation_temp=5000.0)
    assert zener_q_inverse(ch, 1e8, 1.0) == 0.0  # omega*tau astronomically large
    assert zener_q_inverse(ch, 1e8, 0.0) == 0.0


def test_landau_rumer_power_law():
    ch = PowerLawChannel(coefficient=1e-10, exponent=4.0)
    assert landau_rumer_q_inverse(ch, 0.0) == 0.0
    ratio = landau_rumer_q_inverse(ch, 20.0) / landau_rumer_q_inverse(ch, 10.0)
    assert ratio == pytest.approx(16.0, rel=1e-12)


def _scalar_q_inverse(stack, f_hz, temperature_k):
    """One-temperature reference: the channel formulas evaluated with
    ``math`` on Python floats."""
    total = 0.0
    for ch in stack.channels:
        if isinstance(ch, ZenerChannel):
            log_wt0 = math.log(angular(f_hz) * ch.tau0)
            if temperature_k == 0.0:
                if ch.activation_temp > 0.0:
                    continue
                x = log_wt0
            else:
                x = log_wt0 + ch.activation_temp / temperature_k
            if abs(x) > 300.0:
                total += ch.delta * math.exp(-abs(x))
            else:
                total += ch.delta / (2.0 * math.cosh(x))
        elif isinstance(ch, PowerLawChannel):
            if temperature_k > 0.0:
                total += ch.coefficient * temperature_k**ch.exponent
        else:
            total += 1.0 / ch.q_value
    return total


@pytest.mark.parametrize("activation_temp", [0.0, 150.0, 5000.0])
def test_total_q_inverse_over_array_matches_scalar_reference(activation_temp):
    f = 1e8
    stack = LossStack((
        peaked_zener(f, 40.0, delta=4e-5, activation_temp=activation_temp),
        ZenerChannel(delta=1e-4, tau0=1e-12, activation_temp=activation_temp),
        PowerLawChannel(coefficient=2e-10, exponent=3.7),
        ConstantChannel(1.2e6),
    ))
    temps = np.concatenate(([0.0, 1e-3, 0.5], np.geomspace(1.0, 1e4, 60)))
    values = total_q_inverse(stack, f, temps)
    assert values.shape == temps.shape
    for t, value in zip(temps, values):
        reference = _scalar_q_inverse(stack, f, float(t))
        assert value == pytest.approx(reference, rel=1e-13, abs=0.0)
        assert total_q_inverse(stack, f, float(t)) == value
    with pytest.raises(ValueError):
        total_q_inverse(stack, f, np.array([4.0, -1.0]))


def test_total_q_parallel_constants():
    stack = LossStack((ConstantChannel(1e6), ConstantChannel(1e6)))
    assert total_q(stack, 1e8, 10.0) == pytest.approx(5e5, rel=1e-12)


def test_total_q_single_channel_identity():
    stack = LossStack((ConstantChannel(3.3e5),))
    assert total_q(stack, 1e8, 4.0) == pytest.approx(3.3e5, rel=1e-12)


def test_total_q_bounded_by_smallest_channel_q():
    f = 1e8
    stack = LossStack((
        peaked_zener(f, 40.0, delta=4e-5),
        PowerLawChannel(coefficient=2e-10, exponent=4.0),
        ConstantChannel(1.2e6),
    ))
    for t in np.linspace(2.0, 300.0, 50):
        q_total = total_q(stack, f, t)
        q_each = [1.0 / ch.q_inverse(f, t) for ch in stack.channels if ch.q_inverse(f, t) > 0]
        assert q_total <= min(q_each) * (1 + 1e-12)


def test_total_q_monotone_under_extra_loss():
    f = 1e8
    base = LossStack((ConstantChannel(1e6),))
    worse = LossStack((ConstantChannel(1e6), ConstantChannel(5e6)))
    assert total_q(worse, f, 10.0) < total_q(base, f, 10.0)


def make_dataset(stack, f_hz, temps, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    q = np.array([total_q(stack, f_hz, t) for t in temps])
    if noise:
        q = q * (1.0 + noise * rng.standard_normal(len(temps)))
    return QvsTDataset(temps, q, np.maximum(noise, 1e-3) * q)


def test_fit_constant_channel_exact():
    f = 1e8
    truth = LossStack((ConstantChannel(6.8e5),))
    data = make_dataset(truth, f, np.linspace(4.0, 300.0, 20))
    fit = fit_loss_stack(data, f, LossStack((ConstantChannel(1e5),)))
    assert fit.stack.channels[0].q_value == pytest.approx(6.8e5, rel=1e-9)
    assert fit.residual_norm < 1e-10


def test_fit_noiseless_self_generated_reaches_zero_residual():
    f = 1e8
    truth = LossStack((
        peaked_zener(f, 40.0, delta=4e-5),
        PowerLawChannel(coefficient=2e-10, exponent=4.0),
    ))
    temps = np.geomspace(4.0, 300.0, 30)
    data = make_dataset(truth, f, temps)
    template = LossStack((
        peaked_zener(f, 35.0, delta=2e-5),
        PowerLawChannel(coefficient=5e-10, exponent=3.6),
    ))
    fit = fit_loss_stack(data, f, template)
    assert fit.residual_norm < 1e-8


def test_fit_recovers_exponent_within_one_percent():
    f = 1e8
    truth = LossStack((
        peaked_zener(f, 40.0, delta=4e-5),
        PowerLawChannel(coefficient=2e-10, exponent=4.0),
    ))
    temps = np.geomspace(4.0, 300.0, 30)
    data = make_dataset(truth, f, temps)
    template = LossStack((
        peaked_zener(f, 35.0, delta=2e-5),
        PowerLawChannel(coefficient=5e-10, exponent=3.6),
    ))
    fit = fit_loss_stack(data, f, template)
    assert fit.stack.channels[1].exponent == pytest.approx(4.0, rel=1e-2)


def test_fit_two_channel_noisy_within_three_sigma():
    f = 1e8
    truth = LossStack((
        peaked_zener(f, 40.0, delta=4e-5),
        PowerLawChannel(coefficient=2e-10, exponent=4.0),
    ))
    temps = np.geomspace(4.0, 300.0, 40)
    data = make_dataset(truth, f, temps, noise=0.01, seed=11)
    template = LossStack((
        peaked_zener(f, 35.0, delta=2e-5),
        PowerLawChannel(coefficient=5e-10, exponent=3.7),
    ))
    fit = fit_loss_stack(data, f, template)
    for fitted, sigma, truth_ch in zip(fit.stack.channels, fit.uncertainties, truth.channels):
        for name, s in sigma.items():
            value = getattr(fitted, name)
            expected = getattr(truth_ch, name)
            assert abs(value - expected) < 3.0 * s + 1e-12 * abs(expected), name


def _scaled_q_inverse(stack, s):
    """The stack with every channel's Q^-1 divided by s."""
    channels = []
    for ch in stack.channels:
        if isinstance(ch, ZenerChannel):
            channels.append(dataclasses.replace(ch, delta=ch.delta / s))
        elif isinstance(ch, PowerLawChannel):
            channels.append(dataclasses.replace(ch, coefficient=ch.coefficient / s))
        else:
            channels.append(ConstantChannel(ch.q_value * s))
    return LossStack(tuple(channels))


@pytest.mark.parametrize("s", [7.3, 1e-3, 2.5e4])
def test_fit_amplitude_rescaling_covariance(s):
    # Q -> s Q with the template rescaled to match gives the fitted stack
    # rescaled the same way: the scale parameters move, the shapes do not
    f = 97.5e6
    truth = LossStack((
        peaked_zener(f, 40.0, delta=4e-5),
        PowerLawChannel(coefficient=2e-10, exponent=4.0),
        ConstantChannel(1.1e6),
    ))
    template = LossStack((
        peaked_zener(f, 36.0, delta=2e-5),
        PowerLawChannel(coefficient=5e-10, exponent=3.7),
        ConstantChannel(0.77e6),
    ))
    temps = np.geomspace(4.0, 300.0, 40)
    data = make_dataset(truth, f, temps, noise=2e-3, seed=3)
    scaled_data = QvsTDataset(temps, s * data.q_values, s * data.sigma_q)
    fit = fit_loss_stack(data, f, template)
    scaled = fit_loss_stack(scaled_data, f, _scaled_q_inverse(template, s))
    q_fit = total_q(fit.stack, f, temps)
    np.testing.assert_allclose(total_q(scaled.stack, f, temps), s * q_fit, rtol=1e-9)
    expected = _scaled_q_inverse(fit.stack, s)
    for got, want in zip(scaled.stack.channels, expected.channels):
        for name, value in dataclasses.asdict(want).items():
            assert getattr(got, name) == pytest.approx(value, rel=1e-9), name
    assert scaled.residual_norm == pytest.approx(fit.residual_norm, rel=1e-9)


# the bounded trf fit's residual norms on these probes, before the fit
# moved to lm with the hold-at-bound refit
@pytest.mark.parametrize("exponent, bounded_trf_residual", [
    (-0.3, 449.4217353756711), (-0.05, 90.41584259647325), (-1e-3, 1.9071313553296192),
])
def test_fit_holds_exponent_at_zero_when_data_want_it_negative(exponent, bounded_trf_residual):
    f = 1e8
    truth = LossStack((PowerLawChannel(1e-6, exponent), peaked_zener(f, 40.0, delta=4e-5)))
    data = make_dataset(truth, f, np.geomspace(4.0, 300.0, 40))
    template = LossStack((PowerLawChannel(3e-7, 0.5), peaked_zener(f, 36.0, delta=2e-5)))
    fit = fit_loss_stack(data, f, template)
    assert fit.stack.channels[0].exponent == 0.0
    # a power law with exponent 0 is a constant loss
    held = fit_loss_stack(data, f, LossStack((ConstantChannel(1.0 / 3e-7), template.channels[1])))
    assert fit.residual_norm == pytest.approx(held.residual_norm, rel=1e-9)
    assert fit.residual_norm == pytest.approx(bounded_trf_residual, rel=1e-9)


def test_fit_holds_activation_at_zero_when_data_want_it_negative(monkeypatch):
    # Q^-1 of a Zener loss whose relaxation slows as T rises, T_a = -5 K,
    # fitted from a template on the same side of the Debye peak; its
    # mirror with T_a = +5 K lies on the far side, out of lm's reach
    f = 1e8
    power = PowerLawChannel(2e-10, 4.0)
    temps = np.geomspace(4.0, 300.0, 40)
    q_inv = 4e-5 / (2.0 * np.cosh(2.0 - 5.0 / temps)) + power.q_inverse(f, temps)
    data = QvsTDataset(temps, 1.0 / q_inv, 1e-3 / q_inv)
    zener = ZenerChannel(2e-5, math.exp(2.0) / angular(f), activation_temp=10.0)
    template = LossStack((zener, PowerLawChannel(5e-10, 3.7)))
    solves = []
    fit_least_squares = losses.fit_least_squares

    def recording(*args, **kwargs):
        out = fit_least_squares(*args, **kwargs)
        solves.append(out[0])
        return out

    monkeypatch.setattr(losses, "fit_least_squares", recording)
    # at T_a = 0 the Zener loss is constant, so delta and tau0 trade off
    with pytest.raises(DegenerateJacobian):
        fit_loss_stack(data, f, template)
    monkeypatch.undo()
    first, refit = solves
    # the refit leaves out activation_temp, which enters as exactly 0
    assert refit.x.size == first.x.size - 1
    held = fit_loss_stack(data, f, LossStack((ConstantChannel(1.0 / zener.q_inverse(f, 1.0)), power)))
    assert math.sqrt(2.0 * refit.cost) == pytest.approx(held.residual_norm, rel=1e-9)


def test_fit_evaluates_the_template_once(monkeypatch):
    # the out-of-range check, leastsq's shape checks and MINPACK's first
    # residual and Jacobian share one run of the channel kernels at the
    # template, and a Jacobian shares the run of its point's residuals
    f = 97.5e6
    template = LossStack((peaked_zener(f, 36.0, delta=2e-5), PowerLawChannel(5e-10, 3.7)))
    truth = LossStack((peaked_zener(f, 40.0, delta=4e-5), PowerLawChannel(2e-10, 4.0)))
    data = make_dataset(truth, f, np.geomspace(4.0, 300.0, 40), noise=2e-3, seed=3)
    kernel, fit_least_squares = losses._power_law, losses.fit_least_squares
    calls, solves = [], []

    def counted(f_hz, t, coefficient, exponent):
        calls.append((coefficient, exponent))
        return kernel(f_hz, t, coefficient, exponent)

    def recording(*args, **kwargs):
        out = fit_least_squares(*args, **kwargs)
        solves.append(out[0])
        return out

    monkeypatch.setitem(losses._KERNELS, PowerLawChannel, (counted, losses._power_law_gradient))
    monkeypatch.setattr(losses, "fit_least_squares", recording)
    fit_loss_stack(data, f, template)
    [result] = solves
    assert calls.count((5e-10, 3.7)) == 1
    # plus one where the solution is not the last trial point
    assert len(calls) <= result.nfev + 1


def test_fit_requires_enough_points():
    f = 1e8
    template = LossStack((
        peaked_zener(f, 40.0),
        PowerLawChannel(coefficient=1e-10, exponent=4.0),
    ))
    data = QvsTDataset([10.0, 20.0, 30.0], [1e5, 1e5, 1e5], [1e3, 1e3, 1e3])
    with pytest.raises(ValueError):
        fit_loss_stack(data, f, template)


def test_fit_degenerate_template_rejected():
    f = 1e8
    truth = LossStack((ConstantChannel(5e5),))
    data = make_dataset(truth, f, np.linspace(4.0, 300.0, 20))
    template = LossStack((ConstantChannel(4e5), ConstantChannel(4e5)))
    with pytest.raises(DegenerateJacobian):
        fit_loss_stack(data, f, template)


def test_dataset_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        QvsTDataset([10.0, 10.0], [1e5, 1e5], [1e3, 1e3])
    with pytest.raises(ValueError):
        QvsTDataset([10.0, 20.0], [1e5, -1.0], [1e3, 1e3])
    data = QvsTDataset([8.0, 20.0, 40.0], [6.8e5, 1e5, 4e4], [1e3, 1e3, 1e3])
    path = tmp_path / "qvt.csv"
    data.to_csv(path)
    loaded = QvsTDataset.from_csv(path)
    assert np.allclose(loaded.temperatures, data.temperatures)
    assert np.allclose(loaded.q_values, data.q_values)
    bad = tmp_path / "bad.csv"
    bad.write_text("T,Q,s\n1,2,3\n")
    with pytest.raises(ValueError):
        QvsTDataset.from_csv(bad)


def _unpack_reference(stack, names, theta):
    """Per-parameter ``dataclasses.replace`` rebuild of the fitted stack:
    each log parameter is the template's value times exp(theta)."""
    channels = list(stack.channels)
    for (idx, attr, kind), value in zip(names, theta):
        v = getattr(stack.channels[idx], attr) * math.exp(value) if kind == "log" else float(value)
        channels[idx] = dataclasses.replace(channels[idx], **{attr: v})
    return LossStack(tuple(channels))


def test_unpack_matches_per_parameter_replace(monkeypatch):
    # a Zener peak, a power law and a floor, fitted from a template away
    # from the generating stack
    f = 97.5e6
    truth = LossStack((
        peaked_zener(f, 40.0, delta=4e-5),
        PowerLawChannel(coefficient=2e-10, exponent=4.0),
        ConstantChannel(1.1e6),
    ))
    template = LossStack((
        peaked_zener(f, 36.0, delta=2e-5),
        PowerLawChannel(coefficient=5e-10, exponent=3.7),
        ConstantChannel(0.77e6),
    ))
    data = make_dataset(truth, f, np.geomspace(4.0, 300.0, 40), noise=2e-3, seed=3)
    names, theta, _ = losses._pack(template)
    assert losses._unpack(template, names, theta) == _unpack_reference(template, names, theta)
    fit = fit_loss_stack(data, f, template)
    monkeypatch.setattr(losses, "_unpack", _unpack_reference)
    reference = fit_loss_stack(data, f, template)
    assert fit.stack == reference.stack
    assert fit.uncertainties == reference.uncertainties
    assert fit.residual_norm == reference.residual_norm


def _stack_residuals(data, f_hz, template):
    """The residuals of the model ``fit_loss_stack`` hands the fit helper."""

    class Captured(Exception):
        pass

    def record(name, model, theta0, **options):
        raise Captured(lambda theta: model(theta)[0])

    with mock.patch.object(losses, "fit_least_squares", record):
        with pytest.raises(Captured) as info:
            fit_loss_stack(data, f_hz, template)
    return info.value.args[0]


# in range, or far enough out that exp overflows or underflows to 0
log_offsets = st.one_of(st.floats(-3.0, 3.0), st.floats(-800.0, 800.0))


@settings(max_examples=200, deadline=None)
@given(
    logs=st.tuples(log_offsets, log_offsets, log_offsets, log_offsets),
    activation=st.floats(-50.0, 400.0),
    exponent=st.floats(-1.0, 6.0),
)
# a floor whose Q overflows to inf, which the channel rejects
@example(logs=(0.0, 0.0, 0.0, 697.0), activation=0.0, exponent=0.0)
def test_residuals_are_those_of_the_unpacked_stack(logs, activation, exponent):
    # the fit evaluates its channel kernels on raw values; the residuals
    # are those of the stack _unpack builds, bit for bit, and infinite
    # where a bounded parameter is negative or no stack can be built
    f = 97.5e6
    template = LossStack((
        peaked_zener(f, 36.0, delta=2e-5),
        PowerLawChannel(coefficient=5e-10, exponent=3.7),
        ConstantChannel(0.77e6),
    ))
    truth = LossStack((peaked_zener(f, 40.0, delta=4e-5), PowerLawChannel(2e-10, 4.0), ConstantChannel(1.1e6)))
    data = make_dataset(truth, f, np.geomspace(4.0, 300.0, 40), noise=2e-3, seed=3)
    names, _, bounded = losses._pack(template)
    theta = np.array([logs[0], logs[1], activation, logs[2], exponent, logs[3]])
    try:
        if np.any(theta[bounded] < 0.0):
            raise ValueError("negative bounded parameter")
        model = total_q_inverse(losses._unpack(template, names, theta), f, data.temperatures)
        with np.errstate(all="ignore"):
            expected = (np.log(model) + np.log(data.q_values)) / (data.sigma_q / data.q_values)
    except (OverflowError, ValueError):
        expected = np.full(len(data), np.inf)
    residuals = _stack_residuals(data, f, template)
    assert residuals(theta).tobytes() == expected.tobytes()
