"""Each fit's exact Jacobian against a central difference of its residuals.

The fit is run up to its call of ``fit_least_squares``, which is replaced
by a recorder, so the test sees the model whose residual and Jacobian the
solver would get.  Both are evaluated at drawn parameter vectors, and each
Jacobian column must match the central difference to ``RTOL`` of its norm,
plus a float-noise floor of ``FLOOR`` of the whole Jacobian's norm for
columns that vanish.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmem import analysis, duffing, electromech, losses
from qmem.core import FrequencyTrace, TimeTrace, angular

# the central differences below err by about 1e-6 of a column's norm
RTOL = 1e-5
FLOOR = 1e-8

units = st.floats(-1.0, 1.0)


class _Captured(Exception):
    def __init__(self, residuals, jac):
        super().__init__()
        self.residuals, self.jac = residuals, jac


def _capture(module, fit, *args, **kwargs) -> _Captured:
    """The residual and Jacobian functions of the model ``fit`` hands the
    helper."""

    def record(name, model, theta0, **options):
        raise _Captured(lambda theta: model(theta)[0], lambda theta: model(theta)[1]())

    with mock.patch.object(module, "fit_least_squares", record):
        try:
            fit(*args, **kwargs)
        except _Captured as captured:
            return captured
    raise AssertionError(f"{fit.__name__} never called fit_least_squares")


def _assert_jacobian(captured: _Captured, theta, steps):
    theta = np.asarray(theta, dtype=float)
    jac = captured.jac(theta)
    columns = []
    for j, h in enumerate(steps):
        e = np.zeros_like(theta)
        e[j] = h
        columns.append((captured.residuals(theta + e) - captured.residuals(theta - e)) / (2.0 * h))
    reference = np.column_stack(columns)
    assert jac.shape == reference.shape
    error = np.linalg.norm(jac - reference, axis=0)
    bound = RTOL * np.linalg.norm(reference, axis=0) + FLOOR * np.linalg.norm(reference)
    assert np.all(error <= bound), (error, bound)


@settings(max_examples=50, deadline=None)
@given(
    q=st.floats(1e4, 1e6), bg=st.floats(0.0, 0.3), phase=st.floats(-math.pi, math.pi),
    offsets=st.tuples(units, units, units, units, units),
)
def test_lorentzian_jacobian(q, bg, phase, offsets):
    f0 = 97.2e6
    width = f0 / q
    f = np.linspace(f0 - 10.0 * width, f0 + 10.0 * width, 401)
    y = np.abs(bg + np.exp(1j * phase) / (1.0 + 2j * q * (f - f0) / f0))
    captured = _capture(analysis, analysis.fit_lorentzian, FrequencyTrace(f, y))
    # (f0, log Q, Re A, Im A, background) in the fit's normalized units
    u = offsets
    theta = [f0 + u[0] * width, math.log(q) + 0.5 * u[1], 0.8 + 0.5 * u[2], 0.5 * u[3],
             bg + 0.1 * u[4]]
    _assert_jacobian(captured, theta, [1e-3 * width, 1e-6, 1e-6, 1e-6, 1e-6])


@settings(max_examples=50, deadline=None)
@given(tau=st.floats(1e-4, 1e-2), offset=st.floats(0.0, 0.3), offsets=st.tuples(units, units, units))
def test_ringdown_jacobian(tau, offset, offsets):
    t = np.linspace(0.0, 4.0 * tau, 400)
    captured = _capture(analysis, analysis.fit_ringdown, TimeTrace(t, offset + np.exp(-t / tau)))
    u = offsets
    theta = [math.log(tau) + 0.5 * u[0], 1.0 + 0.3 * u[1], offset + 0.1 * u[2]]
    _assert_jacobian(captured, theta, [1e-6, 1e-6, 1e-6])


def _admittance_trace(params: electromech.BvdParams) -> FrequencyTrace:
    f_s = params.series_resonance_hz
    f = np.linspace(0.997 * f_s, 1.003 * f_s, 400)
    return FrequencyTrace(f, electromech.bvd_admittance(params, f))


@settings(max_examples=50, deadline=None)
@given(
    scales=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    log_q=st.floats(math.log(1e5), math.log(1e7)),
    fit_rm=st.booleans(),
    sample=st.integers(0, 398),
    between=st.floats(0.1, 0.9),
    offsets=st.tuples(units, units, units),
)
def test_bvd_jacobian(scales, log_q, fit_rm, sample, between, offsets):
    # around the published device point C0 = 0.896 fF, Cm = 0.138 aF, Lm = 18.9 H
    lossless = electromech.BvdParams(
        C0=8.96e-16 * scales[0], Cm=1.38e-19 * scales[1], Lm=18.9 * scales[2],
    )
    # Rm of the drawn Q, above the Q ~ 2 C0/Cm below which Im Y stays
    # positive; the lossless fit takes the trace of its own model
    rm = angular(lossless.series_resonance_hz) * lossless.Lm / math.exp(log_q)
    params = electromech.BvdParams(lossless.C0, lossless.Cm, lossless.Lm, rm if fit_rm else 0.0)
    trace = _admittance_trace(params)
    captured = _capture(electromech, electromech.fit_bvd, trace, fit_rm=fit_rm)
    # a series resonance between two samples, so the lossless pole stays
    # at least a tenth of the spacing from every sample
    f = trace.frequencies
    f_s = f[sample] + between * (f[sample + 1] - f[sample])
    u = offsets
    theta = [math.log(params.C0) + 0.1 * u[0], math.log(params.Cm) + 0.1 * u[1], f_s]
    steps = [1e-6, 1e-6, 1e-3 * min(between, 1.0 - between) * (f[1] - f[0])]
    if fit_rm:
        theta.append(math.log(rm) + u[2])
        steps.append(1e-6)
    _assert_jacobian(captured, theta, steps)


@settings(max_examples=50, deadline=None)
@given(
    t_peak=st.floats(20.0, 60.0), activation=st.floats(50.0, 300.0),
    exponent=st.floats(3.0, 5.0), floor=st.floats(1e5, 1e7),
    offsets=st.lists(units, min_size=6, max_size=6),
)
def test_loss_stack_jacobian(t_peak, activation, exponent, floor, offsets):
    f_hz = 97.5e6
    tau0 = math.exp(-activation / t_peak) / angular(f_hz)
    stack = losses.LossStack((
        losses.ZenerChannel(delta=4e-5, tau0=tau0, activation_temp=activation),
        losses.PowerLawChannel(coefficient=2e-10, exponent=exponent),
        losses.ConstantChannel(q_value=floor),
    ))
    temps = np.geomspace(4.0, 300.0, 40)
    q = losses.total_q(stack, f_hz, temps)
    data = losses.QvsTDataset(temps, q, 2e-3 * q)
    captured = _capture(losses, losses.fit_loss_stack, data, f_hz, stack)
    names, theta, _ = losses._pack(stack)
    # log delta, log tau0, activation_temp, log coefficient, exponent, log q_value
    spread = np.array([0.5, 0.5, 20.0, 0.5, 0.3, 0.5])
    theta = theta + spread * np.array(offsets)
    steps = [1e-6 * max(abs(v), 1.0) for v in theta]
    _assert_jacobian(captured, theta, steps)


@settings(max_examples=50, deadline=None)
@given(
    amps=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=8, unique=True),
    n=st.floats(1.0, 3.0),
    offsets=st.tuples(units, units, units),
)
def test_backbone_jacobian(amps, n, offsets):
    f0, coeff = 1e6, 1e3
    points = [(a, f0 + coeff * a**n) for a in amps]
    captured = _capture(duffing, duffing.fit_backbone, points)
    u = offsets
    theta = [f0 * (1.0 + 1e-6 * u[0]), coeff * (1.0 + 0.5 * u[1]), math.log(n) + 0.2 * u[2]]
    _assert_jacobian(captured, theta, [1e-6 * f0, 1e-6 * coeff, 1e-6])
