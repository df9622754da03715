"""Dissipation channels and their temperature dependence.

Each channel contributes an inverse quality factor Q_i^-1(f, T); the
total is Q = (sum_i Q_i^-1)^-1.  Relaxation-type losses (phonon-phonon
scattering in the Akhiezer regime, thermoelastic damping, impurity
relaxation) share the Zener form

    Q^-1 = Delta * omega*tau / (1 + (omega*tau)^2),

peaking at omega*tau = 1, with an Arrhenius bath relaxation time
tau(T) = tau0 * exp(T_a/T).  Ballistic phonon-phonon loss enters as a
power law Q^-1 = B*T^n (n near 4), and pressure- or geometry-limited
floors as constant channels.  ``fit_loss_stack`` adjusts all channel
parameters of a template stack to measured Q(T) data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (angular, fit_least_squares, parameter_uncertainties, read_csv_table, remember_last,
                   require_finite, write_csv_table)
from .errors import DegenerateJacobian, TemplateOutOfRange


@dataclass(frozen=True)
class ZenerChannel:
    """Relaxation loss with strength ``delta`` and Arrhenius bath time.

    tau(T) = tau0 * exp(activation_temp / T).
    """

    delta: float
    tau0: float
    activation_temp: float = 0.0

    def __post_init__(self):
        require_finite(above=0.0, delta=self.delta, tau0=self.tau0)
        require_finite(at_least=0.0, activation_temp=self.activation_temp)

    def q_inverse(self, f_hz: float, temperature_k: float | np.ndarray):
        return zener_q_inverse(self, f_hz, temperature_k)


@dataclass(frozen=True)
class PowerLawChannel:
    """Q^-1 = coefficient * T**exponent (Landau-Rumer-type loss)."""

    coefficient: float
    exponent: float = 4.0

    def __post_init__(self):
        require_finite(above=0.0, coefficient=self.coefficient)
        require_finite(exponent=self.exponent)

    def q_inverse(self, f_hz: float, temperature_k: float | np.ndarray):
        return landau_rumer_q_inverse(self, temperature_k)


@dataclass(frozen=True)
class ConstantChannel:
    """Temperature- and frequency-independent loss floor."""

    q_value: float

    def __post_init__(self):
        require_finite(above=0.0, q_value=self.q_value)

    def q_inverse(self, f_hz: float, temperature_k: float) -> float:
        return _constant(f_hz, temperature_k, self.q_value)


Channel = ZenerChannel | PowerLawChannel | ConstantChannel


@dataclass(frozen=True)
class LossStack:
    """A non-empty collection of dissipation channels acting in parallel."""

    channels: tuple[Channel, ...]

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ValueError("stack must contain at least one channel")
        object.__setattr__(self, "channels", channels)


def _temperatures(temperature_k) -> np.ndarray:
    """``temperature_k`` as an array, checked to be finite and >= 0."""
    t = np.asarray(temperature_k, dtype=float)
    require_finite(at_least=0.0, temperature_k=t)
    return t


# Array kernels of the channels' Q^-1 on raw parameter values, in each
# channel's field order, and their derivatives by the packed parameters
# of the stack fit (log space for the scale parameters, linear for
# activation_temp and exponent).  The public functions validate and call
# the kernels; the stack fit calls them directly.
def _zener_log_wt(f_hz, t, tau0, activation_temp):
    """x = ln(omega*tau) with tau = tau0*exp(T_a/T): inf at T = 0 for T_a > 0."""
    log_wt0 = math.log(angular(f_hz) * tau0)
    if activation_temp > 0.0:
        with np.errstate(divide="ignore"):
            return log_wt0 + activation_temp / t
    return np.full(t.shape, log_wt0)


def _zener(f_hz, t, delta, tau0, activation_temp):
    ax = np.abs(_zener_log_wt(f_hz, t, tau0, activation_temp))
    return np.where(
        ax > 300.0,
        delta * np.exp(-ax),
        # clipped, because np.where evaluates both branches
        delta / (2.0 * np.cosh(np.minimum(ax, 300.0))),
    )


def _zener_gradient(f_hz, t, q_inv, delta, tau0, activation_temp):
    # Q^-1 = delta/(2 cosh x): d/dx = -Q^-1 tanh x, and x is linear in
    # ln tau0 and in T_a/T
    dq_dx = -q_inv * np.tanh(_zener_log_wt(f_hz, t, tau0, activation_temp))
    return q_inv, dq_dx, dq_dx / t


def _power_law(f_hz, t, coefficient, exponent):
    return np.where(t > 0.0, coefficient * t**exponent, 0.0)


def _power_law_gradient(f_hz, t, q_inv, coefficient, exponent):
    return q_inv, q_inv * np.log(t)


def _constant(f_hz, t, q_value):
    return 1.0 / q_value


def _constant_gradient(f_hz, t, q_inv, q_value):
    return (np.full(t.shape, -q_inv),)


def zener_q_inverse(
    channel: ZenerChannel, f_hz: float, temperature_k: float | np.ndarray
) -> float | np.ndarray:
    """Zener relaxation loss Delta*omega*tau/(1 + (omega*tau)^2).

    Evaluated as Delta/(2*cosh(ln(omega*tau))) which keeps full precision
    on both sides of the Debye peak and cannot overflow.  ``temperature_k``
    is a float or an array of temperatures; the result has the same form.
    """
    require_finite(above=0.0, f_hz=f_hz)
    t = _temperatures(temperature_k)
    q_inv = _zener(f_hz, t, channel.delta, channel.tau0, channel.activation_temp)
    return q_inv if t.ndim else float(q_inv)


def landau_rumer_q_inverse(
    channel: PowerLawChannel, temperature_k: float | np.ndarray
) -> float | np.ndarray:
    """Power-law loss B*T**n; zero at T = 0.  ``temperature_k`` is a float
    or an array of temperatures; the result has the same form."""
    t = _temperatures(temperature_k)
    q_inv = _power_law(None, t, channel.coefficient, channel.exponent)
    return q_inv if t.ndim else float(q_inv)


def total_q_inverse(
    stack: LossStack, f_hz: float, temperature_k: float | np.ndarray
) -> float | np.ndarray:
    """Summed inverse quality factor of all channels, at one temperature or
    elementwise over an array of them."""
    return sum(ch.q_inverse(f_hz, temperature_k) for ch in stack.channels)


def total_q(
    stack: LossStack, f_hz: float, temperature_k: float | np.ndarray
) -> float | np.ndarray:
    """Total quality factor Q = (sum_i Q_i^-1)^-1."""
    return 1.0 / total_q_inverse(stack, f_hz, temperature_k)


@dataclass(frozen=True)
class QvsTDataset:
    """Measured quality factor versus temperature with 1-sigma errors."""

    temperatures: np.ndarray
    q_values: np.ndarray
    sigma_q: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.temperatures, dtype=float)
        q = np.asarray(self.q_values, dtype=float)
        s = np.asarray(self.sigma_q, dtype=float)
        if not (t.shape == q.shape == s.shape) or t.ndim != 1 or t.size == 0:
            raise ValueError("temperatures, q_values, sigma_q must be equal-length 1-D")
        require_finite(above=0.0, temperatures=t, q_values=q, sigma_q=s)
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("temperatures must be strictly increasing")
        object.__setattr__(self, "temperatures", t)
        object.__setattr__(self, "q_values", q)
        object.__setattr__(self, "sigma_q", s)

    def __len__(self) -> int:
        return self.temperatures.size

    @classmethod
    def from_csv(cls, path) -> "QvsTDataset":
        """Read a dataset from CSV with header ``T_K,Q,sigma_Q``."""
        _, table = read_csv_table(path, (("T_K", "Q", "sigma_Q"),))
        return cls(*table.T)

    def to_csv(self, path) -> None:
        write_csv_table(path, ("T_K", "Q", "sigma_Q"),
                        zip(self.temperatures, self.q_values, self.sigma_q))


# Internal parameter packing for the stack fit.  Each positive scale
# parameter is fitted as theta = ln(value / template value), so every fit
# starts from theta = 0 and rescaling Q poses the same arithmetic problem;
# activation_temp and exponent stay linear and bounded below by zero.
_LOG_PARAMS = {
    ZenerChannel: ("delta", "tau0"),
    PowerLawChannel: ("coefficient",),
    ConstantChannel: ("q_value",),
}
_LINEAR_PARAMS = {
    ZenerChannel: ("activation_temp",),
    PowerLawChannel: ("exponent",),
    ConstantChannel: (),
}


def _pack(stack: LossStack):
    """Parameter names, the template's packed values and the mask of the
    parameters bounded below by zero."""
    names, theta = [], []
    for idx, ch in enumerate(stack.channels):
        for attr in _LOG_PARAMS[type(ch)]:
            names.append((idx, attr, "log"))
            theta.append(0.0)
        for attr in _LINEAR_PARAMS[type(ch)]:
            names.append((idx, attr, "lin"))
            theta.append(getattr(ch, attr))
    return names, np.array(theta), np.array([kind == "lin" for _, _, kind in names])


def _unpack(stack: LossStack, names, theta) -> LossStack:
    """The stack with the packed parameters ``theta``: one constructor call
    per channel, since every channel field is a fitted parameter."""
    fields: list[dict] = [{} for _ in stack.channels]
    for (idx, attr, kind), value in zip(names, theta):
        if kind == "log":
            fields[idx][attr] = getattr(stack.channels[idx], attr) * math.exp(value)
        else:
            fields[idx][attr] = float(value)
    return LossStack(tuple(type(ch)(**kw) for ch, kw in zip(stack.channels, fields)))


_KERNELS = {
    ZenerChannel: (_zener, _zener_gradient),
    PowerLawChannel: (_power_law, _power_law_gradient),
    ConstantChannel: (_constant, _constant_gradient),
}


def _stack_model(template: LossStack, names, f_hz: float, data: QvsTDataset):
    """The stack fit's model of packed parameters theta: residuals on
    log Q^-1, weighted by sigma_Q/Q, and their Jacobian, both from one run
    of the channel kernels on raw values; no channel or stack is built.

    The residuals are infinite where ``_unpack`` would fail (a negative
    bounded parameter, or a log parameter that overflows to inf or
    underflows to 0).  Each channel's packed parameters are its fields in
    order, so they slice theta.
    """
    scales = [getattr(template.channels[idx], attr) if kind == "log" else None
              for idx, attr, kind in names]
    channels, start = [], 0
    for ch in template.channels:
        stop = start + len(_LOG_PARAMS[type(ch)]) + len(_LINEAR_PARAMS[type(ch)])
        channels.append((*_KERNELS[type(ch)], start, stop))
        start = stop
    temperatures = data.temperatures
    log_qinv_data = -np.log(data.q_values)
    sigma_log = data.sigma_q / data.q_values

    def values(theta):
        raw = []
        for value, scale in zip(theta.tolist(), scales):
            if scale is not None:
                try:
                    value = scale * math.exp(value)
                except OverflowError:
                    return None
            # the channels' rule, inline as no channel is built: finite, and
            # > 0 for a log parameter, >= 0 for a linear one
            if not (0.0 < value < math.inf if scale is not None else 0.0 <= value < math.inf):
                return None
            raw.append(value)
        return raw

    def model(theta):
        raw = values(theta)
        if raw is None:
            return np.full(len(data), np.inf), None
        q_invs = [kernel(f_hz, temperatures, *raw[i:j]) for kernel, _, i, j in channels]
        q_inv = sum(q_invs)

        def jacobian():
            columns = [
                column for (_, grad, i, j), channel_q_inv in zip(channels, q_invs)
                for column in grad(f_hz, temperatures, channel_q_inv, *raw[i:j])
            ]
            return np.column_stack(columns) / (q_inv * sigma_log)[:, None]

        return (np.log(q_inv) - log_qinv_data) / sigma_log, jacobian

    return model


@dataclass(frozen=True)
class LossStackFit:
    """Fitted stack with 1-sigma uncertainties per channel parameter."""

    stack: LossStack
    uncertainties: tuple[dict, ...]
    residual_norm: float


# A trial step past the float range gives non-finite residuals, which lm
# rejects, so numpy's warnings about it would only reach the user as noise.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def fit_loss_stack(data: QvsTDataset, f_hz: float, template: LossStack) -> LossStackFit:
    """Weighted nonlinear least squares of a channel stack on Q(T) data.

    Residuals are taken on log Q^-1 (weights sigma_Q/Q) so channels that
    differ by orders of magnitude across the temperature span contribute
    evenly.  The template's parameter values serve as the deterministic
    initial guess.  activation_temp and exponent are bounded below by zero:
    where the data want a negative value the fit holds it at 0.  Raises
    ``TemplateOutOfRange`` when the template's model is not finite,
    ``FitDidNotConverge`` or, for unidentifiable templates,
    ``DegenerateJacobian``.
    """
    names, theta0, bounded = _pack(template)
    n_params = len(names)
    if len(data) < 2 * n_params:
        raise ValueError(
            f"need at least {2 * n_params} points for {n_params} free parameters, "
            f"got {len(data)}"
        )
    # the out-of-range check and the fit share the kernel runs at theta0
    model = remember_last(_stack_model(template, names, f_hz, data))

    if not np.isfinite(model(theta0)[0]).all():
        culprits = [
            f"channel {idx} ({ch})" for idx, ch in enumerate(template.channels)
            if not np.isfinite(ch.q_inverse(f_hz, data.temperatures)).all()
            or any(getattr(ch, attr) < 0.0 for attr in _LINEAR_PARAMS[type(ch)])
        ]
        raise TemplateOutOfRange(
            "loss-stack template has no finite initial model at the data's temperatures: "
            + (", ".join(culprits) or "the summed Q^-1 is 0 or overflows")
        )

    result, sigma_theta, sv = fit_least_squares("loss-stack", model, theta0, tol=1e-15)
    theta, fun = result.x, result.fun
    # lm rejects each step below zero, so where the data want a negative
    # activation_temp or exponent it stalls short of the bound: hold each
    # parameter whose Gauss-Newton step crosses zero at 0, and refit the rest
    held = bounded & (theta + np.linalg.lstsq(result.jac, -fun)[0] < 0.0)
    if held.any():
        free = ~held

        def expand(phi):
            full = np.zeros(n_params)  # the held parameters at 0
            full[free] = phi
            return full

        def held_model(phi):
            residuals, jacobian = model(expand(phi))
            return residuals, lambda: jacobian()[:, free]

        refit, _, _ = fit_least_squares("loss-stack", held_model, theta[free], tol=1e-15)
        theta, fun = expand(refit.x), refit.fun
        sigma_theta, sv = parameter_uncertainties(model(theta)[1](), fun)
    if sv[0] == 0.0 or sv[-1] / sv[0] < 1e-10:
        raise DegenerateJacobian("loss-stack template parameters are not identifiable")

    fitted = _unpack(template, names, theta)
    uncertainties: list[dict] = [dict() for _ in template.channels]
    for (idx, attr, kind), s in zip(names, sigma_theta):
        uncertainties[idx][attr] = s * getattr(fitted.channels[idx], attr) if kind == "log" else s
    return LossStackFit(
        stack=fitted,
        uncertainties=tuple(uncertainties),
        residual_norm=math.sqrt(fun @ fun),
    )
