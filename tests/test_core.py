import contextlib
import math
from unittest import mock

import numpy as np
import pytest

from qmem import analysis, core, duffing, electromech, losses
from qmem.core import (
    CONSTANTS,
    FrequencyTrace,
    TimeTrace,
    angular,
    fit_least_squares,
    ordinary,
    thermal_decoherence_time,
    thermal_occupation,
)
from qmem.errors import FitDidNotConverge


def test_angular_ordinary_round_trip():
    for f in (1.0, 97.2e6, 1.13e9, 5e9, 3.7e-3):
        assert ordinary(angular(f)) == pytest.approx(f, rel=1e-15)


def test_occupation_zero_temperature():
    assert thermal_occupation(100e6, 0.0) == 0.0


def test_occupation_analytic_point():
    # temperature where hbar*omega equals k_B*T
    f = 100e6
    t = CONSTANTS.hbar * angular(f) / CONSTANTS.k_B
    assert thermal_occupation(f, t) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)
    assert thermal_occupation(f, t) == pytest.approx(0.58198, rel=1e-4)


def test_occupation_against_extended_precision():
    import mpmath

    mpmath.mp.dps = 50
    f, t = 97.2e6, 10e-3
    x = mpmath.mpf(CONSTANTS.hbar) * 2 * mpmath.pi * f / (mpmath.mpf(CONSTANTS.k_B) * t)
    expected = float(1 / mpmath.expm1(x))
    assert thermal_occupation(f, t) == pytest.approx(expected, rel=1e-13)


def test_occupation_deep_quantum_regime_underflows_cleanly():
    assert thermal_occupation(5e9, 1e-3) == pytest.approx(math.exp(-239.93), rel=0.1)
    assert thermal_occupation(5e9, 1e-6) == 0.0


def test_occupation_monotonicity():
    temps = np.linspace(1e-3, 1.0, 30)
    occ_t = [thermal_occupation(100e6, t) for t in temps]
    assert all(b > a for a, b in zip(occ_t, occ_t[1:]))
    freqs = np.linspace(50e6, 500e6, 30)
    occ_f = [thermal_occupation(f, 0.05) for f in freqs]
    assert all(b < a for a, b in zip(occ_f, occ_f[1:]))


def test_decoherence_high_frequency_limit():
    tau = thermal_decoherence_time(1e6, 1e9, 0.0)
    assert tau == pytest.approx(1e6 / angular(1e9), rel=1e-12)
    assert tau == pytest.approx(1.59e-4, rel=1e-2)


def test_decoherence_crossover_point():
    q, f, t = 6.8e5, 97.2e6, 10e-3
    tau = thermal_decoherence_time(q, f, t)
    n = thermal_occupation(f, t)
    assert tau == pytest.approx(q / angular(f) / (n + 1.0), rel=1e-12)
    # sits below both asymptotes, within the factor-2 set by the
    # (n+1) versus n convention near n ~ 1
    asym_high_f = q / angular(f)
    asym_high_t = CONSTANTS.hbar * q / (CONSTANTS.k_B * t)
    assert tau < asym_high_f
    assert tau < asym_high_t
    assert tau > 0.5 * min(asym_high_f, asym_high_t)
    assert 1e-4 < tau < 1e-3


def test_decoherence_continuous_at_zero_temperature():
    q, f = 1e6, 1e8
    tau0 = thermal_decoherence_time(q, f, 0.0)
    tau_eps = thermal_decoherence_time(q, f, 1e-6)
    assert tau_eps == pytest.approx(tau0, rel=1e-9)


def test_decoherence_monotone_in_temperature():
    taus = [thermal_decoherence_time(1e6, 1e8, t) for t in np.linspace(0, 0.5, 40)]
    assert all(b <= a for a, b in zip(taus, taus[1:]))


def test_input_validation():
    with pytest.raises(ValueError):
        thermal_occupation(-1.0, 0.1)
    with pytest.raises(ValueError):
        thermal_occupation(1e8, -0.1)
    with pytest.raises(ValueError):
        thermal_decoherence_time(0.0, 1e8, 0.1)


def test_frequency_trace_validation():
    with pytest.raises(ValueError):
        FrequencyTrace([1.0, 1.0, 2.0], [1j, 2j, 3j])
    with pytest.raises(ValueError):
        FrequencyTrace([1.0, 2.0], [1j])
    trace = FrequencyTrace([1.0, 2.0, 3.0], [1j, 2j, 3j])
    assert len(trace) == 3
    assert trace.response.dtype == complex


def test_time_trace_validation():
    with pytest.raises(ValueError):
        TimeTrace([0.0, 0.0], [1.0, 2.0])
    trace = TimeTrace([0.0, 1.0], [2.0, 1.0])
    assert len(trace) == 2


class _Problem(Exception):
    """Raised in place of the helper, with its (name, model, theta0) as
    ``args`` and its keyword options."""

    def __init__(self, *args, **options):
        super().__init__(*args)
        self.options = options


def _problem(module, fit, *args, **kwargs):
    """The (name, model, theta0) and options ``fit`` hands the helper."""

    def record(*args, **options):
        raise _Problem(*args, **options)

    with mock.patch.object(module, "fit_least_squares", record):
        with pytest.raises(_Problem) as info:
            fit(*args, **kwargs)
    return info.value


def _fit_problems():
    """The first least-squares problem of each fit, on noisy synthetic data."""
    rng = np.random.default_rng(11)
    f0, q = 97.2e6, 6.8e5
    f = f0 + f0 / q * np.linspace(-10.0, 10.0, 401)
    mag = np.abs(0.05 + 1.0 / (1.0 + 2j * q * (f - f0) / f0)) * (1.0 + 3e-3 * rng.standard_normal(f.size))
    t = np.linspace(0.0, 4e-3, 400)
    ring = np.exp(-t / 1e-3) + 0.01 + 1e-3 * rng.standard_normal(t.size)
    bvd = electromech.BvdParams(C0=8.96e-16, Cm=1.38e-19, Lm=18.9)
    f_adm = np.linspace(0.997, 1.003, 400) * bvd.series_resonance_hz
    adm = electromech.bvd_admittance(bvd, f_adm) * (1.0 + 1e-3 * rng.standard_normal(f_adm.size))
    f_m = 97.5e6
    truth = losses.LossStack((
        losses.ZenerChannel(4e-5, math.exp(-150.0 / 40.0) / angular(f_m), 150.0),
        losses.PowerLawChannel(2e-10, 4.0),
        losses.ConstantChannel(1.1e6),
    ))
    template = losses.LossStack((
        losses.ZenerChannel(2e-5, math.exp(-150.0 / 36.0) / angular(f_m), 150.0),
        losses.PowerLawChannel(5e-10, 3.7),
        losses.ConstantChannel(0.77e6),
    ))
    temps = np.geomspace(4.0, 300.0, 40)
    q_t = losses.total_q(truth, f_m, temps) * (1.0 + 2e-3 * rng.standard_normal(temps.size))
    amps = np.array([1.0, 1.3, 1.7, 2.2, 2.8])
    return [
        _problem(analysis, analysis.fit_lorentzian, FrequencyTrace(f, mag)),
        _problem(analysis, analysis.fit_ringdown, TimeTrace(t, ring)),
        _problem(electromech, electromech.fit_bvd, FrequencyTrace(f_adm, adm)),
        _problem(electromech, electromech.fit_bvd, FrequencyTrace(f_adm, adm), fit_rm=True),
        _problem(losses, losses.fit_loss_stack, losses.QvsTDataset(temps, q_t, 2e-3 * q_t), f_m, template),
        _problem(duffing, duffing.fit_backbone, list(zip(amps, 1e6 + 1e3 * amps**2.1))),
    ]


@pytest.fixture(scope="module")
def fit_problems():
    return _fit_problems()


def test_fit_helper_matches_least_squares_lm(fit_problems):
    from scipy.optimize import least_squares

    for problem in fit_problems:
        name, model, theta0 = problem.args
        result, sigma, _ = fit_least_squares(name, model, theta0, **problem.options)
        options = dict(problem.options)
        tol = options.pop("tol")
        oracle = least_squares(
            lambda theta: model(theta)[0], theta0, jac=lambda theta: model(theta)[1](),
            method="lm", x_scale="jac", ftol=tol, xtol=tol, gtol=tol, **options,
        )
        assert oracle.success, name
        for field in ("x", "fun", "jac"):
            assert np.array_equal(result[field], oracle[field]), (name, field)
        assert result.cost == oracle.cost, name
        for field in ("status", "nfev", "njev"):
            assert isinstance(result[field], int) and result[field] > 0, (name, field)
        assert np.isfinite(sigma).all(), name


def test_fit_helper_names_the_fit_when_out_of_evaluations(fit_problems):
    for problem in fit_problems:
        name, model, theta0 = problem.args
        options = dict(problem.options, max_nfev=1)
        with pytest.raises(FitDidNotConverge, match=f"^{name} fit failed: ") as info:
            fit_least_squares(name, model, theta0, **options)
        assert "\n" not in str(info.value)


def test_fit_helper_rejects_a_non_finite_initial_point():
    def model(theta):
        return np.array([np.inf, 1.0, 2.0]) * theta[0], lambda: np.ones((3, 1))

    with pytest.raises(ValueError, match="ringdown fit"):
        fit_least_squares("ringdown", model, [1.0], tol=1e-8)


def _held_refit_problem():
    """The refit of a loss-stack fit that holds a power law's exponent at 0,
    its data wanting -0.3."""
    f = 1e8
    temps = np.geomspace(4.0, 300.0, 40)

    def zener(t_peak, delta):
        return losses.ZenerChannel(delta, math.exp(-150.0 / t_peak) / angular(f), 150.0)

    q = losses.total_q(losses.LossStack((losses.PowerLawChannel(1e-6, -0.3), zener(40.0, 4e-5))), f, temps)
    template = losses.LossStack((losses.PowerLawChannel(3e-7, 0.5), zener(36.0, 2e-5)))
    first = []

    def record(*args, **options):
        if first:
            raise _Problem(*args, **options)
        first.append(args)
        return fit_least_squares(*args, **options)

    with mock.patch.object(losses, "fit_least_squares", record):
        with pytest.raises(_Problem) as info:
            losses.fit_loss_stack(losses.QvsTDataset(temps, q, 1e-3 * q), f, template)
    return info.value


def _counted(model, model_thetas, jacobian_thetas):
    """``model`` appending a copy of each theta it is called with to
    ``model_thetas``, and of each theta whose Jacobian is taken to
    ``jacobian_thetas``."""

    def counted(theta):
        theta = np.array(theta, dtype=float)
        model_thetas.append(theta)
        residuals, jacobian = model(theta)

        def counted_jacobian():
            jacobian_thetas.append(theta)
            return jacobian()

        return residuals, counted_jacobian

    return counted


def test_each_trial_point_is_evaluated_once(fit_problems):
    # the finiteness check, leastsq's shape checks and MINPACK share the
    # evaluations at theta0, so the calls match MINPACK's own counts
    for problem in [*fit_problems, _held_refit_problem()]:
        name, model, theta0 = problem.args
        model_thetas, jacobian_thetas = [], []
        counted = _counted(model, model_thetas, jacobian_thetas)
        result, _, _ = fit_least_squares(name, counted, theta0, **problem.options)
        start = np.asarray(theta0, dtype=float).tobytes()
        assert [theta.tobytes() for theta in model_thetas].count(start) == 1, name
        assert len(model_thetas) <= result.nfev, name
        assert len(jacobian_thetas) <= result.njev + 1, name


def test_remembered_evaluations_change_no_fit(fit_problems):
    # every fit, the held refit too, evaluated afresh at each call of its
    # model and Jacobian gives the same result
    problems = [*fit_problems, _held_refit_problem()]
    with contextlib.ExitStack() as patches:
        for module in (core, losses):
            patches.enter_context(mock.patch.object(module, "remember_last", lambda fn: fn))
        afresh = [fit_least_squares(*p.args, **p.options) for p in [*_fit_problems(), _held_refit_problem()]]
    for problem, (plain, plain_sigma, plain_sv) in zip(problems, afresh):
        name = problem.args[0]
        result, sigma, sv = fit_least_squares(*problem.args, **problem.options)
        for field in ("x", "fun", "jac"):
            assert np.array_equal(result[field], plain[field]), (name, field)
        assert (result.nfev, result.njev) == (plain.nfev, plain.njev), name
        assert np.array_equal(sigma, plain_sigma) and np.array_equal(sv, plain_sv), name
