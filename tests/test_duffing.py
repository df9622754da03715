import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmem import duffing
from qmem.duffing import (
    BackboneFit,
    DuffingParams,
    _bistable_range,
    _cubic_coefficients,
    _follow_branch,
    _steady_states,
    backbone,
    fit_backbone,
    steady_state_amplitudes,
    sweep,
)
from qmem.errors import FitDidNotConverge, NoBackbonePeak

F0, Q = 97.2e6, 1e4


def linear_params(drive=1e9):
    return DuffingParams(f0=F0, Q=Q, beta=0.0, drive=drive)


def stiff_params(drive, beta=2e21):
    return DuffingParams(f0=F0, Q=Q, beta=beta, drive=drive)


import functools


@functools.cache
def _critical_drive_cached(f0, q, beta, lo=1e6, hi=1e12):
    def bistable(force):
        trial = DuffingParams(f0=f0, Q=q, beta=beta, drive=force)
        a_lin = force * q / f0**2
        pull = 0.75 * abs(beta) * a_lin**2 / f0
        window = np.linspace(f0 * (1 - 50 / q), f0 + 2 * pull + 300 * f0 / q, 2001)
        return any(len(steady_state_amplitudes(trial, f)) == 3 for f in window)

    assert not bistable(lo) and bistable(hi)
    for _ in range(25):
        mid = math.sqrt(lo * hi)
        if bistable(mid):
            hi = mid
        else:
            lo = mid
    return hi


def critical_drive(p):
    """Smallest force with a bistable region, by bisecting the discriminant
    oracle (three real roots somewhere near resonance)."""
    return _critical_drive_cached(p.f0, p.Q, p.beta)


def test_linear_limit_single_lorentzian_root():
    p = linear_params()
    for f in np.linspace(F0 * 0.999, F0 * 1.001, 11):
        roots = steady_state_amplitudes(p, f)
        assert len(roots) == 1
        amp, stable = roots[0]
        assert stable
        d = p.f0**2 - f**2
        e = (p.f0 * f / p.Q) ** 2
        assert amp == pytest.approx(p.drive / math.sqrt(d * d + e), rel=1e-9)


def test_linear_peak_amplitude():
    p = linear_params()
    peak = max(
        steady_state_amplitudes(p, f)[0][0]
        for f in np.linspace(F0 * (1 - 5 / Q), F0 * (1 + 5 / Q), 2001)
    )
    assert peak == pytest.approx(p.drive * p.Q / p.f0**2, rel=0.01)


def test_three_roots_above_critical_drive():
    p0 = stiff_params(1.0)
    fc = critical_drive(p0)
    strong = stiff_params(3.0 * fc, p0.beta)
    weak = stiff_params(0.3 * fc, p0.beta)
    result = sweep(strong, F0 * (1 - 30 / Q), F0 * (1 + 60 / Q), "forward")
    assert result.bistable_range is not None
    lo, hi = result.bistable_range
    inside = 0.5 * (lo + hi)
    roots = steady_state_amplitudes(strong, inside)
    assert len(roots) == 3
    assert [s for _, s in sorted(roots)] == [True, False, True]
    assert sweep(weak, F0 * (1 - 30 / Q), F0 * (1 + 60 / Q), "forward").bistable_range is None


def test_root_count_is_one_or_three():
    p = stiff_params(3.0 * critical_drive(stiff_params(1.0)))
    for f in np.linspace(F0 * (1 - 50 / Q), F0 * (1 + 100 / Q), 400):
        assert len(steady_state_amplitudes(p, f)) in (1, 3)


def test_sweep_linear_forward_equals_backward():
    p = linear_params()
    lo, hi = F0 * (1 - 10 / Q), F0 * (1 + 10 / Q)
    fwd = sweep(p, lo, hi, "forward")
    bwd = sweep(p, lo, hi, "backward")
    assert np.allclose(fwd.amplitudes, bwd.amplitudes, rtol=1e-12)
    assert fwd.bistable_range is None


def test_sweep_hysteresis_for_stiffening():
    p0 = stiff_params(1.0)
    p = stiff_params(3.0 * critical_drive(p0), p0.beta)
    lo, hi = F0 * (1 - 30 / Q), F0 * (1 + 80 / Q)
    fwd = sweep(p, lo, hi, "forward", n_points=3001)
    bwd = sweep(p, lo, hi, "backward", n_points=3001)
    diff = np.abs(fwd.amplitudes - bwd.amplitudes)
    differs = diff > 1e-3 * np.max(fwd.amplitudes)
    assert np.any(differs)
    lo_b, hi_b = fwd.bistable_range
    inside = (fwd.frequencies >= lo_b - 1) & (fwd.frequencies <= hi_b + 1)
    assert np.all(inside[differs])
    # forward jump-down sits above the backward jump-up
    jump_down = fwd.frequencies[np.argmax(np.abs(np.diff(fwd.amplitudes)))]
    jump_up = bwd.frequencies[np.argmax(np.abs(np.diff(bwd.amplitudes)))]
    assert jump_down > jump_up
    # hysteresis encloses positive area
    area = np.trapezoid(fwd.amplitudes - bwd.amplitudes, fwd.frequencies)
    assert area > 0


def test_sweep_consistent_with_steady_state_roots():
    p0 = stiff_params(1.0)
    p = stiff_params(2.0 * critical_drive(p0), p0.beta)
    result = sweep(p, F0 * (1 - 20 / Q), F0 * (1 + 50 / Q), "forward", n_points=301)
    for f, amp in zip(result.frequencies, result.amplitudes):
        roots = [a for a, _ in steady_state_amplitudes(p, f)]
        assert min(abs(amp - a) for a in roots) < 1e-9 * max(roots)


def test_sweep_zero_hysteresis_area_linear():
    p = linear_params()
    lo, hi = F0 * (1 - 10 / Q), F0 * (1 + 10 / Q)
    fwd = sweep(p, lo, hi, "forward")
    bwd = sweep(p, lo, hi, "backward")
    area = np.trapezoid(np.abs(fwd.amplitudes - bwd.amplitudes), fwd.frequencies)
    assert area == pytest.approx(0.0, abs=1e-12 * np.max(fwd.amplitudes) * (hi - lo))


def test_backbone_frequency_shift_quadratic():
    p = stiff_params(1.0)
    fc = critical_drive(p)
    levels = [fc * s for s in (2.0, 3.0, 4.0, 5.0, 6.0)]
    points = backbone(p, levels)
    amps = np.array([a for a, _ in points])
    shifts = np.array([f - F0 for _, f in points])
    assert np.all(np.diff(shifts) > 0)
    fit = fit_backbone(points)
    assert fit.n == pytest.approx(2.0, abs=0.05)
    # backbone locus f^2 = f0^2 + (3/4) beta a^2, i.e. A = 3 beta/(8 f0)
    assert fit.A == pytest.approx(3.0 * p.beta / (8.0 * p.f0), rel=0.05)
    assert fit.f0 == pytest.approx(F0, rel=1e-5)
    # doubling the stiffness doubles the shift at fixed amplitude
    fit2 = fit_backbone(backbone(stiff_params(1.0, beta=2 * p.beta), levels))
    assert fit2.A == pytest.approx(2.0 * fit.A, rel=0.1)


def test_backbone_linear_resonator_flat():
    p = linear_params()
    points = backbone(p, [1e8, 2e8, 3e8])
    freqs = [f for _, f in points]
    expected = F0 * math.sqrt(1.0 - 1.0 / (2 * Q**2))
    for f in freqs:
        assert f == pytest.approx(expected, rel=1e-6)


def test_backbone_needs_three_levels():
    with pytest.raises(ValueError):
        backbone(stiff_params(1.0), [1e8, 2e8])


def test_fit_backbone_recovers_published_parameters():
    f0, a_coeff, n = 97.2e6, 5.12e8, 2.17
    amps = np.geomspace(5e-3, 5e-2, 12)
    points = [(a, f0 + a_coeff * a**n) for a in amps]
    fit = fit_backbone(points)
    assert fit.f0 == pytest.approx(f0, rel=1e-2)
    assert fit.A == pytest.approx(a_coeff, rel=1e-2)
    assert fit.n == pytest.approx(n, rel=1e-2)
    assert fit.residual_norm < 1e-3


def test_fit_backbone_scale_covariance():
    f0, a_coeff, n = 97.2e6, 5.12e8, 2.17
    amps = np.geomspace(5e-3, 5e-2, 12)
    points = [(a, f0 + a_coeff * a**n) for a in amps]
    s = 3.7
    scaled = [(s * a, f) for a, f in points]
    fit = fit_backbone(points)
    fit_scaled = fit_backbone(scaled)
    assert fit_scaled.n == pytest.approx(fit.n, rel=1e-6)
    assert fit_scaled.A == pytest.approx(fit.A / s**fit.n, rel=1e-4)
    assert fit_scaled.f0 == pytest.approx(fit.f0, rel=1e-9)


def test_fit_backbone_needs_four_points():
    with pytest.raises(ValueError):
        fit_backbone([(1e-3, 97.2e6), (2e-3, 97.3e6)])


def test_params_validation():
    with pytest.raises(ValueError):
        DuffingParams(f0=-1.0, Q=10.0, beta=0.0, drive=0.0)
    with pytest.raises(ValueError):
        sweep(linear_params(), 9e7, 1e8, "sideways")


def test_undriven_sweep_rests_at_zero():
    p = stiff_params(0.0)
    assert steady_state_amplitudes(p, F0) == [(0.0, True)]
    for direction in ("forward", "backward"):
        result = sweep(p, F0 * (1 - 10 / Q), F0 * (1 + 10 / Q), direction, n_points=51)
        assert np.all(result.amplitudes == 0.0)
        assert result.bistable_range is None


def test_drive_whose_square_underflows_rests_at_zero():
    # drive**2 underflows to 0: the amplitude cubic has a zero constant
    # term, and the response was lost ([] and [-inf, inf, inf])
    p = DuffingParams(97e6, 1e4, 2e21, 1e-170)
    assert steady_state_amplitudes(p, 97e6) == [(0.0, True)]
    result = sweep(p, 96.9e6, 97.1e6, n_points=3)
    assert result.amplitudes.tolist() == [0.0, 0.0, 0.0]


def _onset(f0, q, beta):
    """Drive at the onset of bistability."""
    return math.sqrt(32.0 * (f0**2 / q) ** 3 / (9.0 * math.sqrt(3.0) * abs(beta)))


@st.composite
def driven_params(draw, factors=st.floats(0.05, 10.0), qs=st.floats(1e3, 1e5)):
    """Stiffening or softening resonators of quality factor drawn from
    ``qs``, driven at ``factors`` times the onset of bistability.  The
    bistable edges are exact, so drives just above the onset, whose range
    is narrower than any sweep grid, are drawn too."""
    f0 = draw(st.floats(50e6, 200e6))
    q = draw(qs)
    beta = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e20, 1e22))
    return DuffingParams(f0=f0, Q=q, beta=beta, drive=draw(factors) * _onset(f0, q, beta))


def _response_window(p):
    """Ten linewidths around the response, widened by the pull of the
    linear-response amplitude a = F*Q/f0^2."""
    a_lin = p.drive * p.Q / p.f0**2
    pull = 0.75 * abs(p.beta) * a_lin**2 / p.f0
    width = 10.0 * p.f0 / p.Q + 2.0 * pull
    if p.beta >= 0.0:
        return p.f0 - width, p.f0 + pull + width
    return p.f0 - pull - width, p.f0 + width


def _window(p, data):
    """A sub-window of the response window."""
    lo, hi = _response_window(p)
    a, b = sorted(data.draw(st.tuples(st.floats(0.0, 0.4), st.floats(0.6, 1.0))))
    return lo + a * (hi - lo), lo + b * (hi - lo)


def _roots_reference(p, freqs):
    """Per-point ``np.roots`` on the same coefficients: the real positive
    roots as ascending amplitudes padded with NaN, and their stability."""
    c3, c2, c1, c0 = _cubic_coefficients(p, freqs)
    amps = np.full((freqs.size, 3), np.nan)
    stable = np.zeros((freqs.size, 3), dtype=bool)
    for i, f in enumerate(freqs):
        roots = sorted(
            r.real for r in np.roots([c3, c2[i], c1[i], c0])
            if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0.0
        )
        d = p.f0**2 - f**2
        e = (p.f0 * f / p.Q) ** 2
        for j, u in enumerate(roots):
            amps[i, j] = math.sqrt(u)
            stable[i, j] = (d + 0.75 * p.beta * u) * (d + 2.25 * p.beta * u) + e > 0.0
    return amps, stable


@settings(max_examples=60, deadline=None)
@given(p=driven_params(), data=st.data())
def test_batched_roots_match_per_point_reference(p, data):
    freqs = np.linspace(*_window(p, data), 101)
    amps, stable = _steady_states(p, freqs)
    ref_amps, ref_stable = _roots_reference(p, freqs)
    np.testing.assert_array_equal(amps, ref_amps)
    np.testing.assert_array_equal(stable, ref_stable)
    # root count is 1 or 3
    assert set(np.sum(~np.isnan(amps), axis=1)) <= {1, 3}


def _amplitude_residual(p, f, a):
    lhs = a**2 * ((p.f0**2 - f**2 + 0.75 * p.beta * a**2) ** 2 + (p.f0 * f / p.Q) ** 2)
    return np.abs(lhs - p.drive**2) / p.drive**2


@settings(max_examples=60, deadline=None)
@given(p=driven_params(), data=st.data())
def test_sweep_properties(p, data):
    lo, hi = _window(p, data)
    fwd = sweep(p, lo, hi, "forward", n_points=401)
    bwd = sweep(p, lo, hi, "backward", n_points=401)
    roots, stable = _steady_states(p, fwd.frequencies)
    has_stable = stable.any(axis=1)
    for result in (fwd, bwd):
        # every swept amplitude solves the amplitude equation
        assert np.max(_amplitude_residual(p, result.frequencies, result.amplitudes)) <= 1e-8
        # and is a stable root wherever a stable root exists
        chosen = roots == result.amplitudes[:, None]
        assert np.all(chosen.any(axis=1))
        assert np.all((chosen & stable).any(axis=1)[has_stable])
    # the sweep directions agree outside the bistable range
    outside = np.ones(fwd.frequencies.size, dtype=bool)
    if fwd.bistable_range is not None:
        edge_lo, edge_hi = fwd.bistable_range
        margin = 1e-6 * p.f0 / p.Q  # a millionth of a linewidth: the edges are exact
        outside = (fwd.frequencies < edge_lo - margin) | (fwd.frequencies > edge_hi + margin)
    np.testing.assert_array_equal(fwd.amplitudes[outside], bwd.amplitudes[outside])


def _root_counts(p, freqs):
    amps, _ = _steady_states(p, np.asarray(freqs, dtype=float))
    return np.sum(~np.isnan(amps), axis=1).tolist()


@settings(max_examples=100, deadline=None)
@given(p=driven_params(factors=st.floats(1.001, 10.0), qs=st.floats(3.0, 7.0).map(lambda e: 10.0**e)))
def test_bistable_edges_bound_the_three_root_range(p):
    edges = _bistable_range(p, *_response_window(p))
    if edges is None:
        # at finite Q the onset is within about 1.3/Q of the infinite-Q one
        assert p.drive < 1.01 * _onset(p.f0, p.Q, p.beta)
        return
    lo, hi = edges
    step = min(1e-6 * p.f0 / p.Q, (hi - lo) / 4.0)
    assert _root_counts(p, [lo - step, lo + step, hi - step, hi + step]) == [1, 3, 3, 1]


def test_sweep_reports_a_range_narrower_than_its_grid():
    # at 1.05 times the onset the range is 0.014 linewidth wide, far below
    # the 0.1-linewidth step of a 2,001-point scan over +-100 linewidths
    p = stiff_params(1.05 * _onset(F0, Q, 2e21))
    lo, hi = sweep(p, F0 * (1 - 100 / Q), F0 * (1 + 100 / Q), n_points=11).bistable_range
    step = 1e-6 * F0 / Q
    assert _root_counts(p, [lo - step, 0.5 * (lo + hi), hi + step]) == [1, 3, 1]


def test_bistable_range_at_the_critical_drive():
    # at Q = 1e4 the onset is 1.00013 times the infinite-Q _onset
    window = (F0 * (1 - 100 / Q), F0 * (1 + 100 / Q))
    cusp = F0 * math.sqrt(1.0 + math.sqrt(3.0) / Q)  # where the edges merge
    grid = np.linspace(cusp - 0.05 * F0 / Q, cusp + 0.05 * F0 / Q, 2001)
    below = stiff_params(1.0001 * _onset(F0, Q, 2e21))
    assert _bistable_range(below, *window) is None
    assert set(_root_counts(below, grid)) == {1}
    # just above it: a range 3e-5 linewidth (0.31 Hz) wide whose edges
    # bound the three-root range
    above = stiff_params(1.001 * _onset(F0, Q, 2e21))
    lo, hi = _bistable_range(above, *window)
    assert hi - lo == pytest.approx(0.3135, abs=1e-3)
    step = (hi - lo) / 4.0
    assert _root_counts(above, [lo - step, lo + step, hi - step, hi + step]) == [1, 3, 3, 1]



def _cli_window(p):
    """The default window of ``qmem duffing-sweep``: 100 linewidths either
    side of f0, with a positive lower edge at Q <= 100."""
    span = 100.0 / p.Q
    return (p.f0 * (1.0 - span) if span < 1.0 else p.f0 / (1.0 + span)), p.f0 * (1.0 + span)


def test_bistable_range_of_a_strongly_driven_low_q_softening_resonator():
    # the discriminant quintic has one real root: the cubic has three real
    # roots from f = 0 up to it, so the range starts at the window's edge
    p = DuffingParams(f0=664.3e6, Q=31.53, beta=-6.577e14, drive=8.135e17)
    window = _cli_window(p)
    lo, hi = _bistable_range(p, *window)
    assert lo == window[0]
    assert hi == pytest.approx(558542778.4, abs=0.1)
    step = 1e-6 * p.f0 / p.Q
    assert _root_counts(p, [lo, 0.5 * (lo + hi), hi - step, hi + step]) == [3, 3, 3, 1]
    # the two sweep directions differ inside the range and nowhere else
    fwd, bwd = (sweep(p, *window, direction, n_points=4001) for direction in ("forward", "backward"))
    assert fwd.bistable_range == (lo, hi)
    differ = fwd.amplitudes != bwd.amplitudes
    assert differ.sum() == 612
    assert np.all((fwd.frequencies[differ] >= lo) & (fwd.frequencies[differ] <= hi))


def test_no_bistable_range_at_vanishing_q():
    # at Q = 1e-30 the quintic's coefficients span 1e90, and np.roots
    # returns real roots that bound no three-root range
    p = DuffingParams(f0=97.2e6, Q=1e-30, beta=5e8, drive=5e11)
    window = _cli_window(p)
    assert _bistable_range(p, *window) is None
    assert set(_root_counts(p, np.linspace(*window, 1001))) == {1}


@settings(max_examples=100, deadline=None)
@given(p=driven_params(factors=st.floats(0.2, 50.0), qs=st.floats(1.0, 100.0)))
def test_bistable_range_covers_every_three_root_point_at_low_q(p):
    window = _cli_window(p)
    grid = np.linspace(*window, 2001)
    three = grid[np.array(_root_counts(p, grid)) == 3]
    edges = _bistable_range(p, *window)
    if edges is None:
        assert three.size == 0
        return
    lo, hi = edges
    assert np.all((three >= lo) & (three <= hi))
    # each edge inside the window bounds a three-root piece
    step = min(1e-6 * p.f0 / p.Q, (hi - lo) / 4.0)
    assert _root_counts(p, [lo + step, hi - step]) == [3, 3]
    if lo > window[0]:
        assert _root_counts(p, [lo - step]) == [1]
    if hi < window[1]:
        assert _root_counts(p, [hi + step]) == [1]

def _branch_loop(lower, upper, on_upper):
    """The scalar branch-following loop that ``sweep`` replaces with array
    code: start on the upper branch if ``on_upper``, then take the branch
    nearest the previous amplitude.  Returns amplitudes and labels."""
    amps, labels = [], []
    for low, high in zip(lower, upper):
        if amps:
            on_upper = abs(high - amps[-1]) < abs(low - amps[-1])
        a = high if on_upper else low
        amps.append(a)
        labels.append("upper" if a == high else "lower")
    return amps, labels


def _sweep_reference(p, f_start, f_end, direction, n_points):
    """``sweep`` with the scalar loop: amplitudes, branch labels and
    bistable range."""
    f_lo, f_hi = min(f_start, f_end), max(f_start, f_end)
    freqs = np.linspace(f_lo, f_hi, n_points)
    states, stable = _steady_states(p, freqs)
    keep = np.where(stable.any(axis=1)[:, None], stable, ~np.isnan(states))
    lower = np.where(keep, states, np.inf).min(axis=1).tolist()
    upper = np.where(keep, states, -np.inf).max(axis=1).tolist()
    if direction == "backward":
        lower.reverse()
        upper.reverse()
    amps, labels = _branch_loop(lower, upper, (direction == "forward") == (p.beta > 0.0))
    if direction == "backward":
        amps.reverse()
        labels.reverse()
    return np.array(amps), tuple(labels), _bistable_range(p, f_lo, f_hi)


# branch pairs lower <= upper over many scales, so that in floats a step
# can swap branches, plus the (inf, -inf) of a frequency with no root
branch_values = st.one_of(st.floats(0.0, 10.0), st.floats(1e15, 1e20))
branch_pairs = st.one_of(
    st.tuples(branch_values, branch_values).map(sorted),
    st.just([math.inf, -math.inf]),
)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(branch_pairs, min_size=1, max_size=30), start_upper=st.booleans())
def test_branch_follower_matches_scalar_loop(pairs, start_upper):
    lower, upper = (np.array(column) for column in zip(*pairs))
    amps, _ = _branch_loop(lower.tolist(), upper.tolist(), start_upper)
    on_upper = _follow_branch(lower, upper, start_upper)
    np.testing.assert_array_equal(np.where(on_upper, upper, lower), amps)


@settings(max_examples=80, deadline=None)
@given(
    p=driven_params(factors=st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
    data=st.data(),
    direction=st.sampled_from(("forward", "backward")),
    n_points=st.integers(1, 401),
)
def test_sweep_matches_scalar_branch_loop(p, data, direction, n_points):
    # stiffening and softening, zero drive included, either direction
    lo, hi = _window(p, data)
    amps, labels, bistable = _sweep_reference(p, lo, hi, direction, n_points)
    if not np.isfinite(amps).all():
        # far below the onset the cubic's one root can be lost to roundoff,
        # leaving a frequency with no amplitude: the sweep refuses it
        with pytest.raises(ValueError, match="swept amplitude"):
            sweep(p, lo, hi, direction, n_points=n_points)
        return
    result = sweep(p, lo, hi, direction, n_points=n_points)
    np.testing.assert_array_equal(result.amplitudes, amps)
    assert result.branch_labels == labels
    assert result.bistable_range == bistable


@settings(max_examples=25, deadline=None)
@given(
    p=driven_params(factors=st.just(1.0)),
    factors=st.lists(st.floats(1.5, 10.0), min_size=3, max_size=3),
)
def test_backbone_properties(p, factors):
    points = backbone(p, [s * p.drive for s in factors])
    # the upper branch: a forward sweep rides it for stiffening, a backward
    # sweep for softening
    direction = "forward" if p.beta > 0.0 else "backward"
    for s, (a, f) in zip(factors, points):
        pl = DuffingParams(f0=p.f0, Q=p.Q, beta=p.beta, drive=s * p.drive)
        assert _amplitude_residual(pl, f, a) <= 1e-10
        # on the locus f^2 = f0^2 + (3/4) beta a^2 - f0^2/(2 Q^2)
        locus = p.f0**2 + 0.75 * p.beta * a**2 - p.f0**2 / (2.0 * p.Q**2)
        assert f**2 == pytest.approx(locus, rel=1e-12)
        # no sampled amplitude of a dense sweep exceeds the peak, and the
        # sampled maximum lies within one grid step of it
        result = sweep(pl, *_response_window(pl), direction, n_points=10001)
        i = int(np.argmax(result.amplitudes))
        assert result.amplitudes[i] <= a * (1.0 + 1e-12)
        step = result.frequencies[1] - result.frequencies[0]
        assert abs(result.frequencies[i] - f) <= step


def test_backbone_without_real_peak_raises():
    # overdamped: the linear response peaks at f = 0
    overdamped = DuffingParams(f0=F0, Q=0.6, beta=0.0, drive=0.0)
    with pytest.raises(NoBackbonePeak):
        backbone(overdamped, [1e8, 2e8, 3e8])
    # softening far above the onset: the response bends over before it peaks
    soft = DuffingParams(f0=F0, Q=1e3, beta=-2e21, drive=0.0)
    onset = _onset(soft.f0, soft.Q, soft.beta)
    assert len(backbone(soft, [2.0 * onset, 4.0 * onset, 6.0 * onset])) == 3
    with pytest.raises(NoBackbonePeak):
        backbone(soft, [2.0 * onset, 4.0 * onset, 20.0 * onset])


def test_backbone_rejects_negative_drive():
    with pytest.raises(ValueError, match="drive"):
        backbone(stiff_params(1.0), [1e8, -1e8, 2e8])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["f0", "Q", "beta", "drive"])
def test_params_reject_non_finite(field, value):
    kwargs = dict(f0=F0, Q=1e4, beta=1e20, drive=1e8)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        DuffingParams(**kwargs)


@pytest.fixture
def solves(monkeypatch):
    """Count the window solves that ``sweep`` makes, from an empty cache."""
    calls = []

    def counting(p, freqs):
        calls.append((p, freqs.size))
        return _steady_states(p, freqs)

    monkeypatch.setattr(duffing, "_steady_states", counting)
    duffing._window_states.cache_clear()
    yield calls
    duffing._window_states.cache_clear()


def _loop(p, window=(F0 * (1 - 30 / Q), F0 * (1 + 60 / Q)), n_points=501):
    return [sweep(p, *window, direction, n_points=n_points) for direction in ("forward", "backward")]


def test_hysteresis_loop_solves_its_window_once(solves):
    p = stiff_params(3.0 * _onset(F0, Q, 2e21))
    forward, backward = _loop(p)
    assert len(solves) == 1
    # the backward sweep, given the window either way round, reuses it too
    again = sweep(p, F0 * (1 + 60 / Q), F0 * (1 - 30 / Q), "backward", n_points=501)
    assert len(solves) == 1
    assert again.amplitudes.tobytes() == backward.amplitudes.tobytes()
    assert forward.bistable_range == backward.bistable_range is not None


def test_changed_drive_window_or_grid_solves_again(solves):
    p = stiff_params(3e11)
    _loop(p)
    _loop(stiff_params(3.5e11))
    _loop(stiff_params(3.5e11), window=(F0 * (1 - 20 / Q), F0 * (1 + 60 / Q)))
    _loop(stiff_params(3.5e11), window=(F0 * (1 - 20 / Q), F0 * (1 + 60 / Q)), n_points=401)
    assert [size for _, size in solves] == [501, 501, 501, 401]


def test_window_cache_holds_one_window(solves):
    a, b = stiff_params(3e11), stiff_params(2e11, beta=-2e21)
    for p in (a, b, a):
        sweep(p, F0 * (1 - 30 / Q), F0 * (1 + 60 / Q), n_points=501)
    assert [p for p, _ in solves] == [a, b, a]


def test_sweeps_after_cache_clear_are_bit_identical(solves):
    p = stiff_params(3e11)
    cached = _loop(p)
    duffing._window_states.cache_clear()
    fresh = _loop(p)
    assert len(solves) == 2
    for old, new in zip(cached, fresh):
        assert old.frequencies.tobytes() == new.frequencies.tobytes()
        assert old.amplitudes.tobytes() == new.amplitudes.tobytes()
        assert old.branch_labels == new.branch_labels
        assert old.bistable_range == new.bistable_range


def test_sweep_results_cannot_change_the_cached_window(solves):
    p = stiff_params(3e11)
    forward = sweep(p, F0 * (1 - 30 / Q), F0 * (1 + 60 / Q), n_points=501)
    expected = forward.amplitudes.copy()
    with pytest.raises(ValueError, match="read-only"):
        forward.frequencies[0] = 0.0
    for arr in duffing._window_states(p, F0 * (1 - 30 / Q), F0 * (1 + 60 / Q), 501)[:3]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    forward.amplitudes[:] = -1.0  # the caller's own array
    again = sweep(p, F0 * (1 - 30 / Q), F0 * (1 + 60 / Q), n_points=501)
    assert len(solves) == 1
    assert again.amplitudes.tobytes() == expected.tobytes()


@pytest.mark.parametrize("p", [stiff_params(3e11), stiff_params(2e11, beta=-2e21)])
def test_non_finite_swept_amplitude_raises_before_caching(solves, monkeypatch, p):
    # a window point without a state: the sweep used to return +-inf there
    def with_empty_row(params, freqs):
        states, stable = _steady_states(params, freqs)
        states[freqs.size // 2] = np.nan
        return states, stable

    monkeypatch.setattr(duffing, "_steady_states", with_empty_row)
    with pytest.raises(ValueError, match="swept amplitude overflows the float range"):
        sweep(p, F0 * (1 - 30 / Q), F0 * (1 + 60 / Q), n_points=101)
    assert duffing._window_states.cache_info().currsize == 0


def _linear_response(p, freqs):
    return p.drive / np.hypot(p.f0**2 - freqs**2, p.f0 * freqs / p.Q)


@pytest.mark.parametrize("p", [
    # the CLI's default window f0/(1 + 100/Q) to f0 (1 + 100/Q) at Q = 1e-30
    DuffingParams(f0=F0, Q=1e-30, beta=5e8, drive=5e11),
    DuffingParams(f0=F0, Q=Q, beta=2e21, drive=1e-14 * _onset(F0, Q, 2e21)),
])
def test_weak_response_keeps_the_root_eigvals_loses(p):
    # u ~ -c0/c1 is tiny next to the other two roots, so eigvals loses it to
    # roundoff at some window points; the sweep there used to raise
    span = 100 / p.Q
    result = sweep(p, F0 / (1 + span), F0 * (1 + span), n_points=101)
    expected = _linear_response(p, result.frequencies)
    np.testing.assert_allclose(result.amplitudes, expected, rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(p=driven_params(factors=st.floats(-30.0, -6.0).map(lambda e: 10.0**e)))
def test_weak_drive_sweeps_the_linear_response(p):
    # from 1e-30 to 1e-6 of the onset the cubic term moves no amplitude by
    # 1e-12, wherever eigvals keeps or loses the one root
    width = 10.0 * p.f0 / p.Q
    result = sweep(p, p.f0 - width, p.f0 + width, n_points=1001)
    expected = _linear_response(p, result.frequencies)
    np.testing.assert_allclose(result.amplitudes, expected, rtol=1e-12, atol=0.0)
