"""Driven Duffing resonator: steady state, hysteretic sweeps, backbone.

Single-harmonic balance for x'' + (omega0/Q)x' + omega0^2 x + beta_a x^3
= F_a cos(omega t) gives the amplitude equation

    a^2 [ (f0^2 - f^2 + (3/4) beta a^2)^2 + (f0 f / Q)^2 ] = F^2

written here in ordinary-frequency units (beta = beta_angular/(2*pi)^2,
F = F_angular/(2*pi)^2).  Above a critical drive the cubic in a^2 has
three real roots, the middle one unstable, producing the bistable region
and sweep-direction hysteresis.  beta > 0 is the stiffening convention
(response pulled to higher frequency).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import fit_least_squares, require_finite
from .errors import NoBackbonePeak


@dataclass(frozen=True)
class DuffingParams:
    """Linear resonance f0 (Hz), quality factor Q, cubic stiffness beta
    (Hz^2/m^2, > 0 stiffening), and normalized drive force F (m*Hz^2)."""

    f0: float
    Q: float
    beta: float
    drive: float

    def __post_init__(self):
        require_finite(above=0.0, f0=self.f0, Q=self.Q)
        require_finite(beta=self.beta)
        require_finite(at_least=0.0, drive=self.drive)
        # as floats: the square of a large int such as 2**62 stays an exact int
        for name in ("f0", "Q", "beta", "drive"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class SweepResult:
    """Branch-selected amplitudes over a frequency sweep."""

    frequencies: np.ndarray
    amplitudes: np.ndarray
    branch_labels: tuple[str, ...]
    bistable_range: tuple[float, float] | None


@dataclass(frozen=True)
class BackboneFit:
    """Fit of f = f0 + A*a^n to peak-response points."""

    f0: float
    A: float
    n: float
    residual_norm: float


def _cubic_coefficients(p: DuffingParams, f_hz):
    """Coefficients (c3, c2, c1, c0) of the amplitude equation as a cubic in
    u = a^2, at one frequency or elementwise over an array of them; squares
    are products, which overflow to inf rather than raise."""
    d = p.f0 * p.f0 - f_hz * f_hz
    e = p.f0 * f_hz / p.Q
    return (9.0 / 16.0) * p.beta * p.beta, 1.5 * p.beta * d, d * d + e * e, -p.drive * p.drive


def _check_finite(p: DuffingParams, what: str, *values) -> None:
    """Raise ValueError naming ``what`` unless every value is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(f"Duffing {what} overflows the float range for {p}")


def _steady_states(p: DuffingParams, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steady states at all of ``freqs`` at once: the amplitudes a = sqrt(u)
    of the real positive roots u of the amplitude cubic, ascending and
    padded with NaN to shape (n, 3), and the mask of the stable ones (see
    ``steady_state_amplitudes``).  The cubics are solved as eigenvalues of
    companion matrices built as ``np.roots`` builds them.  With zero drive,
    or a drive whose square underflows, the resonator rests at a = 0.
    """
    require_finite(above=0.0, f_hz=freqs)
    with np.errstate(all="ignore"):  # a coefficient past the float range raises below
        c3, c2, c1, c0 = _cubic_coefficients(p, freqs)
        _check_finite(p, "amplitude cubic", c3, c2, c1, c0)
        u = np.full((freqs.size, 3), np.nan)
        if c0 == 0.0:
            u[:, 0] = 0.0
        elif c3 == 0.0:
            u[:, 0] = -c0 / c1  # linear response
        else:
            companion = np.zeros((freqs.size, 3, 3))
            companion[:, 0, 0] = -c2 / c3
            companion[:, 0, 1] = -c1 / c3
            companion[:, 0, 2] = -c0 / c3
            companion[:, 1, 0] = companion[:, 2, 1] = 1.0
            _check_finite(p, "amplitude cubic", companion)
            r = np.linalg.eigvals(companion)
            # tolerate the measure-zero ambiguity at the discriminant boundary
            real = (np.abs(r.imag) <= 1e-9 * np.abs(r)) & (r.real > 0.0)
            u = np.sort(np.where(real, r.real, np.nan), axis=1)  # NaN sorts last
            # c3 > 0 > c0 leaves at least one positive root; where eigvals
            # loses it (a weak drive, u << the other two roots), take it
            # from the product of the roots, -c0/c3, over the two largest
            lost = np.isnan(u[:, 0])
            if lost.any():
                big = np.take_along_axis(r[lost], np.argsort(np.abs(r[lost]), axis=1), axis=1)
                u[lost, 0] = (companion[lost, 0, 2] / (big[:, 1] * big[:, 2])).real
        # d(F^2)/du: the derivative of the cubic
        slope = c1[:, None] + u * (2.0 * c2[:, None] + 3.0 * c3 * u)
    return np.sqrt(u), slope > 0.0


def steady_state_amplitudes(p: DuffingParams, f_hz: float) -> list[tuple[float, bool]]:
    """Steady-state response amplitudes at one drive frequency.

    Returns one or three (amplitude, stable) pairs sorted by amplitude.
    Stability follows the slope criterion: a root u = a^2 is stable when
    d(F^2)/du > 0 along the response curve.
    """
    amps, stable = _steady_states(p, np.array([float(f_hz)]))
    return [
        (float(a), bool(ok)) for a, ok in zip(amps[0], stable[0]) if not math.isnan(a)
    ]


def _bistable_range(p: DuffingParams, f_lo: float, f_hi: float):
    """The part of [f_lo, f_hi] where the amplitude cubic has three real
    roots, or None (Nayfeh & Mook, ch. 4).  With f^2 = f0^2 (1 + s/Q),
    u = (f0^2/Q)/|beta| w and G = F^2 |beta| Q^3/f0^6 it reads
    9/16 w^3 - 3/2 sgn(beta) s w^2 + (s^2 + s/Q + 1) w - G, and 4/9 of its
    discriminant is sgn(beta) G (3/4 s^3 + 27/4 s^2/Q + 27/4 s) - 243/64 G^2
    - (1 + s/Q)(s^2 + s/Q + 1)^2, a quintic (the s^6 terms cancel).  That
    is positive left of its first real root and between each later pair.
    Each such piece is clipped to s > -Q (f > 0) and to the window, and
    kept only if the discriminant is positive at its midpoint: at extreme
    Q, ``np.roots`` returns real roots that bound no three-root range.
    Every real root of the cubic is positive (u < 0 makes
    u[(d + 3/4 beta u)^2 + e^2] - F^2 negative), so three real roots are
    three states.  Returns the first kept piece's lower edge and the last
    one's upper edge.  Near the critical drive the edges merge: ``np.roots``
    gives a complex pair (no range) once it cannot split them.
    """
    if p.beta == 0.0 or p.drive == 0.0:
        return None
    q = 1.0 / p.Q
    a_lin = (p.drive / p.f0) * (p.Q / p.f0)  # linear peak amplitude F Q/f0^2
    g = p.beta * a_lin * a_lin * (p.Q / p.f0) / p.f0  # sgn(beta) G
    quintic = [-q, -1.0 - 2.0 * q * q, 0.75 * g - (4.0 + q * q) * q,
               6.75 * g * q - 2.0 - 3.0 * q * q, 6.75 * g - 3.0 * q, -1.0 - 243.0 / 64.0 * g * g]
    _check_finite(p, "bistable-range discriminant", [c / quintic[0] for c in quintic])
    s = np.sort([r.real for r in np.roots(quintic) if r.imag == 0.0])
    edges = p.f0 * np.sqrt(np.maximum(1.0 + np.concatenate([[-np.inf], s]) * q, 0.0))
    kept = []
    for lo, hi in zip(edges[0::2].tolist(), edges[1::2].tolist()):
        lo, hi = max(lo, f_lo), min(hi, f_hi)
        if lo > hi:
            continue
        r = 0.5 * (lo + hi) / p.f0
        r2 = r * r  # 1 + s/Q at the midpoint
        s_mid = (r2 - 1.0) * p.Q
        # 4/9 of the discriminant, with s^2 + s/Q + 1 = s^2 + r2; a term past
        # the float range is inf and sets the sign, and two give NaN, which
        # keeps no piece
        disc = (g * s_mid * (0.75 * s_mid * s_mid + 6.75 * r2) - 243.0 / 64.0 * g * g
                - r2 * (s_mid * s_mid + r2) * (s_mid * s_mid + r2))
        if disc > 0.0:
            kept.append((lo, hi))
    return (float(kept[0][0]), float(kept[-1][1])) if kept else None


def _follow_branch(lower: np.ndarray, upper: np.ndarray, start_upper: bool) -> np.ndarray:
    """Whether each step of a sweep rides the upper branch, starting on it
    if ``start_upper``; every later step takes the branch nearest the
    previous amplitude.

    From the upper branch a step lands on upper where ``stay_up``, from
    the lower one where ``jump_up``.  So a step sets the flag to a
    constant where the two agree, keeps it where only ``stay_up`` holds
    and negates it where only ``jump_up`` does (possible in floats when
    one branch dwarfs the other).  The flag is then the value of the last
    constant step, flipped once per negation after it.
    """
    with np.errstate(invalid="ignore"):  # inf - inf where a row has no root
        stay_up = np.abs(upper[1:] - upper[:-1]) < np.abs(lower[1:] - upper[:-1])
        jump_up = np.abs(upper[1:] - lower[:-1]) < np.abs(lower[1:] - lower[:-1])
    constant = np.concatenate([[True], stay_up == jump_up])
    value = np.concatenate([[start_upper], stay_up])
    flips = np.cumsum(np.concatenate([[0], ~stay_up & jump_up]))
    last = np.maximum.accumulate(np.where(constant, np.arange(constant.size), 0))
    return value[last] ^ ((flips - flips[last]) % 2 == 1)


@functools.lru_cache(maxsize=1)
def _window_states(p: DuffingParams, f_lo: float, f_hi: float, n_points: int):
    """The grid of a sweep window, the lowest and highest state the response
    can ride at each point (read-only arrays) and the bistable range.  The
    two directions of a hysteresis loop share this solve, so the last
    window is kept; only the last, so every other window is solved afresh.
    """
    freqs = np.linspace(f_lo, f_hi, n_points)
    states, stable = _steady_states(p, freqs)
    # the response rides the lowest or highest stable state (the middle of
    # three is unstable), or any if none is; columns reduce faster than axis 1
    keep = np.where((stable[:, 0] | stable[:, 1] | stable[:, 2])[:, None], stable, ~np.isnan(states))
    low, high = np.where(keep, states, np.inf).T, np.where(keep, states, -np.inf).T
    lower = np.minimum(np.minimum(low[0], low[1]), low[2])
    upper = np.maximum(np.maximum(high[0], high[1]), high[2])
    _check_finite(p, "swept amplitude", lower, upper)
    for arr in (freqs, lower, upper):
        arr.flags.writeable = False
    return freqs, lower, upper, _bistable_range(p, f_lo, f_hi)


def sweep(
    p: DuffingParams,
    f_start: float,
    f_end: float,
    direction: str = "forward",
    n_points: int = 1001,
) -> SweepResult:
    """Branch-following frequency sweep, reproducing hysteresis.

    The response stays on its current branch until that branch ceases to
    exist, then jumps to the nearest remaining stable amplitude; forward
    and backward sweeps therefore differ only inside the bistable range.
    ``direction`` is "forward" (increasing f) or "backward"; f_start and
    f_end give the frequency window either way.  The two directions share
    one solve of the window and its read-only ``frequencies`` array.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    f_lo, f_hi = float(min(f_start, f_end)), float(max(f_start, f_end))
    _check_finite(p, "sweep window", f_lo, f_hi)
    freqs, lower, upper, bistable = _window_states(p, f_lo, f_hi, n_points)
    if direction == "backward":
        lower, upper = lower[::-1], upper[::-1]

    # entering from outside the window: the connected branch is the one a
    # sweep from far away would ride in on
    on_upper = _follow_branch(lower, upper, (direction == "forward") == (p.beta > 0.0))
    amps = np.where(on_upper, upper, lower)
    labels = np.array(["lower", "upper"], dtype=object)[(amps == upper).view(np.uint8)]

    if direction == "backward":
        amps, labels = amps[::-1], labels[::-1]
    return SweepResult(
        frequencies=freqs,
        amplitudes=amps,
        branch_labels=tuple(labels.tolist()),
        bistable_range=bistable,
    )


def backbone(p: DuffingParams, drive_levels) -> list[tuple[float, float]]:
    """Peak (amplitude, frequency) of the response curve per drive level.

    The peak is the backbone point, in closed form for either sign of
    beta.  Tangency in f of the amplitude equation gives
    f0^2 - f^2 + (3/4)*beta*u = c with c = f0^2/(2*Q^2) and u = a^2, so
    the locus is f^2 = f0^2 + (3/4)*beta*a^2 - c.  Substituting gives
    M*u^2 + K*u - F^2 = 0 with K = c^2 + (f0/Q)^2*(f0^2 - c) and
    M = (3/4)*beta*(f0/Q)^2, one quadratic per level; the root taken is
    the one connected to the linear response u = F^2/K.  For beta > 0 the
    peak is the maximum of a forward sweep, just before its jump-down.
    For beta < 0 it is the maximum of a backward sweep; a forward sweep
    jumps up past it.  Raises ``NoBackbonePeak`` when the curve has no
    real peak at some level.
    """
    # each level checked as the drive of p, and taken as a float
    levels = [replace(p, drive=level).drive for level in drive_levels]
    if len(levels) < 3:
        raise ValueError("need at least 3 drive levels")
    linewidth = p.f0 / p.Q
    c = 0.5 * linewidth * linewidth
    k = c * c + linewidth * linewidth * (p.f0 * p.f0 - c)
    m = 0.75 * p.beta * linewidth * linewidth
    _check_finite(p, "backbone", c, k, m)
    with np.errstate(all="ignore"):  # overflow raises below
        drive_sq = np.square(levels)
        disc = k * k + 4.0 * m * drive_sq
        u = 2.0 * drive_sq / (k + np.sqrt(disc))
        f_sq = p.f0 * p.f0 + 0.75 * p.beta * u - c
    real = f_sq > 0.0  # NaN, so False, where the quadratic has no real root
    if not real.all():
        level = levels[int(np.argmin(real))]
        raise NoBackbonePeak(f"Duffing response has no real peak at drive {level:g}")
    _check_finite(p, "backbone", disc, u, f_sq)
    return list(zip(np.sqrt(u).tolist(), np.sqrt(f_sq).tolist()))


def fit_backbone(points) -> BackboneFit:
    """Least-squares fit of f = f0 + A*a^n to (amplitude, frequency) points.

    Deterministic initialization: f0 from the smallest frequency, n = 2,
    A from the two-point slope between the extreme amplitudes.  The fit
    is covariant under amplitude rescaling a -> s*a (A -> A/s^n).
    """
    pts = [(float(a), float(f)) for a, f in points]
    if len(pts) < 4:
        raise ValueError("need at least 4 points")
    amps = np.array([a for a, _ in pts])
    freqs = np.array([f for _, f in pts])
    require_finite(above=0.0, amplitudes=amps)
    require_finite(frequencies=freqs)
    if np.unique(amps).size != amps.size:
        raise ValueError("amplitudes must be distinct")

    f0_init = float(np.min(freqs))
    n_init = 2.0
    i_lo, i_hi = int(np.argmin(amps)), int(np.argmax(amps))
    denom = amps[i_hi] ** n_init - amps[i_lo] ** n_init
    a_init = (freqs[i_hi] - freqs[i_lo]) / denom if denom != 0.0 else 1.0
    if a_init == 0.0:
        a_init = 1.0

    def model(theta):
        f0, coeff, log_n = theta
        n = math.exp(log_n)
        power = amps**n

        def jacobian():
            return np.column_stack([np.ones_like(amps), power, coeff * power * np.log(amps) * n])

        return f0 + coeff * power - freqs, jacobian

    theta0 = [f0_init, a_init, math.log(n_init)]
    result, _, _ = fit_least_squares("backbone", model, theta0, tol=1e-15)
    f0, coeff, log_n = result.x
    return BackboneFit(
        f0=float(f0),
        A=float(coeff),
        n=float(math.exp(log_n)),
        residual_norm=math.sqrt(2.0 * result.cost),
    )
