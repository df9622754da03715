"""One-dimensional transfer-matrix model of a phononic-crystal resonator.

The suspended crystal is abstracted as a chain of homogeneous segments
carrying longitudinal waves; the width modulation of the real device is
folded into the acoustic impedance contrast between the narrow and wide
segments of each unit cell.  Bloch dispersion of the periodic mirror,
scattering through a finite chain, and the localized defect resonance
all derive from 2x2 (stress, velocity) transfer matrices.  The chain
matrix is mirror^N . defect . mirror^N, with the unimodular cell matrix
raised to the N-th power in Chebyshev form, so its cost does not depend
on the mirror count.

Cells are assembled symmetrically (half narrow | wide | half narrow),
which leaves the Bloch dispersion unchanged and makes every chain
mirror-symmetric about the defect center.  For such lossless symmetric
chains the transmission obeys |t|^2 = 1/(1 + h^2/4) with a real residual
h(f) that crosses zero exactly at the unit-transmission defect
resonance, so modes are located by root finding rather than fragile
peak hunting.

``reference_mirror_cell`` provides a cell calibrated so the first Bragg
gap is 20 MHz wide centered on 100 MHz; radiative-Q scaling studies use
a higher-contrast variant where per-cell evanescent decay is stronger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import angular
from .errors import ChainMatrixOverflow, LinewidthNotResolved, NoDefectModeInGap

# samples of the resonance residual across a gap when bracketing modes
MODE_SCAN_POINTS = 4001
# most samples of a band-gap scan: 80 MB per float array
MAX_SCAN_POINTS = 10**7
# field samples per segment in mode_profile
PROFILE_SAMPLES_PER_SEGMENT = 8
# brentq tolerance of the mode root and half-maximum edges, as a fraction
# of the predicted FWHM 4/|h'(f0)|
LINE_TOL = 1e-9
# radiative Q from which the linewidth is 4/|h'(f0)| itself; it differs
# from the half-maximum edges by 1e-10 at Q = 4e6, 4e-6 at Q = 6e3 and
# 3 % at Q = 21
DIRECT_Q_MIN = 1e6
# central-difference step of h'(f0), relative to f0: h bends on a MHz
# scale, so +-1e-6 f0 keeps truncation and round-off near 1e-10
SLOPE_STEP = 1e-6


@dataclass(frozen=True)
class Segment:
    """Homogeneous segment: length (m), sound speed (m/s), impedance
    (kg/(m^2 s), area-normalized)."""

    length: float
    sound_speed: float
    acoustic_impedance: float

    def __post_init__(self):
        if self.length <= 0.0 or self.sound_speed <= 0.0 or self.acoustic_impedance <= 0.0:
            raise ValueError("segment length, speed, impedance must be positive")


@dataclass(frozen=True)
class UnitCell:
    """Ordered (narrow, wide) pair of segments forming one period."""

    segments: tuple[Segment, Segment]

    def __post_init__(self):
        segments = tuple(self.segments)
        if len(segments) != 2:
            raise ValueError("a unit cell consists of exactly two segments")
        object.__setattr__(self, "segments", segments)

    @property
    def lattice_constant(self) -> float:
        return sum(s.length for s in self.segments)


@dataclass(frozen=True)
class ChainSpec:
    """Finite chain: N mirror cells, defect cell, N mirror cells, between
    matched terminations of the given impedance."""

    mirror_cells_per_side: int
    mirror_cell: UnitCell
    defect_cell: UnitCell
    termination_impedance: float

    def __post_init__(self):
        if self.mirror_cells_per_side < 0:
            raise ValueError("mirror_cells_per_side must be >= 0")
        if self.termination_impedance <= 0.0:
            raise ValueError("termination_impedance must be positive")


@dataclass(frozen=True)
class BandGap:
    f_low: float
    f_high: float

    def __post_init__(self):
        if not self.f_low < self.f_high:
            raise ValueError("band gap requires f_low < f_high")

    def contains(self, f_hz: float) -> bool:
        return self.f_low <= f_hz <= self.f_high

    @property
    def center(self) -> float:
        return 0.5 * (self.f_low + self.f_high)


@dataclass(frozen=True)
class DefectMode:
    """Localized resonance: frequency (Hz), 1/e field localization length
    (m), and radiative quality factor from the transmission linewidth."""

    frequency: float
    localization_length: float
    radiative_q: float

    def __post_init__(self):
        if self.frequency <= 0.0 or self.localization_length <= 0.0 or self.radiative_q <= 0.0:
            raise ValueError("mode frequency, localization length, Q must be positive")


def dispersion(cell: UnitCell, f_hz):
    """Bloch dispersion cos(q*a) of the periodic cell at frequency f.

    cos(q*a) = cos(k1 l1) cos(k2 l2)
               - (Z1/Z2 + Z2/Z1)/2 * sin(k1 l1) sin(k2 l2)

    |result| <= 1 marks a propagating band, |result| > 1 a gap.  Accepts
    scalar or array frequencies.
    """
    s1, s2 = cell.segments
    f = np.asarray(f_hz, dtype=float)
    th1 = angular(f) * s1.length / s1.sound_speed
    th2 = angular(f) * s2.length / s2.sound_speed
    zr = s1.acoustic_impedance / s2.acoustic_impedance
    value = np.cos(th1) * np.cos(th2) - 0.5 * (zr + 1.0 / zr) * np.sin(th1) * np.sin(th2)
    return float(value[()]) if np.isscalar(f_hz) else value


def bloch_decay_per_cell(cell: UnitCell, f_hz: float) -> float:
    """Per-cell evanescent decay exponent kappa*a inside a gap (0 in a band)."""
    d = abs(dispersion(cell, f_hz))
    if d <= 1.0:
        return 0.0
    return math.acosh(d)


def find_band_gaps(cell: UnitCell, f_min: float, f_max: float, resolution: float) -> list[BandGap]:
    """Maximal intervals of [f_min, f_max] where |cos(q*a)| > 1.

    Gap edges are refined by bisection to better than 1e-6 relative
    tolerance.  A gap narrower than ``resolution`` is found only if a
    scan sample happens to fall inside it; gaps extending past the scan
    window are clipped to it.  A scan of more than ``MAX_SCAN_POINTS``
    samples raises ``ValueError``.
    """
    from scipy.optimize import brentq

    if not f_min < f_max:
        raise ValueError("need f_min < f_max")
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    span = (f_max - f_min) / resolution  # inf when the width overflows
    if not span <= MAX_SCAN_POINTS - 1:
        raise ValueError(f"band-gap scan of {f_min:.6g} to {f_max:.6g} Hz at {resolution:.6g} Hz "
                         f"resolution needs more than {MAX_SCAN_POINTS} samples")
    n = max(int(math.ceil(span)) + 1, 2)
    freqs = np.linspace(f_min, f_max, n)
    in_gap = np.abs(dispersion(cell, freqs)) > 1.0

    def residual(f):
        return abs(dispersion(cell, f)) - 1.0

    # runs of in-gap samples: [start, end] index pairs
    steps = np.diff(np.concatenate(([0], in_gap.astype(np.int8), [0])))
    starts = np.flatnonzero(steps == 1)
    ends = np.flatnonzero(steps == -1) - 1
    gaps: list[BandGap] = []
    for i, j in zip(starts, ends):
        lo = freqs[i]
        if i > 0:
            lo = brentq(residual, freqs[i - 1], freqs[i], rtol=1e-12)
        hi = freqs[j]
        if j + 1 < n:
            hi = brentq(residual, freqs[j], freqs[j + 1], rtol=1e-12)
        if lo < hi:
            gaps.append(BandGap(float(lo), float(hi)))
    return gaps


def _rendered_cell(cell: UnitCell) -> list[Segment]:
    """Symmetric rendering of one period: half narrow, wide, half narrow."""
    narrow, wide = cell.segments
    half = Segment(narrow.length / 2.0, narrow.sound_speed, narrow.acoustic_impedance)
    return [half, wide, half]


def _chain_segments(chain: ChainSpec) -> list[Segment]:
    mirror = _rendered_cell(chain.mirror_cell)
    defect = _rendered_cell(chain.defect_cell)
    n = chain.mirror_cells_per_side
    return mirror * n + defect + mirror * n


def _segment_matrices(segment: Segment, f: np.ndarray) -> np.ndarray:
    theta = angular(f) * segment.length / segment.sound_speed
    z = segment.acoustic_impedance
    m = np.empty(f.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = np.cos(theta)
    m[..., 0, 1] = 1j * z * np.sin(theta)
    m[..., 1, 0] = 1j * np.sin(theta) / z
    m[..., 1, 1] = np.cos(theta)
    return m


def _chain_matrix(segments: list[Segment], f: np.ndarray) -> np.ndarray:
    total = _segment_matrices(segments[0], f)
    for segment in segments[1:]:
        total = total @ _segment_matrices(segment, f)
    return total


def _power(m: np.ndarray, n: int) -> np.ndarray:
    """m^n of unimodular 2x2 matrices: U_{n-1}(x) m - U_{n-2}(x) I, x = tr(m)/2.

    The Chebyshev polynomials of the second kind come from the three-term
    recurrence U_{k+1} = 2x U_k - U_{k-1}, started at U_{-2} = -1 and
    U_{-1} = 0, so no band-edge guard is needed (Abeles form of a
    periodic stack)."""
    x = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    u_prev, u = -np.ones_like(x), np.zeros_like(x)
    for _ in range(n):
        u_prev, u = u, 2.0 * x * u - u_prev
    out = u[..., None, None] * m
    out[..., 0, 0] -= u_prev
    out[..., 1, 1] -= u_prev
    return out


def _transfer_matrix(chain: ChainSpec, f: np.ndarray) -> np.ndarray:
    """Whole-chain transfer matrix mirror^N . defect . mirror^N; its cost
    does not grow with the mirror count N."""
    cell = _chain_matrix(_rendered_cell(chain.mirror_cell), f)
    mirror = _power(cell, chain.mirror_cells_per_side)
    return mirror @ _chain_matrix(_rendered_cell(chain.defect_cell), f) @ mirror


def scattering_amplitudes(chain: ChainSpec, f_hz):
    """Complex transmission and reflection amplitudes (t, r) of the chain."""
    f = np.atleast_1d(np.asarray(f_hz, dtype=float))
    if np.any(f <= 0.0):
        raise ValueError("frequencies must be positive")
    m = _transfer_matrix(chain, f)
    z = chain.termination_impedance
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    denom = m00 + m01 / z + z * m10 + m11
    t = 2.0 / denom
    r = (m00 + m01 / z - z * m10 - m11) / denom
    if np.isscalar(f_hz):
        return complex(t[0]), complex(r[0])
    return t, r


def transmission(chain: ChainSpec, f_hz):
    """Power transmission |t|^2 = 1/(1 + h^2/4) between matched ends:
    exact for the lossless symmetric chains ``ChainSpec`` builds, and at
    most 1 even at high-Q modes, where t = 2/denom cancels large terms."""
    f = np.atleast_1d(np.asarray(f_hz, dtype=float))
    if np.any(f <= 0.0):
        raise ValueError("frequencies must be positive")
    with np.errstate(over="ignore"):  # h^2 = inf transmits 0
        power = 1.0 / (1.0 + 0.25 * _resonance_residual(chain, f) ** 2)
    return float(power[0]) if np.isscalar(f_hz) else power


def _resonance_residual(chain: ChainSpec, f: np.ndarray) -> np.ndarray:
    # For a mirror-symmetric lossless chain the off-diagonal transfer
    # entries are purely imaginary, M01 = i*b and M10 = i*c, and
    # |t|^2 = 1/(1 + h^2/4) with h = b/Z - Z*c: h = 0 is exact unit
    # transmission, h = +-2 the half-maximum points.
    m = _transfer_matrix(chain, f)
    z = chain.termination_impedance
    return np.imag(m[..., 0, 1]) / z - z * np.imag(m[..., 1, 0])


def find_defect_mode(chain: ChainSpec, gap: BandGap) -> DefectMode:
    """Locate the localized defect resonance inside a band gap.

    The resonance residual h(f) comes from the Chebyshev chain matrix
    mirror^N . defect . mirror^N, so one evaluation costs the same at any
    mirror count N.  The mode frequency f0 is the root h = 0 nearest the
    gap center, where the symmetric chain transmits exactly.  Near it
    |t|^2 = 1/(1 + h^2/4) is a Lorentzian of predicted full width at half
    maximum FWHM = 4/|h'(f0)|, and every tolerance scales with it: brentq
    places the root, and any half-maximum edge |h| = 2, to ``LINE_TOL``
    of the predicted FWHM, or to the float resolution of f if coarser.
    h'(f0) is a central difference over +-``SLOPE_STEP`` f0.

    The radiative Q is f0/FWHM, in one of two regimes.  Below
    ``DIRECT_Q_MIN`` the FWHM is the distance between the half-maximum
    edges, because h bends within a broad line.  From ``DIRECT_Q_MIN``
    on, Q is f0 |h'(f0)| / 4 itself: h is linear across the line, while
    the edges would approach the float spacing of f.  The localization
    length a/(kappa*a) follows from the mirror-cell Bloch decay constant
    at f0.

    Raises ``NoDefectModeInGap`` when the gap holds no resonance (peak
    transmission below 10x the mid-gap floor), ``ChainMatrixOverflow``
    when h overflows anywhere on the scan (mirrors of some 390 strong
    cells per side), and ``LinewidthNotResolved`` when h'(f0) is not
    finite or is zero.
    """
    from scipy.optimize import brentq

    margin = 0.01 * (gap.f_high - gap.f_low)
    freqs = np.linspace(gap.f_low + margin, gap.f_high - margin, MODE_SCAN_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        h = _resonance_residual(chain, freqs)
    if not np.all(np.isfinite(h)):
        raise ChainMatrixOverflow(
            f"chain transfer matrix overflows in [{gap.f_low:.6g}, {gap.f_high:.6g}] Hz "
            f"with {chain.mirror_cells_per_side} mirror cells per side"
        )

    # mid-gap shielding floor: transmission of the same chain with the
    # defect replaced by one more mirror cell
    uniform = replace(chain, defect_cell=chain.mirror_cell)
    floor = float(transmission(uniform, gap.center))

    def h_at(f):
        return float(_resonance_residual(chain, np.array([f]))[0])

    def root(i: int) -> float:
        # the secant across the scan interval predicts the FWHM 4/|h'|
        fwhm = 4.0 * (freqs[i + 1] - freqs[i]) / abs(h[i + 1] - h[i])
        return brentq(h_at, freqs[i], freqs[i + 1], xtol=LINE_TOL * fwhm)

    sign_change = np.nonzero(np.sign(h[:-1]) * np.sign(h[1:]) < 0)[0]
    candidates = [root(i) for i in sign_change]
    if not candidates or 1.0 < 10.0 * floor:
        # a mirror-symmetric lossless chain reaches |t| = 1 at any localized
        # resonance, so the absence of a unit-transmission root (or a peak
        # failing the 10x-floor contrast test) means no defect mode
        peak = 1.0 / (1.0 + 0.25 * float(np.min(h**2)))
        raise NoDefectModeInGap(
            f"no localized resonance in [{gap.f_low:.6g}, {gap.f_high:.6g}] Hz "
            f"(peak/floor = {peak / floor:.3g}, threshold 10)"
        )

    # several in-gap resonances are possible for long defects; report the
    # one closest to the gap center
    f_mode = min(candidates, key=lambda f: abs(f - gap.center))

    f_pair = f_mode * np.array([1.0 - SLOPE_STEP, 1.0 + SLOPE_STEP])
    h_pair = _resonance_residual(chain, f_pair)
    slope = float((h_pair[1] - h_pair[0]) / (f_pair[1] - f_pair[0]))
    if not math.isfinite(slope) or slope == 0.0:
        raise LinewidthNotResolved(
            f"resonance-residual slope h' = {slope!r} /Hz at {f_mode:.6g} Hz "
            "gives no linewidth 4/|h'|"
        )
    fwhm = 4.0 / abs(slope)

    def edge(direction: int) -> float:
        # walk outward from the resonance to a point with |h| > 2; if the
        # linewidth spills past the gap edge, clamp there
        step = fwhm
        f_out = f_mode + direction * step
        while gap.f_low < f_out < gap.f_high and abs(h_at(f_out)) < 2.0:
            step *= 2.0
            f_out = f_mode + direction * step
        f_out = min(max(f_out, gap.f_low), gap.f_high)
        if abs(h_at(f_out)) < 2.0:
            return f_out
        return brentq(lambda f: abs(h_at(f)) - 2.0, f_mode, f_out, xtol=LINE_TOL * fwhm)

    if f_mode / fwhm < DIRECT_Q_MIN:
        fwhm = edge(+1) - edge(-1)

    kappa_a = bloch_decay_per_cell(chain.mirror_cell, f_mode)
    if kappa_a <= 0.0:
        raise NoDefectModeInGap(
            f"resonance at {f_mode:.6g} Hz lies outside the mirror gap"
        )
    return DefectMode(
        frequency=float(f_mode),
        localization_length=chain.mirror_cell.lattice_constant / kappa_a,
        radiative_q=float(f_mode / fwhm),
    )


def mode_profile(chain: ChainSpec, mode: DefectMode):
    """Per-cell field amplitude of the defect mode, normalized at the defect.

    The field is integrated from the outgoing-wave boundary on the right
    half of the chain at the mode frequency and mirrored onto the left
    half (the chain is symmetric by construction).  Cell amplitudes are
    RMS energy-density samples, so successive mirror cells decay by the
    Bloch factor exp(-kappa*a); the outermost cell blends into the
    launched traveling wave and can deviate from pure Bloch decay.

    Returns a list of (cell_index, amplitude) with the defect at index
    ``mirror_cells_per_side`` and amplitude 1.
    """
    segments = _chain_segments(chain)
    defect_index = chain.mirror_cells_per_side
    n_cells = 2 * defect_index + 1
    f = mode.frequency

    # start from unit outgoing wave at the right termination and propagate
    # leftward: state_left = M_segment @ state_right
    z_t = chain.termination_impedance
    state = np.array([1.0 + 0.0j, 1.0 / z_t])
    energy_sums = np.zeros(n_cells)
    for seg_index in range(len(segments) - 1, 3 * defect_index - 1, -1):
        segment = segments[seg_index]
        cell_index = seg_index // 3
        slice_seg = replace(segment, length=segment.length / PROFILE_SAMPLES_PER_SEGMENT)
        m_slice = _segment_matrices(slice_seg, np.zeros(()) + f)
        z = segment.acoustic_impedance
        for _ in range(PROFILE_SAMPLES_PER_SEGMENT):
            energy_sums[cell_index] += abs(state[0]) ** 2 / z + z * abs(state[1]) ** 2
            state = m_slice @ state
        energy_sums[cell_index] += abs(state[0]) ** 2 / z + z * abs(state[1]) ** 2

    amplitudes = np.zeros(n_cells)
    # every cell holds three segments of PROFILE_SAMPLES_PER_SEGMENT + 1 samples
    right = np.sqrt(energy_sums[defect_index:] / (3 * (PROFILE_SAMPLES_PER_SEGMENT + 1)))
    amplitudes[defect_index:] = right
    amplitudes[:defect_index] = right[1:][::-1]
    amplitudes /= amplitudes[defect_index]
    return [(i, float(a)) for i, a in enumerate(amplitudes)]


# Calibrated reference geometry: quartz-like sound speed and specific
# impedance, quarter-wave segments at the gap center.  The impedance
# ratio below sets the fractional gap width w through
# w = (4/pi) * arcsin((r - 1)/(r + 1)).

SOUND_SPEED = 5750.0  # m/s
BASE_IMPEDANCE = 1.52e7  # kg/(m^2 s)
# near-half-wave defect; places the trapped mode at ~97.2 MHz in the
# calibrated 90-110 MHz gap with five mirror cells per side
DEFAULT_DEFECT_STRETCH = 2.2
# fractional gap width of the high-contrast (strong) mirror cell
STRONG_GAP_FRACTION = 0.55


def _impedance_ratio_for_gap(gap_fraction: float) -> float:
    s = math.sin(math.pi * gap_fraction / 4.0)
    return (1.0 + s) / (1.0 - s)


def reference_mirror_cell(f_center: float = 100e6, gap_fraction: float = 0.20) -> UnitCell:
    """Quarter-wave mirror cell whose first gap has the given fractional
    width centered on ``f_center`` (defaults match the 20 MHz gap at
    100 MHz design target)."""
    length = SOUND_SPEED / (4.0 * f_center)
    ratio = _impedance_ratio_for_gap(gap_fraction)
    narrow = Segment(length, SOUND_SPEED, BASE_IMPEDANCE)
    wide = Segment(length, SOUND_SPEED, BASE_IMPEDANCE * ratio)
    return UnitCell((narrow, wide))


def strong_mirror_cell(f_center: float = 100e6) -> UnitCell:
    """High-contrast mirror variant for radiative-Q scaling studies; its
    per-cell decay constant is large enough that adding one mirror cell
    per side changes Q by well over an order of magnitude."""
    return reference_mirror_cell(f_center, STRONG_GAP_FRACTION)


def reference_defect_cell(
    mirror_cell: UnitCell, width_scale: float = DEFAULT_DEFECT_STRETCH
) -> UnitCell:
    """Defect cell derived from a mirror cell by stretching the wide
    segment; a larger ``width_scale`` (wider defect) lowers the trapped
    mode frequency."""
    if width_scale <= 0.0:
        raise ValueError("width_scale must be positive")
    narrow, wide = mirror_cell.segments
    stretched = Segment(wide.length * width_scale, wide.sound_speed, wide.acoustic_impedance)
    return UnitCell((narrow, stretched))


def reference_chain(
    n_mirror: int = 5,
    width_scale: float = DEFAULT_DEFECT_STRETCH,
    gap_fraction: float = 0.20,
    f_center: float = 100e6,
) -> ChainSpec:
    """Calibrated chain: N quarter-wave mirror cells per side around a
    stretched defect, terminated in the narrow-segment impedance."""
    mirror = reference_mirror_cell(f_center, gap_fraction)
    defect = reference_defect_cell(mirror, width_scale)
    return ChainSpec(
        mirror_cells_per_side=n_mirror,
        mirror_cell=mirror,
        defect_cell=defect,
        termination_impedance=mirror.segments[0].acoustic_impedance,
    )


def strong_chain(n_mirror: int = 5, width_scale: float = DEFAULT_DEFECT_STRETCH) -> ChainSpec:
    """High-contrast counterpart of :func:`reference_chain`."""
    return reference_chain(n_mirror, width_scale, gap_fraction=STRONG_GAP_FRACTION)
