import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmem import phonon_chain
from qmem.errors import ChainMatrixOverflow, LinewidthNotResolved, NoDefectModeInGap
from qmem.phonon_chain import (
    BASE_IMPEDANCE,
    SOUND_SPEED,
    BandGap,
    ChainSpec,
    Segment,
    UnitCell,
    _chain_matrix,
    _chain_segments,
    _rendered_cell,
    _transfer_matrix,
    bloch_decay_per_cell,
    dispersion,
    find_band_gaps,
    find_defect_mode,
    mode_profile,
    reference_chain,
    reference_defect_cell,
    reference_mirror_cell,
    scattering_amplitudes,
    strong_chain,
    strong_mirror_cell,
    transmission,
)


def uniform_cell(length=14.375e-6):
    seg = Segment(length, SOUND_SPEED, BASE_IMPEDANCE)
    return UnitCell((seg, seg))


impedances = st.floats(1e6, 1e8)
segments = st.builds(Segment, st.floats(1e-6, 1e-4), st.floats(2e3, 1e4), impedances)
cells = st.builds(lambda a, b: UnitCell((a, b)), segments, segments)


def test_dispersion_matches_transfer_matrix_trace():
    cell = reference_mirror_cell()
    freqs = np.linspace(10e6, 300e6, 23)
    matrix = _chain_matrix(_rendered_cell(cell), freqs)
    trace_half = 0.5 * np.real(matrix[:, 0, 0] + matrix[:, 1, 1])
    assert np.allclose(dispersion(cell, freqs), trace_half, rtol=1e-10, atol=1e-10)


def test_dispersion_uniform_chain_never_gapped():
    cell = uniform_cell()
    freqs = np.linspace(1e6, 500e6, 5000)
    assert np.all(np.abs(dispersion(cell, freqs)) <= 1.0 + 1e-12)


def test_dispersion_long_wavelength_limit():
    assert dispersion(reference_mirror_cell(), 1.0) == pytest.approx(1.0, abs=1e-9)


def test_dispersion_midgap_exceeds_unity():
    assert abs(dispersion(reference_mirror_cell(), 100e6)) > 1.0


def test_find_band_gaps_uniform_chain_empty():
    assert find_band_gaps(uniform_cell(), 50e6, 150e6, 0.1e6) == []


# a window whose width overflows, and one of 1e9 samples (8 GB per array)
@pytest.mark.parametrize("f_min, f_max", [(1e300, 1.7e308), (50e6, 1e14)])
def test_find_band_gaps_rejects_an_oversized_scan(f_min, f_max):
    message = f"scan of {f_min:.6g} to {f_max:.6g} Hz at 100000 Hz resolution needs more than 10000000"
    with pytest.raises(ValueError, match=re.escape(message)):
        find_band_gaps(reference_mirror_cell(), f_min, f_max, 0.1e6)


def _band_gaps_scalar_reference(cell, f_min, f_max, resolution):
    # the scalar run loop that find_band_gaps used to walk the in-gap mask
    from scipy.optimize import brentq

    n = max(int(math.ceil((f_max - f_min) / resolution)) + 1, 2)
    freqs = np.linspace(f_min, f_max, n)
    in_gap = np.abs(dispersion(cell, freqs)) > 1.0

    def residual(f):
        return abs(dispersion(cell, f)) - 1.0

    gaps = []
    i = 0
    while i < n:
        if not in_gap[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and in_gap[j + 1]:
            j += 1
        lo = freqs[i]
        if i > 0:
            lo = brentq(residual, freqs[i - 1], freqs[i], rtol=1e-12)
        hi = freqs[j]
        if j + 1 < n:
            hi = brentq(residual, freqs[j], freqs[j + 1], rtol=1e-12)
        if lo < hi:
            gaps.append(BandGap(float(lo), float(hi)))
        i = j + 1
    return gaps


@settings(max_examples=100, deadline=None)
@given(
    cell=cells,
    f_min=st.floats(1e6, 2e8),
    span=st.floats(1e6, 4e8),
    samples=st.integers(1, 5000),
)
def test_find_band_gaps_matches_scalar_run_loop(cell, f_min, span, samples):
    f_max = f_min + span
    resolution = span / samples
    assert find_band_gaps(cell, f_min, f_max, resolution) == _band_gaps_scalar_reference(
        cell, f_min, f_max, resolution
    )


def test_calibrated_gap_is_twenty_percent_at_hundred_megahertz():
    gaps = find_band_gaps(reference_mirror_cell(), 50e6, 150e6, 0.1e6)
    assert len(gaps) == 1
    gap = gaps[0]
    assert gap.f_low == pytest.approx(90e6, rel=1e-4)
    assert gap.f_high == pytest.approx(110e6, rel=1e-4)


def test_gap_edges_sit_on_unit_dispersion():
    gap = find_band_gaps(reference_mirror_cell(), 50e6, 150e6, 0.1e6)[0]
    for edge in (gap.f_low, gap.f_high):
        assert abs(dispersion(reference_mirror_cell(), edge)) == pytest.approx(
            1.0, abs=1e-6
        )


def test_transfer_matrices_unimodular():
    chain = reference_chain()
    freqs = np.linspace(60e6, 140e6, 50)
    matrix = _chain_matrix(_chain_segments(chain), freqs)
    assert np.max(np.abs(np.linalg.det(matrix) - 1.0)) < 1e-12


def test_energy_conservation():
    chain = reference_chain()
    freqs = np.linspace(60e6, 140e6, 200)
    t, r = scattering_amplitudes(chain, freqs)
    assert np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    chain=st.builds(ChainSpec, st.integers(0, 8), cells, cells, impedances),
    freqs=st.lists(st.floats(1e6, 3e8), min_size=1, max_size=20),
)
def test_lossless_chain_conserves_energy(chain, freqs):
    t, r = scattering_amplitudes(chain, np.array(freqs))
    assert np.max(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)) < 1e-9
    # transmission() is 1/(1 + h^2/4), at most 1 by construction
    power = transmission(chain, np.array(freqs))
    assert np.all((power >= 0.0) & (power <= 1.0))
    assert np.max(np.abs(power - np.abs(t) ** 2)) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    chain=st.builds(ChainSpec, st.integers(0, 20), cells, cells, impedances),
    freqs=st.lists(st.floats(1e6, 3e8), min_size=1, max_size=20),
)
def test_chebyshev_chain_matches_segment_product(chain, freqs):
    # rounding is measured against the largest entry of
    # |mirror^N| |defect| |mirror^N|, the size of the terms the product
    # sums: in a pass band they can cancel to a far smaller matrix
    f = np.array(freqs)
    reference = _chain_matrix(_chain_segments(chain), f)
    matrix = _transfer_matrix(chain, f)
    n = chain.mirror_cells_per_side
    mirror = np.abs(_chain_matrix(_rendered_cell(chain.mirror_cell) * n, f)) if n else np.eye(2)
    defect = np.abs(_chain_matrix(_rendered_cell(chain.defect_cell), f))
    scale = np.max(mirror @ defect @ mirror, axis=(-2, -1))
    error = np.max(np.abs(matrix - reference), axis=(-2, -1))
    assert np.all(error <= 1e-11 * scale)


def test_chain_cost_independent_of_mirror_count(monkeypatch):
    built = []
    segment_matrices = phonon_chain._segment_matrices

    def counting(segment, f):
        built.append(segment)
        return segment_matrices(segment, f)

    monkeypatch.setattr(phonon_chain, "_segment_matrices", counting)
    counts = {}
    for n in (1, 10, 100):
        built.clear()
        scattering_amplitudes(reference_chain(n), np.linspace(60e6, 140e6, 5))
        counts[n] = len(built)
    # three segments for the mirror cell and three for the defect cell
    assert counts == {1: 6, 10: 6, 100: 6}


def _residual_by_segments(chain, f):
    # h = b/Z - Z c from the plain segment product, independent of the
    # Chebyshev chain matrix
    m = _chain_matrix(_chain_segments(chain), np.array([f]))[0]
    z = chain.termination_impedance
    return m[0, 1].imag / z - z * m[1, 0].imag


def _half_maximum_q(chain, f_mode):
    from scipy.optimize import brentq

    def edge(direction):
        step = 1e-9 * f_mode
        while abs(_residual_by_segments(chain, f_mode + direction * step)) < 2.0:
            step *= 2.0
        return brentq(lambda f: abs(_residual_by_segments(chain, f)) - 2.0,
                      f_mode, f_mode + direction * step, rtol=4 * np.finfo(float).eps)

    return f_mode / (edge(+1) - edge(-1))


@pytest.mark.parametrize("builder,window", [
    (reference_chain, (50e6, 150e6)),
    (strong_chain, (50e6, 160e6)),
])
@pytest.mark.parametrize("n", [3, 5, 10])
def test_radiative_q_matches_half_maximum_edges(builder, window, n):
    # strong N = 10 (Q ~ 1.3e8) takes the direct 4/|h'| linewidth, the
    # others the half-maximum edges
    chain = builder(n)
    gap = find_band_gaps(chain.mirror_cell, *window, 0.1e6)[0]
    mode = find_defect_mode(chain, gap)
    assert mode.radiative_q == pytest.approx(_half_maximum_q(chain, mode.frequency), rel=1e-7)


@pytest.mark.parametrize("n", range(6, 11))
def test_direct_linewidth_agrees_with_edges(monkeypatch, n):
    # strong N = 6 .. 10 spans Q ~ 1.2e5 .. 1.3e8, either side of DIRECT_Q_MIN
    chain = strong_chain(n)
    gap = find_band_gaps(chain.mirror_cell, 50e6, 160e6, 0.1e6)[0]
    monkeypatch.setattr(phonon_chain, "DIRECT_Q_MIN", 0.0)
    direct = find_defect_mode(chain, gap)
    monkeypatch.setattr(phonon_chain, "DIRECT_Q_MIN", math.inf)
    edges = find_defect_mode(chain, gap)
    assert direct.frequency == edges.frequency
    assert direct.radiative_q == pytest.approx(edges.radiative_q, rel=1e-7)


def test_high_q_linewidth_resolved():
    # the half-maximum edges at an absolute 1e-3 Hz gave 9.44e10 here
    chain = strong_chain(14)
    gap = find_band_gaps(chain.mirror_cell, 50e6, 160e6, 0.1e6)[0]
    assert find_defect_mode(chain, gap).radiative_q == pytest.approx(1.424e11, rel=1e-3)


def test_undefined_slope_is_linewidth_not_resolved(monkeypatch):
    # a zero difference step leaves h'(f0) = 0/0
    monkeypatch.setattr(phonon_chain, "SLOPE_STEP", 0.0)
    chain = strong_chain(10)
    gap = find_band_gaps(chain.mirror_cell, 50e6, 160e6, 0.1e6)[0]
    with pytest.raises(LinewidthNotResolved, match="linewidth"):
        with np.errstate(invalid="ignore"):
            find_defect_mode(chain, gap)


def test_defect_only_chain_reaches_unit_transmission():
    chain = reference_chain(n_mirror=0)
    freqs = np.linspace(60e6, 140e6, 20001)
    t2 = transmission(chain, freqs)
    assert np.max(t2) > 1.0 - 1e-6


def test_midgap_transmission_decays_with_mirror_count():
    cell = reference_mirror_cell()
    z_t = cell.segments[0].acoustic_impedance
    logs = {}
    for n in (3, 5):
        uniform = ChainSpec(n, cell, cell, z_t)
        logs[n] = math.log(transmission(uniform, 100e6))
    kappa = bloch_decay_per_cell(cell, 100e6)
    assert logs[5] < logs[3]
    # two extra cells per side: log |t|^2 drops by 4*kappa_a per added N
    assert logs[5] - logs[3] == pytest.approx(-4.0 * kappa * 2, rel=0.05)


def test_passband_transmission_does_not_decay_exponentially():
    cell = reference_mirror_cell()
    z_t = cell.segments[0].acoustic_impedance
    f_pass = 75e6  # propagating band
    t_small = transmission(ChainSpec(3, cell, cell, z_t), f_pass)
    t_large = transmission(ChainSpec(8, cell, cell, z_t), f_pass)
    assert t_large > 0.1 * t_small
    assert t_large > 0.3


def test_defect_mode_in_calibrated_gap():
    chain = reference_chain()
    gap = find_band_gaps(chain.mirror_cell, 50e6, 150e6, 0.1e6)[0]
    mode = find_defect_mode(chain, gap)
    assert gap.contains(mode.frequency)
    assert mode.frequency == pytest.approx(97.2e6, rel=5e-3)
    assert mode.radiative_q > 0
    assert mode.localization_length > 0


@pytest.mark.parametrize("builder,counts,window", [
    (reference_chain, range(3, 11), (50e6, 150e6)),
    (strong_chain, range(5, 14), (50e6, 160e6)),
])
def test_defect_mode_sits_at_unit_transmission(builder, counts, window):
    # the mode is the root of h, where the lossless symmetric chain
    # transmits exactly; transmission() is 1/(1 + h^2/4) from the same
    # h, so this bounds h at the root brentq returns, up to Q = 2.5e10
    gap = find_band_gaps(builder(3).mirror_cell, *window, 0.1e6)[0]
    for n in counts:
        chain = builder(n)
        mode = find_defect_mode(chain, gap)
        assert abs(1.0 - transmission(chain, mode.frequency)) <= 1e-10


def test_defect_frequency_monotone_in_width():
    chain0 = reference_chain()
    gap = find_band_gaps(chain0.mirror_cell, 50e6, 150e6, 0.1e6)[0]
    freqs = []
    for scale in (2.0, 2.1, 2.2, 2.3):
        mode = find_defect_mode(reference_chain(width_scale=scale), gap)
        freqs.append(mode.frequency)
    assert all(b < a for a, b in zip(freqs, freqs[1:]))


def test_no_defect_mode_for_uniform_chain():
    cell = reference_mirror_cell()
    chain = ChainSpec(5, cell, cell, cell.segments[0].acoustic_impedance)
    gap = find_band_gaps(cell, 50e6, 150e6, 0.1e6)[0]
    with pytest.raises(NoDefectModeInGap):
        find_defect_mode(chain, gap)


@pytest.mark.parametrize("n", [400, 450, 800])
def test_overflowing_chain_matrix_is_named(n):
    # these raised NoDefectModeInGap ("peak/floor = nan") at 400 and 800
    # and scipy's "xtol too small" at 450
    chain = strong_chain(n)
    gap = find_band_gaps(chain.mirror_cell, 50e6, 160e6, 0.1e6)[0]
    with pytest.raises(ChainMatrixOverflow, match=f"{n} mirror cells"):
        find_defect_mode(chain, gap)


def test_radiative_q_ratio_strong_mirrors():
    gap = find_band_gaps(strong_mirror_cell(), 50e6, 160e6, 0.1e6)[0]
    q3 = find_defect_mode(strong_chain(3), gap).radiative_q
    q5 = find_defect_mode(strong_chain(5), gap).radiative_q
    assert q5 / q3 > 10.0
    mode5 = find_defect_mode(strong_chain(5), gap)
    kappa = bloch_decay_per_cell(strong_mirror_cell(), mode5.frequency)
    assert q5 / q3 == pytest.approx(math.exp(4.0 * kappa), rel=0.05)


def test_log_radiative_q_affine_in_mirror_count():
    for builder, counts, window in (
        (strong_chain, range(2, 7), (50e6, 160e6)),
        (reference_chain, range(3, 7), (50e6, 150e6)),
    ):
        gap = find_band_gaps(builder(3).mirror_cell, *window, 0.1e6)[0]
        ns = np.array(list(counts))
        qs = np.array([find_defect_mode(builder(int(n)), gap).radiative_q for n in ns])
        slope, intercept = np.polyfit(ns, np.log(qs), 1)
        prediction = slope * ns + intercept
        residual = np.log(qs) - prediction
        r_squared = 1.0 - residual @ residual / np.sum(
            (np.log(qs) - np.log(qs).mean()) ** 2
        )
        assert r_squared > 0.99
        assert slope > 0


@pytest.mark.parametrize("n", [0, 3, 7])
@pytest.mark.parametrize("width_scale", [1.5, 2.2])
def test_strong_chain_is_reference_chain_at_055(n, width_scale):
    assert strong_chain(n, width_scale) == reference_chain(n, width_scale, gap_fraction=0.55)


def test_mode_profile_normalization_and_symmetry():
    chain = reference_chain()
    gap = find_band_gaps(chain.mirror_cell, 50e6, 150e6, 0.1e6)[0]
    mode = find_defect_mode(chain, gap)
    profile = mode_profile(chain, mode)
    amplitudes = np.array([a for _, a in profile])
    center = chain.mirror_cells_per_side
    assert len(profile) == 2 * center + 1
    assert amplitudes[center] == 1.0
    assert np.max(np.abs(amplitudes - amplitudes[::-1])) < 1e-9
    assert np.all(np.diff(amplitudes[center:]) < 0)


@pytest.mark.parametrize("builder,window", [
    (reference_chain, (50e6, 150e6)),
    (strong_chain, (50e6, 160e6)),
])
def test_mode_profile_decays_at_bloch_rate(builder, window):
    chain = builder(5)
    gap = find_band_gaps(chain.mirror_cell, *window, 0.1e6)[0]
    mode = find_defect_mode(chain, gap)
    profile = mode_profile(chain, mode)
    amplitudes = np.array([a for _, a in profile])
    center = chain.mirror_cells_per_side
    expected = math.exp(-bloch_decay_per_cell(chain.mirror_cell, mode.frequency))
    mirror = amplitudes[center + 1:]
    ratios = mirror[1:] / mirror[:-1]
    assert np.all(np.abs(ratios - expected) / expected < 0.20)


def test_wider_defect_cell_construction():
    mirror = reference_mirror_cell()
    defect = reference_defect_cell(mirror, 2.2)
    assert defect.segments[1].length == pytest.approx(2.2 * mirror.segments[1].length)
    assert defect.lattice_constant > mirror.lattice_constant


def test_band_gap_type_validation():
    with pytest.raises(ValueError):
        BandGap(2.0, 1.0)
    with pytest.raises(ValueError):
        Segment(-1.0, 5000.0, 1e7)


def test_resolution_coarser_than_gap_may_miss_it():
    # contract statement: detection requires a sample inside the gap
    cell = reference_mirror_cell()
    gaps = find_band_gaps(cell, 89.9e6, 110.3e6, 0.5e6)
    assert len(gaps) == 1
