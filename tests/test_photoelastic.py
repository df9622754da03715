import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qmem.core import angular
from qmem.errors import ComputationError, ModulationTooDeep, OutOfDefect
from qmem.photoelastic import (
    ModulationResult,
    OpticalConfig,
    PhotoelasticTensor,
    StandingWaveMode,
    detected_power,
    displacement_field,
    index_perturbation,
    mode_profile_scan,
    phase_modulation,
    polarization_contrast,
    principal_indices,
    strain_field,
)

QUARTZ = PhotoelasticTensor.quartz_default()


def make_mode(m_target=0.1, config=None, defect_width=25e-6, f_m=97.2e6):
    """Standing wave whose defect-center modulation depth equals m_target."""
    config = config or OpticalConfig(plate_thickness=3.5e-6)
    k0 = 2.0 * math.pi / config.wavelength
    s0 = m_target / (k0 * config.plate_thickness * config.n_o**3 * QUARTZ.p12)
    u0 = s0 * defect_width / math.pi
    return StandingWaveMode(defect_width=defect_width, amplitude=u0, frequency=f_m)


def test_quartz_symmetry_pattern():
    m = QUARTZ.matrix
    assert m[0, 0] == m[1, 1]
    assert m[0, 3] == -m[1, 3]
    assert m[5, 5] == (m[0, 0] - m[0, 1]) / 2.0
    zeros = [(0, 4), (0, 5), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
             (3, 2), (3, 4), (3, 5), (4, 0), (4, 1), (4, 2), (4, 3),
             (5, 0), (5, 1), (5, 2), (5, 3)]
    for i, j in zeros:
        assert m[i, j] == 0.0
    custom = PhotoelasticTensor(p11=0.2, p12=0.3, p13=0.1, p14=-0.05,
                                p31=0.25, p33=-0.04, p41=0.12, p44=-0.08)
    assert custom.matrix[3, 1] == -0.12
    assert custom.matrix[5, 5] == pytest.approx((0.2 - 0.3) / 2.0)


def test_index_perturbation_zero_and_linearity():
    assert np.all(index_perturbation(QUARTZ, np.zeros(6)) == 0.0)
    s = np.array([1e-5, -2e-5, 3e-6, 0.0, 1e-6, -4e-6])
    assert np.allclose(index_perturbation(QUARTZ, 2 * s),
                       2 * index_perturbation(QUARTZ, s), rtol=1e-15)


def test_index_perturbation_transverse_strain_structure():
    s_yy = 1e-5
    out = index_perturbation(QUARTZ, [0.0, s_yy, 0.0, 0.0, 0.0, 0.0])
    expected = np.array([
        QUARTZ.p12 * s_yy, QUARTZ.p11 * s_yy, QUARTZ.p31 * s_yy,
        -QUARTZ.p41 * s_yy, 0.0, 0.0,
    ])
    assert np.allclose(out, expected, rtol=1e-15)


def test_index_perturbation_rejects_large_strain():
    with pytest.raises(ValueError):
        index_perturbation(QUARTZ, [0.5, 0, 0, 0, 0, 0])


def test_principal_indices_unstrained():
    config = OpticalConfig(plate_thickness=3.5e-6)
    n_x, n_y, n_z, theta = principal_indices(config, 0.0)
    assert (n_x, n_y, n_z, theta) == (config.n_o, config.n_o, config.n_e, 0.0)


def test_principal_indices_small_rotation():
    config = OpticalConfig(plate_thickness=3.5e-6)
    s_yy = 1e-6
    _, _, _, theta = principal_indices(config, s_yy)
    denominator = (1.0 / config.n_o**2 + QUARTZ.p11 * s_yy) - (
        1.0 / config.n_e**2 + QUARTZ.p31 * s_yy
    )
    expected = 0.5 * math.atan(-2.0 * QUARTZ.p41 * s_yy / denominator)
    assert theta == pytest.approx(expected, rel=1e-12)
    # the plate birefringence dominates, so the angle is tiny
    assert theta == pytest.approx(
        -QUARTZ.p41 * s_yy / (1.0 / config.n_o**2 - 1.0 / config.n_e**2), rel=1e-3
    )
    assert abs(theta) < 1e-3


def test_principal_indices_match_eigen_decomposition():
    config = OpticalConfig(plate_thickness=3.5e-6)
    for s_yy in (1e-6, 1e-5, 1e-4, -1e-4):
        n_x, n_y, n_z, _ = principal_indices(config, s_yy)
        # full impermeability tensor for a pure transverse strain
        b = np.diag([1 / config.n_o**2, 1 / config.n_o**2, 1 / config.n_e**2])
        delta = index_perturbation(QUARTZ, [0.0, s_yy, 0.0, 0.0, 0.0, 0.0])
        b += np.array([
            [delta[0], delta[5], delta[4]],
            [delta[5], delta[1], delta[3]],
            [delta[4], delta[3], delta[2]],
        ])
        exact = 1.0 / np.sqrt(np.linalg.eigvalsh(b))
        approx = np.sort([n_x, n_y, n_z])
        assert np.allclose(np.sort(exact), approx, rtol=50 * s_yy**2 + 1e-12)


def test_strain_field_antinode_and_nodes():
    mode = make_mode()
    quarter_period = 0.25 / mode.frequency
    s0 = mode.strain_amplitude
    assert strain_field(mode, 0.0, quarter_period) == pytest.approx(s0, rel=1e-12)
    for edge in (-mode.defect_width / 2, mode.defect_width / 2):
        assert abs(strain_field(mode, edge, quarter_period)) < 1e-12 * s0
    with pytest.raises(OutOfDefect):
        strain_field(mode, mode.defect_width, 0.0)


def test_strain_is_displacement_gradient():
    mode = make_mode()
    t = 0.13 / mode.frequency
    dy = mode.defect_width * 1e-7
    for y in np.linspace(-0.4, 0.4, 9) * mode.defect_width:
        numeric = (displacement_field(mode, y + dy, t)
                   - displacement_field(mode, y - dy, t)) / (2 * dy)
        assert numeric == pytest.approx(strain_field(mode, y, t), rel=1e-6)


def test_phase_modulation_static_phase():
    config = OpticalConfig(plate_thickness=3.5e-6)
    delta0, _ = phase_modulation(config, make_mode(), 0.0)
    expected = 1.528 * (2 * math.pi / 1.064e-6) * 2 * 3.5e-6
    assert delta0 == pytest.approx(expected, rel=1e-12)
    assert delta0 == pytest.approx(63.2, rel=1e-2)


def test_phase_modulation_spatial_envelope():
    config = OpticalConfig(plate_thickness=3.5e-6)
    mode = make_mode()
    _, m_center = phase_modulation(config, mode, 0.0)
    _, m_quarter = phase_modulation(config, mode, mode.defect_width / 4)
    assert m_center / m_quarter == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_phase_modulation_zero_amplitude():
    config = OpticalConfig(plate_thickness=3.5e-6)
    mode = StandingWaveMode(defect_width=25e-6, amplitude=0.0, frequency=97.2e6)
    _, m = phase_modulation(config, mode, 0.0)
    assert m == 0.0


def test_phase_modulation_polarization_selection():
    mode = make_mode()
    cfg_x = OpticalConfig(plate_thickness=3.5e-6, polarization_angle=0.0)
    cfg_y = OpticalConfig(plate_thickness=3.5e-6, polarization_angle=math.pi / 2)
    _, m_x = phase_modulation(cfg_x, mode, 0.0)
    _, m_y = phase_modulation(cfg_y, mode, 0.0)
    assert m_x / m_y == pytest.approx(QUARTZ.p12 / QUARTZ.p11, rel=1e-9)


def time_domain_first_harmonic(config, mode, y, n=8192):
    """Exact interference signal sampled over one period, Fourier analysed."""
    delta0, m = phase_modulation(config, mode, y)
    omega_t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    intensity = 0.5 * (
        config.c1**2 + config.c2**2
        + 2 * config.c1 * config.c2 * np.cos(delta0 - m * np.sin(omega_t))
    )
    dc = intensity.mean()
    first_sin = 2.0 * np.mean(intensity * np.sin(omega_t))
    return dc, first_sin


@pytest.mark.parametrize("m_target,tol", [(0.1, 1e-4), (0.5, 1e-2)])
def test_detected_power_matches_time_domain_oracle(m_target, tol):
    config = OpticalConfig(plate_thickness=3.5e-6)
    mode = make_mode(m_target)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = detected_power(config, mode, 0.0)
    dc, first_sin = time_domain_first_harmonic(config, mode, 0.0)
    assert result.dc_power == pytest.approx(dc, rel=tol)
    assert result.single_sided_amplitude == pytest.approx(first_sin, rel=tol)
    # stored coefficient keeps the full two-sided form
    assert result.beat_amplitude == pytest.approx(2 * first_sin, rel=tol)


def test_detected_power_small_modulation_linearity():
    config = OpticalConfig(plate_thickness=3.5e-6)
    m = 1e-3
    result = detected_power(config, make_mode(m), 0.0)
    linear = 2 * config.c1 * config.c2 * math.sin(result.delta0) * (m / 2.0)
    assert result.single_sided_amplitude == pytest.approx(linear, rel=1e-6)


def test_detected_power_no_interference_without_back_reflection():
    config = OpticalConfig(plate_thickness=3.5e-6, c2=0.0)
    result = detected_power(config, make_mode(0.1), 0.0)
    assert result.beat_amplitude == 0.0


def test_detected_power_modulation_bounds():
    config = OpticalConfig(plate_thickness=3.5e-6)
    with pytest.raises(ValueError):
        detected_power(config, make_mode(1.2), 0.0)
    with pytest.warns(UserWarning):
        detected_power(config, make_mode(0.7), 0.0)


def test_modulation_too_deep_is_a_computation_error():
    config = OpticalConfig(plate_thickness=3.5e-6)
    with pytest.raises(ModulationTooDeep, match="M = 1.2") as exc:
        detected_power(config, make_mode(1.2), 0.0)
    assert isinstance(exc.value, ComputationError)
    # just above the bound
    with pytest.raises(ModulationTooDeep):
        detected_power(config, make_mode(1.0 + 1e-9), 0.0)


def test_beat_amplitude_odd_in_strain():
    # reversing the drive phase flips the sideband sign in the exact signal
    config = OpticalConfig(plate_thickness=3.5e-6)
    mode = make_mode(0.1)
    delta0, m = phase_modulation(config, mode, 0.0)
    omega_t = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
    plus = 0.5 * 2 * config.c1 * config.c2 * np.cos(delta0 - m * np.sin(omega_t))
    minus = 0.5 * 2 * config.c1 * config.c2 * np.cos(delta0 + m * np.sin(omega_t))
    a_plus = 2.0 * np.mean(plus * np.sin(omega_t))
    a_minus = 2.0 * np.mean(minus * np.sin(omega_t))
    assert a_plus == pytest.approx(-a_minus, rel=1e-12)
    assert abs(a_plus) > 0


def test_polarization_contrast_quartz():
    contrast = polarization_contrast(QUARTZ)
    assert contrast == pytest.approx(4.5448, abs=0.01)
    assert abs(contrast - 4.7) < 0.3


def test_polarization_contrast_symmetries():
    equal = PhotoelasticTensor(p11=0.2, p12=0.2, p13=0.1, p14=0.0,
                               p31=0.1, p33=0.1, p41=0.1, p44=0.1)
    assert polarization_contrast(equal) == 0.0
    swapped = PhotoelasticTensor(p11=QUARTZ.p12, p12=QUARTZ.p11, p13=QUARTZ.p13,
                                 p14=QUARTZ.p14, p31=QUARTZ.p31, p33=QUARTZ.p33,
                                 p41=QUARTZ.p41, p44=QUARTZ.p44)
    assert polarization_contrast(swapped) == pytest.approx(-polarization_contrast(QUARTZ))


def test_mode_profile_scan_normalization_and_linearity():
    config = OpticalConfig(plate_thickness=3.5e-6)
    mode = make_mode(0.1)
    envelope = [(-2, 0.1), (-1, 0.4), (0, 1.0), (1, 0.4), (2, 0.1)]
    scan = mode_profile_scan(envelope, config, mode)
    values = dict(scan)
    assert values[0] == pytest.approx(1.0)
    # small-modulation transduction is linear in the local amplitude
    assert values[1] == pytest.approx(0.4, rel=0.01)
    assert values[2] == pytest.approx(0.1, rel=0.01)


def test_mode_profile_scan_tracks_chain_envelope():
    from qmem import phonon_chain

    chain = phonon_chain.reference_chain()
    gap = phonon_chain.find_band_gaps(chain.mirror_cell, 50e6, 150e6, 0.1e6)[0]
    defect = phonon_chain.find_defect_mode(chain, gap)
    envelope = phonon_chain.mode_profile(chain, defect)
    config = OpticalConfig(plate_thickness=3.5e-6)
    mode = make_mode(0.1, f_m=defect.frequency)
    scan = mode_profile_scan(envelope, config, mode)
    for (_, env), (_, signal) in zip(envelope, scan):
        assert signal == pytest.approx(env, rel=0.01)


def test_mode_profile_scan_zero_envelope():
    config = OpticalConfig(plate_thickness=3.5e-6)
    scan = mode_profile_scan([(0, 0.0), (1, 0.0)], config, make_mode(0.1))
    assert all(v == 0.0 for _, v in scan)


def test_mode_profile_scan_requires_normalized_envelope():
    config = OpticalConfig(plate_thickness=3.5e-6)
    with pytest.raises(ValueError):
        mode_profile_scan([(0, 0.5), (1, 0.2)], config, make_mode(0.1))


@pytest.mark.parametrize("strong", [False, True])
@pytest.mark.parametrize("n_mirror", [4, 10])
@pytest.mark.parametrize("m_target", [1e-6, 0.3, 0.95])
def test_mode_profile_scan_is_the_bessel_ratio(strong, n_mirror, m_target):
    from scipy.special import j1

    from qmem import phonon_chain

    chain = (phonon_chain.strong_chain(n_mirror=n_mirror) if strong
             else phonon_chain.reference_chain(n_mirror=n_mirror))
    gap = phonon_chain.find_band_gaps(chain.mirror_cell, 50e6, 150e6, 0.1e6)[0]
    envelope = phonon_chain.mode_profile(chain, phonon_chain.find_defect_mode(chain, gap))
    config = OpticalConfig(plate_thickness=3.5e-6)
    mode = make_mode(m_target)
    m = phase_modulation(config, mode, 0.0)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scan = mode_profile_scan(envelope, config, mode)
        # each cell through the detector model, at its local amplitude
        beats = [detected_power(config, replace(mode, amplitude=mode.amplitude * a), 0.0)
                 .beat_amplitude for _, a in envelope]
    assert [pos for pos, _ in scan] == [pos for pos, _ in envelope]
    signal = np.array([v for _, v in scan])
    amps = np.array([a for _, a in envelope])
    np.testing.assert_allclose(signal, j1(m * amps) / j1(m), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(signal, np.array(beats) / beats[int(np.argmax(amps))],
                               rtol=1e-12, atol=0.0)


def test_mode_profile_scan_checks_the_deepest_modulation_once():
    config = OpticalConfig(plate_thickness=3.5e-6)
    envelope = [(-2, 0.6), (-1, 0.8), (0, 1.0), (1, 0.8), (2, 0.6)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mode_profile_scan(envelope, config, make_mode(0.95))
    assert len(caught) == 1 and "M = 0.95 above 0.5" in str(caught[0].message)
    with pytest.raises(ModulationTooDeep):
        mode_profile_scan(envelope, config, make_mode(1.0 + 1e-9))


def test_mode_profile_scan_rejects_negative_envelope():
    config = OpticalConfig(plate_thickness=3.5e-6)
    with pytest.raises(ValueError, match=">= 0"):
        mode_profile_scan([(0, 1.0), (1, -0.2)], config, make_mode(0.1))


def test_mode_profile_scan_without_beat_is_zero():
    # no back-face reflection, no interference: the defect beat is 0
    config = OpticalConfig(plate_thickness=3.5e-6, c2=0.0)
    scan = mode_profile_scan([(0, 1.0), (1, 0.5)], config, make_mode(0.1))
    assert scan == [(0.0, 0.0), (1.0, 0.0)]


def test_default_reflection_amplitudes_are_fresnel():
    config = OpticalConfig(plate_thickness=3.5e-6)
    n = config.n_o
    assert config.c1 == pytest.approx((n - 1) / (n + 1))
    assert config.c2 == pytest.approx(
        (2 / (1 + n)) * ((n - 1) / (n + 1)) * (2 * n / (1 + n))
    )
