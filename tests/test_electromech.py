import math
import warnings

import numpy as np
import pytest

from qmem.core import FrequencyTrace, angular
from qmem.electromech import (
    BvdParams,
    DefectArraySpec,
    ShuntCircuit,
    bvd_admittance,
    coupling_rate_gij,
    coupling_rate_gsm,
    fit_bvd,
    load_admittance_csv,
    motional_lc_equivalent,
    save_admittance_csv,
    scale_defects,
)
from qmem.errors import ResonanceNotInWindow


def synthetic_trace(params, f_lo=90e6, f_hi=108e6, n=201, noise=0.0, seed=0):
    f = np.linspace(f_lo, f_hi, n)
    y = bvd_admittance(params, f)
    if noise:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise * rng.standard_normal(n))
    return FrequencyTrace(f, y)


def test_series_resonance_of_paper_parameters(paper_bvd):
    assert paper_bvd.series_resonance_hz == pytest.approx(98.5484e6, abs=0.2e6)
    ratio = paper_bvd.parallel_resonance_hz / paper_bvd.series_resonance_hz
    assert ratio - 1.0 == pytest.approx(7.7e-5, rel=1e-2)


def test_admittance_static_limit(paper_bvd):
    # far detuned motional branch leaves the static capacitor
    tiny = BvdParams(C0=paper_bvd.C0, Cm=1e-30, Lm=paper_bvd.Lm)
    f = 100e6
    y = bvd_admittance(tiny, f)
    assert y == pytest.approx(1j * angular(f) * tiny.C0, rel=1e-9)


def test_admittance_sign_structure(paper_bvd):
    f = np.linspace(90e6, 108e6, 4001)
    im = np.imag(bvd_admittance(paper_bvd, f))
    sign = np.sign(im)
    down = np.nonzero((sign[:-1] > 0) & (sign[1:] < 0))[0]
    up = np.nonzero((sign[:-1] < 0) & (sign[1:] > 0))[0]
    assert len(down) == 1 and len(up) == 1
    f_s, f_p = f[down[0]], f[up[0]]
    assert f_s == pytest.approx(paper_bvd.series_resonance_hz, abs=f[1] - f[0])
    assert f_p == pytest.approx(paper_bvd.parallel_resonance_hz, abs=f[1] - f[0])
    assert f_s < f_p


def test_admittance_pole_sentinel():
    # hunt a float where the lossless series branch cancels exactly
    f = 1.0e8
    omega = angular(f)
    cm = 1e-19
    lm0 = 1.0 / (omega**2 * cm)
    lm = lm0
    for _ in range(64):
        if omega * lm - 1.0 / (omega * cm) == 0.0:
            params = BvdParams(C0=1e-15, Cm=cm, Lm=lm)
            assert abs(bvd_admittance(params, f)) == math.inf
            return
        lm = np.nextafter(lm, math.inf if omega * lm < 1.0 / (omega * cm) else 0.0)
    # no representable exact zero for this parameter point: the pole is
    # still enormous next to the static response
    params = BvdParams(C0=1e-15, Cm=cm, Lm=lm0)
    assert abs(bvd_admittance(params, f)) > 1e3 * omega * params.C0


def test_fit_bvd_noiseless_round_trip(paper_bvd):
    fitted = fit_bvd(synthetic_trace(paper_bvd))
    assert fitted.C0 == pytest.approx(paper_bvd.C0, rel=1e-3)
    assert fitted.Cm == pytest.approx(paper_bvd.Cm, rel=1e-3)
    assert fitted.Lm == pytest.approx(paper_bvd.Lm, rel=1e-3)


def test_fit_bvd_with_multiplicative_noise(paper_bvd):
    fitted = fit_bvd(synthetic_trace(paper_bvd, n=801, noise=1e-3, seed=42))
    assert fitted.C0 == pytest.approx(paper_bvd.C0, rel=5e-3)
    assert fitted.Cm == pytest.approx(paper_bvd.Cm, rel=5e-3)
    assert fitted.Lm == pytest.approx(paper_bvd.Lm, rel=5e-3)


def test_fit_bvd_flat_trace_raises():
    f = np.linspace(90e6, 108e6, 101)
    trace = FrequencyTrace(f, 1j * angular(f) * 1e-15)
    with pytest.raises(ResonanceNotInWindow):
        fit_bvd(trace)


def test_fit_bvd_needs_enough_points(paper_bvd):
    with pytest.raises(ValueError):
        fit_bvd(synthetic_trace(paper_bvd, n=30))


def test_fit_bvd_lossy_round_trip(paper_bvd):
    # motional resistance sized for a mechanical Q near 6.8e5
    lossy = BvdParams(paper_bvd.C0, paper_bvd.Cm, paper_bvd.Lm, Rm=17.2e3)
    f = np.linspace(98.49e6, 98.61e6, 801)
    trace = FrequencyTrace(f, bvd_admittance(lossy, f))
    fitted = fit_bvd(trace, fit_rm=True)
    assert fitted.C0 == pytest.approx(lossy.C0, rel=1e-6)
    assert fitted.Cm == pytest.approx(lossy.Cm, rel=1e-6)
    assert fitted.Lm == pytest.approx(lossy.Lm, rel=1e-6)
    assert fitted.Rm == pytest.approx(lossy.Rm, rel=1e-6)


def test_fit_bvd_lossless_rm_consistent_with_zero(paper_bvd):
    fitted = fit_bvd(synthetic_trace(paper_bvd), fit_rm=True)
    scale = fitted.Lm * angular(fitted.series_resonance_hz)
    assert fitted.Rm < 1e-3 * scale / 1e5  # tiny next to any plausible Q
    assert fitted.Cm == pytest.approx(paper_bvd.Cm, rel=1e-3)


@pytest.mark.parametrize("fit_rm", [False, True])
@pytest.mark.parametrize("s", [7.3, 1e-3, 2.5e4])
def test_fit_bvd_amplitude_rescaling_covariance(paper_bvd, s, fit_rm):
    # Y -> s Y is the same circuit with C0, Cm (and 1/Lm, 1/Rm) times s
    if fit_rm:
        lossy = BvdParams(paper_bvd.C0, paper_bvd.Cm, paper_bvd.Lm, Rm=17.2e3)
        f = np.linspace(98.49e6, 98.61e6, 801)
        rng = np.random.default_rng(1)
        trace = FrequencyTrace(f, bvd_admittance(lossy, f) * (1.0 + 1e-3 * rng.standard_normal(801)))
    else:
        trace = synthetic_trace(paper_bvd, n=801, noise=1e-3, seed=42)
    fit = fit_bvd(trace, fit_rm=fit_rm)
    scaled = fit_bvd(FrequencyTrace(trace.frequencies, s * trace.response), fit_rm=fit_rm)
    assert scaled.C0 == pytest.approx(s * fit.C0, rel=1e-9)
    assert scaled.Cm == pytest.approx(s * fit.Cm, rel=1e-9)
    assert scaled.Lm == pytest.approx(fit.Lm / s, rel=1e-9)
    assert scaled.Rm == pytest.approx(fit.Rm / s, rel=1e-9)


def test_coupling_rate_fluxonium(paper_bvd, fluxonium_shunt):
    g = coupling_rate_gsm(paper_bvd, fluxonium_shunt)
    assert 100e3 < g < 110e3
    assert g == pytest.approx(104.9e3, rel=1e-3)


def test_coupling_rate_snail(paper_bvd, snail_shunt):
    assert snail_shunt.f_r == pytest.approx(1.1397e9, rel=1e-4)
    g = coupling_rate_gsm(paper_bvd, snail_shunt)
    assert 114e3 < g < 126e3
    assert g == pytest.approx(121.9e3, rel=1e-3)


def test_coupling_rate_zero_motional_capacitance(fluxonium_shunt):
    params = BvdParams(C0=1e-15, Cm=1e-40, Lm=1.0)
    g = coupling_rate_gsm(params, fluxonium_shunt, f_m_hz=1e8)
    assert g == pytest.approx(0.0, abs=1e-3)


def test_coupling_rate_monotonicity(paper_bvd, snail_shunt):
    base = coupling_rate_gsm(paper_bvd, snail_shunt)
    more_cm = BvdParams(paper_bvd.C0, paper_bvd.Cm * 2, paper_bvd.Lm)
    assert coupling_rate_gsm(more_cm, snail_shunt, paper_bvd.series_resonance_hz) > base
    higher_f = ShuntCircuit(Cr=snail_shunt.Cr, f_r=snail_shunt.f_r * 1.5)
    assert coupling_rate_gsm(paper_bvd, higher_f) > base
    assert coupling_rate_gsm(paper_bvd, snail_shunt, f_m_hz=2e8) > base


def test_coupling_validity_warning(paper_bvd):
    small = ShuntCircuit(Cr=5e-15, f_r=1e8)
    big_mode = BvdParams(C0=1e-15, Cm=1e-18, Lm=1.0)
    with pytest.warns(UserWarning):
        coupling_rate_gsm(big_mode, small, f_m_hz=1e8)


def test_gij_zero_and_symmetry():
    assert coupling_rate_gij(1e-13, 1e-13, 0.0, 1e9, 1e8) == 0.0
    a = coupling_rate_gij(2e-13, 5e-13, 3e-14, 1.3e9, 0.9e8)
    b = coupling_rate_gij(5e-13, 2e-13, 3e-14, 0.9e8, 1.3e9)
    assert a == pytest.approx(b, rel=1e-12)


def test_gij_algebraic_point():
    c, f = 1e-13, 2e8
    assert coupling_rate_gij(c, c, c, f, f) == pytest.approx(f / 4.0, rel=1e-12)


def test_lc_mapping_reproduces_shunt_coupling(paper_bvd, snail_shunt):
    cj, cij, lj = motional_lc_equivalent(paper_bvd)
    via_map = coupling_rate_gij(
        snail_shunt.Cr, cj, cij, snail_shunt.f_r, paper_bvd.series_resonance_hz
    )
    direct = coupling_rate_gsm(paper_bvd, snail_shunt)
    assert via_map == pytest.approx(direct, rel=1e-2)
    # the mapped network preserves both port frequencies: its zero is the
    # series resonance, its pole the antiresonance
    f_zero = 1.0 / (2 * math.pi * math.sqrt(lj * (cj + cij)))
    f_pole = 1.0 / (2 * math.pi * math.sqrt(lj * cj))
    assert f_zero == pytest.approx(paper_bvd.series_resonance_hz, rel=1e-12)
    assert f_pole == pytest.approx(paper_bvd.parallel_resonance_hz, rel=1e-12)


def test_scale_defects_identity(paper_bvd):
    assert scale_defects(paper_bvd, DefectArraySpec(1)) == paper_bvd


def test_scale_defects_preserves_mode_frequency(paper_bvd):
    scaled = scale_defects(paper_bvd, DefectArraySpec(10))
    assert scaled.series_resonance_hz == pytest.approx(
        paper_bvd.series_resonance_hz, rel=1e-12
    )
    assert scaled.Cm == pytest.approx(10 * paper_bvd.Cm)
    assert scaled.C0 == pytest.approx(10 * paper_bvd.C0)


def test_scale_defects_ten_cell_coupling(paper_bvd, fluxonium_shunt):
    g1 = coupling_rate_gsm(paper_bvd, fluxonium_shunt)
    scaled = scale_defects(paper_bvd, DefectArraySpec(10))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g10 = coupling_rate_gsm(scaled, fluxonium_shunt, paper_bvd.series_resonance_hz)
    estimate = math.sqrt(10) * g1  # ~329 kHz, ignores the C0 growth
    simulated = 290e3  # full-geometry reference value for ten defects
    assert estimate == pytest.approx(simulated, rel=0.15)
    assert estimate > simulated
    assert g10 == pytest.approx(simulated, rel=0.05)


def test_admittance_csv_round_trip(paper_bvd, tmp_path):
    trace = synthetic_trace(paper_bvd, n=60)
    path = tmp_path / "trace.csv"
    save_admittance_csv(path, trace)
    loaded = load_admittance_csv(path)
    assert np.allclose(loaded.frequencies, trace.frequencies)
    assert np.allclose(loaded.response, trace.response)


def test_admittance_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("freq,re,im\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError):
        load_admittance_csv(path)


def test_shunt_circuit_consistency_check():
    with pytest.raises(ValueError):
        ShuntCircuit(Cr=0.26e-12, Lr=75e-9, f_r=1.0e9)
    with pytest.raises(ValueError):
        ShuntCircuit(Cr=1e-13)
