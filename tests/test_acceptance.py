"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` or
``-v`` to see them) and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from qmem import analysis, duffing, dynamics, losses, phonon_chain, photoelastic
from qmem.core import FrequencyTrace, TimeTrace, angular
from qmem.electromech import (
    BvdParams,
    ShuntCircuit,
    bvd_admittance,
    coupling_rate_gsm,
    fit_bvd,
)

PAPER_BVD = BvdParams(C0=8.96e-16, Cm=1.38e-19, Lm=18.9)


def _criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}  {description}  {detail}")
    assert ok, f"criterion {number} failed: {description} ({detail})"


def test_criterion_01_fluxonium_coupling():
    shunt = ShuntCircuit(Cr=30e-15, f_r=100e6)
    g = coupling_rate_gsm(PAPER_BVD, shunt)
    _criterion(1, "fluxonium coupling in [100, 110] kHz",
               100e3 <= g <= 110e3, f"g = {g / 1e3:.2f} kHz")


def test_criterion_02_snail_coupling():
    shunt = ShuntCircuit(Cr=0.26e-12, Lr=75e-9)
    g = coupling_rate_gsm(PAPER_BVD, shunt)
    ok = 1.12e9 <= shunt.f_r <= 1.15e9 and 114e3 <= g <= 126e3
    _criterion(2, "mixer frequency and coupling windows", ok,
               f"f_r = {shunt.f_r / 1e9:.4f} GHz, g_sm = {g / 1e3:.2f} kHz")


def _paper_chain():
    shunt = ShuntCircuit(Cr=0.26e-12, Lr=75e-9)
    f_m = PAPER_BVD.series_resonance_hz
    g_sm = coupling_rate_gsm(PAPER_BVD, shunt)
    f_q = 5.0e9
    system = dynamics.TriModeSystem(
        qubit=dynamics.ModeParams(f_q, anharmonicity=200e6),
        snail=dynamics.ModeParams(shunt.f_r, decay_rate=1e7),
        mech=dynamics.ModeParams(f_m),
        g_qs=0.1 * (f_q - shunt.f_r),
        g_sm=g_sm,
        g3=100e6,
    )
    drive = dynamics.DriveSpec(frequency=f_q - f_m, n_photons=10.0)
    return system, drive


def test_criterion_03_effective_coupling_chain():
    system, drive = _paper_chain()
    eff = dynamics.effective_coupling(system, drive)
    t_iswap = 1.0 / (2.0 * eff.g_eff)
    ok = 18e3 <= eff.g_eff <= 24e3 and 20e-6 <= t_iswap <= 28e-6
    _criterion(3, "effective coupling and swap time windows", ok,
               f"g_eff = {eff.g_eff / 1e3:.2f} kHz, T_iswap = {t_iswap * 1e6:.2f} us")


def test_criterion_04_hybridized_decay():
    lifetime = 1.0 / dynamics.hybridized_decay(0.0, 1e-4, 1e7)
    _criterion(4, "mixer-limited lifetime 10 s within 1%",
               abs(lifetime - 10.0) <= 0.1, f"lifetime = {lifetime:.4f} s")


def test_criterion_05_dressing_accuracy():
    worst = 0.0
    for lam in (1e-4, 1e-3, 1e-2):
        system = dynamics.TriModeSystem(
            dynamics.ModeParams(5e9), dynamics.ModeParams(1.13e9),
            dynamics.ModeParams(97.2e6),
            g_qs=lam * (5e9 - 1.13e9), g_sm=lam * (1.13e9 - 97.2e6), g3=0.0,
        )
        dressed = dynamics.dress(system)
        exact = dynamics.exact_normal_modes(system)
        approx = np.sort([dressed.f_qubit, dressed.f_snail, dressed.f_mech])[::-1]
        error = float(np.max(np.abs(approx - exact) / exact))
        worst = max(worst, error / (10.0 * lam**2))
    _criterion(5, "dressed frequencies within 10*lambda^2 of exact",
               worst < 1.0, f"worst error/bound = {worst:.2e}")


def test_criterion_06_iswap_dynamics():
    system, drive = _paper_chain()
    start = time.monotonic()
    result = dynamics.iswap(system, drive, d_m=5, dissipation=False)
    elapsed = time.monotonic() - start
    prediction = 1.0 / (4.0 * result.g_eff_hz)
    timing_error = abs(result.transfer_time - prediction) / prediction
    ok = (
        result.populations["g1"] > 0.999
        and timing_error < 1e-3
        and elapsed < 10.0
    )
    _criterion(6, "lossless swap: >0.999 transfer at the Rabi time", ok,
               f"P(g1) = {result.populations['g1']:.6f}, "
               f"timing error = {timing_error:.2e}, runtime = {elapsed:.2f} s")


def test_criterion_07_bvd_round_trip():
    f = np.linspace(90e6, 108e6, 201)
    trace = FrequencyTrace(f, bvd_admittance(PAPER_BVD, f))
    fitted = fit_bvd(trace)
    errors = [
        abs(fitted.C0 / PAPER_BVD.C0 - 1.0),
        abs(fitted.Cm / PAPER_BVD.Cm - 1.0),
        abs(fitted.Lm / PAPER_BVD.Lm - 1.0),
    ]
    f_s = PAPER_BVD.series_resonance_hz
    ok = max(errors) < 1e-3 and abs(f_s - 98.5e6) <= 0.2e6
    _criterion(7, "BVD fit round trip to 0.1% and f_s = 98.5 +- 0.2 MHz", ok,
               f"worst parameter error = {max(errors):.2e}, f_s = {f_s / 1e6:.3f} MHz")


def test_criterion_08_photoelastic():
    config = photoelastic.OpticalConfig(plate_thickness=3.5e-6)
    k0 = 2.0 * math.pi / config.wavelength
    tensor = photoelastic.PhotoelasticTensor.quartz_default()
    s0 = 0.1 / (k0 * config.plate_thickness * config.n_o**3 * tensor.p12)
    mode = photoelastic.StandingWaveMode(
        defect_width=25e-6, amplitude=s0 * 25e-6 / math.pi, frequency=97.2e6
    )
    result = photoelastic.detected_power(config, mode, 0.0)
    omega_t = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
    intensity = 0.5 * (
        config.c1**2 + config.c2**2
        + 2 * config.c1 * config.c2
        * np.cos(result.delta0 - result.modulation_depth * np.sin(omega_t))
    )
    oracle = 2.0 * np.mean(intensity * np.sin(omega_t))
    bessel_error = abs(result.single_sided_amplitude - oracle) / abs(oracle)
    contrast = photoelastic.polarization_contrast(tensor)
    ok = bessel_error < 1e-4 and abs(contrast - 4.55) <= 0.01 and abs(contrast - 4.7) < 0.3
    _criterion(8, "Bessel beat matches FFT oracle; contrast 4.55 dB", ok,
               f"oracle error = {bessel_error:.2e}, contrast = {contrast:.3f} dB")


def test_criterion_09_zener_peak_and_loss_stack_fit():
    f_m = 97.2e6
    channel = losses.ZenerChannel(
        delta=1e-4, tau0=math.exp(-150.0 / 40.0) / angular(f_m), activation_temp=150.0
    )
    peak = losses.zener_q_inverse(channel, f_m, 40.0)
    peak_ok = abs(peak - 5e-5) <= 1e-10 * 5e-5

    # synthetic dataset shaped like the measured Q(T): relaxation peak near
    # 40 K, T^4 wall below 30 K, constant floor fixing Q(8 K) = 6.8e5
    floor = losses.ConstantChannel(q_value=1.2e6)
    zener = losses.ZenerChannel(delta=4e-5, tau0=channel.tau0, activation_temp=150.0)
    b = (1.0 / 6.8e5 - 1.0 / floor.q_value
         - zener.q_inverse(f_m, 8.0)) / 8.0**4
    truth = losses.LossStack((zener, losses.PowerLawChannel(b, 4.0), floor))
    temps = np.geomspace(4.0, 300.0, 40)
    rng = np.random.default_rng(17)
    q = np.array([losses.total_q(truth, f_m, t) for t in temps])
    q *= 1.0 + 0.01 * rng.standard_normal(len(temps))
    data = losses.QvsTDataset(temps, q, 0.01 * q)
    template = losses.LossStack((
        losses.ZenerChannel(delta=2e-5, tau0=2.0 * channel.tau0, activation_temp=120.0),
        losses.PowerLawChannel(coefficient=5.0 * b, exponent=3.5),
        losses.ConstantChannel(q_value=8e5),
    ))
    fit = losses.fit_loss_stack(data, f_m, template)
    plateau = losses.total_q(fit.stack, f_m, 8.0)
    exponent = fit.stack.channels[1].exponent
    fit_ok = abs(plateau / 6.8e5 - 1.0) <= 0.05 and 3.8 <= exponent <= 4.2
    _criterion(9, "Zener peak exact and loss-stack fit recovers plateau/T^4",
               peak_ok and fit_ok,
               f"peak = {peak:.6e}, Q(8 K) = {plateau:.4g}, n = {exponent:.3f}")


def test_criterion_10_ringdown_q_consistency(data_dir):
    tau, f_m = 1.023e-3, 97.2e6
    q = angular(f_m) * tau
    window_ok = 6.2e5 <= q <= 6.3e5
    trace = analysis.load_time_trace_csv(data_dir / "ringdown_1023us.csv")
    fitted = analysis.fit_ringdown(trace)
    fit_ok = abs(fitted.tau / tau - 1.0) <= 0.01
    _criterion(10, "tau <-> Q consistency and 1%-noise ringdown recovery",
               window_ok and fit_ok,
               f"Q = omega*tau = {q:.4g}, fitted tau = {fitted.tau * 1e3:.4f} ms")


def test_criterion_11_duffing():
    f0, q_factor, beta = 97.2e6, 1e4, 2e21
    probe = duffing.DuffingParams(f0=f0, Q=q_factor, beta=beta, drive=1.0)

    # critical drive from the discriminant oracle
    def bistable(force):
        trial = duffing.DuffingParams(f0=f0, Q=q_factor, beta=beta, drive=force)
        a_lin = force * q_factor / f0**2
        pull = 0.75 * beta * a_lin**2 / f0
        window = np.linspace(f0 * (1 - 50 / q_factor),
                             f0 + 2 * pull + 300 * f0 / q_factor, 2001)
        return any(len(duffing.steady_state_amplitudes(trial, f)) == 3 for f in window)

    lo, hi = 1e6, 1e12
    for _ in range(25):
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if bistable(mid) else (mid, hi)
    critical = hi
    hysteresis_ok = bistable(1.5 * critical) and not bistable(0.7 * critical)

    levels = [critical * s for s in (2.0, 3.0, 4.0, 5.0, 6.0)]
    backbone_fit = duffing.fit_backbone(duffing.backbone(probe, levels))
    backbone_ok = 1.9 <= backbone_fit.n <= 2.1

    amps = np.geomspace(5e-3, 5e-2, 12)
    points = [(a, 97.2e6 + 5.12e8 * a**2.17) for a in amps]
    published = duffing.fit_backbone(points)
    published_ok = (
        abs(published.f0 / 97.2e6 - 1.0) <= 0.01
        and abs(published.A / 5.12e8 - 1.0) <= 0.01
        and abs(published.n / 2.17 - 1.0) <= 0.01
    )
    _criterion(11, "Duffing backbone, published fit, hysteresis threshold",
               backbone_ok and published_ok and hysteresis_ok,
               f"simulator n = {backbone_fit.n:.3f}, "
               f"published fit n = {published.n:.4f}")


def test_criterion_12_phonon_chain_properties():
    # uniform chain shows no gap
    seg = phonon_chain.Segment(14.375e-6, phonon_chain.SOUND_SPEED,
                               phonon_chain.BASE_IMPEDANCE)
    uniform_ok = phonon_chain.find_band_gaps(
        phonon_chain.UnitCell((seg, seg)), 50e6, 150e6, 0.1e6) == []

    # calibrated cell: ~20% gap around 100 MHz
    gap = phonon_chain.find_band_gaps(
        phonon_chain.reference_mirror_cell(), 50e6, 150e6, 0.1e6)[0]
    width = (gap.f_high - gap.f_low) / gap.center
    gap_ok = abs(width - 0.20) < 0.02 and abs(gap.center - 100e6) < 2e6

    # radiative-Q scaling on the strong-shielding chain
    strong_gap = phonon_chain.find_band_gaps(
        phonon_chain.strong_mirror_cell(), 50e6, 160e6, 0.1e6)[0]
    counts = np.arange(2, 7)
    qs = np.array([
        phonon_chain.find_defect_mode(phonon_chain.strong_chain(int(n)), strong_gap).radiative_q
        for n in counts
    ])
    slope, intercept = np.polyfit(counts, np.log(qs), 1)
    residual = np.log(qs) - (slope * counts + intercept)
    r_squared = 1.0 - residual @ residual / np.sum(
        (np.log(qs) - np.log(qs).mean()) ** 2)
    ratio = qs[3] / qs[1]  # five versus three mirror cells
    scaling_ok = r_squared > 0.99 and ratio > 10.0

    # mode-profile decay against the Bloch constant
    chain = phonon_chain.strong_chain(5)
    mode = phonon_chain.find_defect_mode(chain, strong_gap)
    profile = phonon_chain.mode_profile(chain, mode)
    amplitudes = np.array([a for _, a in profile])
    center = chain.mirror_cells_per_side
    expected = math.exp(
        -phonon_chain.bloch_decay_per_cell(chain.mirror_cell, mode.frequency))
    mirror = amplitudes[center + 1:]
    ratios = mirror[1:] / mirror[:-1]
    profile_ok = bool(np.all(np.abs(ratios - expected) / expected < 0.20))

    ok = uniform_ok and gap_ok and scaling_ok and profile_ok
    _criterion(12, "chain: gap calibration, Q scaling, Bloch profile", ok,
               f"gap = [{gap.f_low / 1e6:.1f}, {gap.f_high / 1e6:.1f}] MHz, "
               f"R^2 = {r_squared:.5f}, Q5/Q3 = {ratio:.1f}")


def test_criterion_13_lindblad_integrity():
    rng = np.random.default_rng(99)
    start = time.monotonic()
    worst_trace = worst_herm = 0.0
    worst_eig = 0.0
    for _ in range(100):
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        size = dims[0] * dims[1]
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        h = 1e5 * (a + a.conj().T) / 2.0
        psi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        rho0 = dynamics.DensityMatrix.from_state_vector(dims, psi)
        decay = rng.uniform(0.0, 1e5, size=2)
        dephase = rng.uniform(0.0, 1e5, size=2)
        scale = max(np.linalg.norm(h, 2), decay.max(), dephase.max())
        result = dynamics.evolve(rho0, h, decay, duration=2.0 / scale,
                                 dephasing_rates=dephase, n_records=4)
        for snapshot in result.snapshots:
            worst_herm = max(worst_herm, float(np.max(np.abs(snapshot - snapshot.conj().T))))
            worst_trace = max(worst_trace, abs(float(np.trace(snapshot).real) - 1.0))
            worst_eig = min(worst_eig, float(np.min(np.linalg.eigvalsh(snapshot))))
    elapsed = time.monotonic() - start
    ok = worst_herm < 1e-10 and worst_trace < 1e-9 and worst_eig > -1e-9 and elapsed < 60.0
    _criterion(13, "Lindblad trace/hermiticity/positivity on 100 random systems",
               ok, f"worst trace drift = {worst_trace:.1e}, "
                   f"min eigenvalue = {worst_eig:.1e}, runtime = {elapsed:.1f} s")
