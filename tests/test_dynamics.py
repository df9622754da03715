import cmath
import functools
import math
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from qmem import dynamics
from qmem.dynamics import (
    DensityMatrix,
    DriveSpec,
    ModeParams,
    TriModeSystem,
    build_rwa_hamiltonian,
    dress,
    effective_coupling,
    effective_eta,
    evolve,
    exact_normal_modes,
    hybridized_decay,
    iswap,
)
from qmem.errors import DegenerateModes, DriveOffDifferenceFrequency, DriveOnResonance

F_Q, F_S, F_M = 5.0e9, 1.1397322202500575e9, 98.54842467642602e6
G_SM = 121.87145005878624e3


def paper_system(gamma_q=0.0, gamma_s=1e7, gamma_m=0.0, dephasing_q=0.0):
    return TriModeSystem(
        qubit=ModeParams(F_Q, decay_rate=gamma_q, anharmonicity=200e6,
                         dephasing_rate=dephasing_q),
        snail=ModeParams(F_S, decay_rate=gamma_s),
        mech=ModeParams(F_M, decay_rate=gamma_m),
        g_qs=0.1 * (F_Q - F_S),
        g_sm=G_SM,
        g3=100e6,
    )


def paper_drive(n_s=10.0, duration=0.0):
    return DriveSpec(frequency=F_Q - F_M, n_photons=n_s, duration=duration)


def test_dress_identity_without_coupling():
    sys = TriModeSystem(ModeParams(F_Q), ModeParams(F_S), ModeParams(F_M),
                        g_qs=0.0, g_sm=0.0, g3=0.0)
    d = dress(sys)
    assert (d.f_qubit, d.f_snail, d.f_mech) == (F_Q, F_S, F_M)
    assert d.lambda_qs == 0.0 and d.lambda_sm == 0.0


def test_dressing_parameter_matches_published_scale():
    sys = TriModeSystem(ModeParams(F_Q), ModeParams(1.13e9), ModeParams(97.2e6),
                        g_qs=0.0, g_sm=120e3, g3=100e6)
    d = dress(sys)
    assert d.lambda_sm == pytest.approx(120e3 / (1.13e9 - 97.2e6), rel=1e-12)
    assert d.lambda_sm == pytest.approx(1.16e-4, rel=1e-2)


@pytest.mark.parametrize("lam", [1e-4, 1e-3, 1e-2])
def test_dress_matches_exact_normal_modes(lam):
    sys = TriModeSystem(
        ModeParams(5e9), ModeParams(1.13e9), ModeParams(97.2e6),
        g_qs=lam * (5e9 - 1.13e9), g_sm=lam * (1.13e9 - 97.2e6), g3=0.0,
    )
    d = dress(sys)
    exact = exact_normal_modes(sys)
    approx = np.sort([d.f_qubit, d.f_snail, d.f_mech])[::-1]
    assert np.max(np.abs(approx - exact) / exact) < 10.0 * lam**2


def test_dress_rejects_small_detuning():
    with pytest.warns(UserWarning):
        sys = TriModeSystem(ModeParams(1.0e9), ModeParams(0.999e9), ModeParams(1e8),
                            g_qs=1e6, g_sm=0.0, g3=0.0)
    with pytest.raises(DegenerateModes):
        dress(sys)


def test_exact_normal_modes_zero_coupling():
    sys = TriModeSystem(ModeParams(F_Q), ModeParams(F_S), ModeParams(F_M),
                        g_qs=0.0, g_sm=0.0, g3=0.0)
    assert np.allclose(exact_normal_modes(sys), [F_Q, F_S, F_M])


def test_exact_normal_modes_degenerate_splitting():
    g = 1e6
    with pytest.warns(UserWarning):
        sys = TriModeSystem(ModeParams(1e9), ModeParams(1e9), ModeParams(1e8),
                            g_qs=g, g_sm=0.0, g3=0.0)
    modes = exact_normal_modes(sys)
    assert modes[0] == pytest.approx(1e9 + g, rel=1e-12)
    assert modes[1] == pytest.approx(1e9 - g, rel=1e-12)


def test_hybridized_decay_published_point():
    gamma = hybridized_decay(0.0, 1e-4, 1e7)
    assert gamma == pytest.approx(0.1, rel=1e-12)
    assert 1.0 / gamma == pytest.approx(10.0, rel=1e-12)


def test_hybridized_decay_identity_and_monotonicity():
    assert hybridized_decay(2.5, 0.0, 1e7) == 2.5
    base = hybridized_decay(1.0, 1e-4, 1e7)
    assert hybridized_decay(2.0, 1e-4, 1e7) > base
    assert hybridized_decay(1.0, 2e-4, 1e7) > base
    assert hybridized_decay(1.0, 1e-4, 2e7) > base


def test_effective_eta_photon_number():
    eta = effective_eta(paper_drive(n_s=10.0), F_S)
    assert abs(eta) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert abs(eta) == pytest.approx(3.162, rel=1e-3)


def test_effective_eta_amplitude_path():
    drive = DriveSpec(frequency=1e9, amplitude=1e6, phase=0.3)
    eta = effective_eta(drive, 2e9)
    expected = 2.0 * 1e9 * 1e6 / (4e18 - 1e18)
    assert abs(eta) == pytest.approx(expected, rel=1e-12)
    assert math.copysign(1, eta.real) > 0
    assert eta.imag == pytest.approx(abs(eta) * math.sin(0.3), rel=1e-9)
    assert abs(effective_eta(DriveSpec(frequency=1e3, amplitude=1e6), 2e9)) < 1e-3
    assert effective_eta(DriveSpec(frequency=1e9, amplitude=0.0), 2e9) == 0.0


def test_effective_eta_rejects_resonant_drive():
    with pytest.raises(DriveOnResonance):
        effective_eta(DriveSpec(frequency=2e9 * (1 + 1e-9), n_photons=1.0), 2e9)


def test_effective_coupling_published_chain():
    eff = effective_coupling(paper_system(), paper_drive())
    assert 18e3 < eff.g_eff < 24e3
    assert eff.g_eff == pytest.approx(22.2e3, rel=1e-2)
    assert eff.cross_kerr == pytest.approx(-2.0 * 200e6 * 0.1**2, rel=1e-9)


def test_effective_coupling_zero_factors():
    sys = TriModeSystem(ModeParams(F_Q), ModeParams(F_S), ModeParams(F_M),
                        g_qs=0.0, g_sm=G_SM, g3=100e6)
    eff = effective_coupling(sys, paper_drive())
    assert eff.g_eff == 0.0
    eff = effective_coupling(paper_system(), paper_drive(n_s=0.0))
    assert eff.g_eff == 0.0


def test_effective_coupling_bilinear_scaling():
    base = effective_coupling(paper_system(), paper_drive(n_s=10.0)).g_eff
    quadrupled = effective_coupling(paper_system(), paper_drive(n_s=40.0)).g_eff
    assert quadrupled == pytest.approx(2.0 * base, rel=1e-9)
    doubled_g3 = TriModeSystem(
        ModeParams(F_Q, anharmonicity=200e6), ModeParams(F_S), ModeParams(F_M),
        g_qs=0.1 * (F_Q - F_S), g_sm=G_SM, g3=200e6,
    )
    assert effective_coupling(doubled_g3, paper_drive()).g_eff == pytest.approx(
        2.0 * base, rel=1e-9
    )


def test_effective_coupling_rejects_detuned_drive():
    drive = DriveSpec(frequency=(F_Q - F_M) + 1e6, n_photons=10.0)
    with pytest.raises(DriveOffDifferenceFrequency):
        effective_coupling(paper_system(), drive)


def test_rwa_hamiltonian_zero_coupling_is_diagonal():
    eff = effective_coupling(paper_system(), paper_drive(n_s=0.0))
    h = build_rwa_hamiltonian(eff, (2, 3))
    assert np.allclose(h, np.diag(np.diag(h)))


def test_rwa_hamiltonian_two_state_block():
    from dataclasses import replace

    eff = effective_coupling(paper_system(), paper_drive())
    eff = replace(eff, drive_phase=math.pi)
    h = build_rwa_hamiltonian(eff, (2, 2))
    # basis ordering |q, m>: index 2 is |e,0>, index 1 is |g,1>
    g = eff.g_eff
    block = np.array([[h[2, 2], h[2, 1]], [h[1, 2], h[1, 1]]])
    phase = np.exp(1j * eff.drive_phase)
    expected = np.array([[0.0, g * phase], [g * np.conj(phase), 0.0]])
    assert np.allclose(block, expected, atol=1e-9 * g)
    assert abs(h[2, 1]) == pytest.approx(g, rel=1e-12)


def test_rwa_hamiltonian_hermitian():
    eff = effective_coupling(paper_system(), paper_drive())
    for dims in ((2, 5), (3, 4), (2, 3, 2)):
        h = build_rwa_hamiltonian(eff, dims)
        assert np.linalg.norm(h - h.conj().T) < 1e-12 * np.linalg.norm(h)


def kron_rwa_hamiltonian(eff, dims):
    """H from Kronecker products of single-mode operators: the ladder
    diag(sqrt(1, ..., d - 1), 1), its products, and the number operator
    diag(0, ..., d - 1)."""
    ladder = [np.diag(np.sqrt(np.arange(1, d)), 1) for d in dims]
    eye = [np.eye(d) for d in dims]
    exchange = eff.g_eff * cmath.exp(-1j * eff.drive_phase) * functools.reduce(
        np.kron, [ladder[0], ladder[1].T] + eye[2:])
    q = ladder[0]
    h = exchange + exchange.conj().T
    h = h + 0.5 * eff.qubit_self_kerr * functools.reduce(np.kron, [q.T @ q.T @ q @ q] + eye[1:])
    if len(dims) == 3:
        number = [np.diag(np.arange(d, dtype=float)) for d in dims]
        h = h + eff.cross_kerr * functools.reduce(np.kron, [number[0], eye[1], number[2]])
    return h


def assert_within_one_ulp(got, expected):
    for part in (np.real, np.imag):
        assert np.all(np.abs(part(got) - part(expected)) <= np.spacing(np.abs(part(expected))))


@pytest.mark.parametrize("phase", [math.pi, 0.7])
def test_rwa_hamiltonian_matches_kron_reference(phase):
    # level-index diagonals against dense products of Kronecker factors
    eff = replace(effective_coupling(paper_system(), paper_drive()), drive_phase=phase)
    for d_m in range(2, 101):
        assert_within_one_ulp(build_rwa_hamiltonian(eff, (2, d_m)), kron_rwa_hamiltonian(eff, (2, d_m)))
    for dims in ((3, 2), (3, 7), (2, 3, 2), (3, 2, 2), (3, 4, 3), (3, 6, 5)):
        assert_within_one_ulp(build_rwa_hamiltonian(eff, dims), kron_rwa_hamiltonian(eff, dims))


def test_rwa_hamiltonian_validates_dims():
    eff = effective_coupling(paper_system(), paper_drive())
    with pytest.raises(ValueError):
        build_rwa_hamiltonian(eff, (4, 5))
    with pytest.raises(ValueError):
        build_rwa_hamiltonian(eff, (2, 1))


def test_evolve_pure_decay():
    rho0 = DensityMatrix.basis((2, 2), (0, 1))
    h = np.zeros((4, 4))
    gamma = 1e4
    result = evolve(rho0, h, [0.0, gamma], duration=1.0 / gamma)
    p1 = result.final.population((0, 1))
    assert abs(p1 - math.exp(-1.0)) < 1e-6


def test_evolve_closed_system_conserves_trace_and_purity():
    eff = effective_coupling(paper_system(), paper_drive())
    h = build_rwa_hamiltonian(eff, (2, 3))
    rho0 = DensityMatrix.basis((2, 3), (1, 0))
    duration = 10.0 / (2.0 * eff.g_eff)  # ten exchange periods
    result = evolve(rho0, h, [0.0, 0.0], duration)
    rho = result.final
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-8
    assert abs(rho.purity - 1.0) < 1e-8


@pytest.mark.parametrize("dims", [(2, 2), (2, 5), (2, 24), (2, 3, 4)])
@pytest.mark.parametrize("rank", [1, 2, 5])
def test_purity_matches_trace_of_square(dims, rank):
    rng = np.random.default_rng(rank * 100 + sum(dims))
    size = math.prod(dims)
    g = rng.standard_normal((size, rank)) + 1j * rng.standard_normal((size, rank))
    rho = DensityMatrix(dims, g @ g.conj().T / np.linalg.norm(g) ** 2)
    reference = np.trace(rho.matrix @ rho.matrix).real
    assert rho.purity == pytest.approx(reference, rel=0.0, abs=1e-14)


def test_evolve_rejects_non_hermitian_hamiltonian():
    rho0 = DensityMatrix.basis((2, 2), (1, 0))
    h = np.diag([0.0, 0.0, 1e6, 1e6]).astype(complex)
    h[0, 2] = 1e-3 * 1e6  # no matching h[2, 0]
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve(rho0, h, [0.0, 0.0], duration=1e-6)
    h[2, 0] = h[0, 2] * (1.0 + 1e-13)  # within 1e-10 of the norm
    assert evolve(rho0, h, [0.0, 0.0], duration=1e-6).final.population((1, 0)) < 1.0


def test_evolve_dephasing_rate_convention():
    # coherence of a superposition decays at the pure-dephasing rate
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rho0 = DensityMatrix.from_state_vector((2,), psi)
    gamma_phi = 1e4
    result = evolve(rho0, np.zeros((2, 2)), [0.0], duration=1.0 / gamma_phi,
                    dephasing_rates=[gamma_phi])
    coherence = abs(result.final.matrix[0, 1])
    assert coherence == pytest.approx(0.5 * math.exp(-1.0), rel=1e-6)


def test_population_exchange_frequency():
    eff = effective_coupling(paper_system(), paper_drive())
    h = build_rwa_hamiltonian(eff, (2, 2))
    rho0 = DensityMatrix.basis((2, 2), (1, 0))
    periods = 8
    duration = periods / (2.0 * eff.g_eff)
    n_records = 1024
    result = evolve(rho0, h, [0.0, 0.0], duration, n_records=n_records)
    pop = np.array([
        np.real(s[1, 1]) for s in result.snapshots  # |g,1> index
    ])
    spectrum = np.abs(np.fft.rfft(pop - pop.mean()))
    peak = int(np.argmax(spectrum))
    df = 1.0 / duration
    assert abs(peak * df - 2.0 * eff.g_eff) <= df


def test_iswap_dissipation_free_full_transfer():
    result = iswap(paper_system(), paper_drive(), dissipation=False)
    assert result.populations["g1"] > 0.999
    prediction = 1.0 / (4.0 * result.g_eff_hz)
    assert abs(result.transfer_time - prediction) / prediction < 1e-3
    assert result.t_iswap == pytest.approx(2.0 * prediction, rel=1e-12)
    assert result.swap_fidelity > 0.999


def test_iswap_dissipative_fidelity_matches_perturbative_estimate():
    gamma_q = 1e4
    sys = paper_system(gamma_q=gamma_q)
    result = iswap(sys, paper_drive(), dissipation=True)
    # the excitation spends half the gate in the qubit
    prediction = math.exp(-gamma_q * result.gate_time / 2.0)
    assert result.swap_fidelity == pytest.approx(prediction, rel=0.05)


def test_iswap_fidelity_monotone_in_dissipation():
    fidelities = []
    for gamma_q in (0.0, 5e3, 2e4):
        result = iswap(paper_system(gamma_q=gamma_q), paper_drive())
        fidelities.append(result.swap_fidelity)
    assert fidelities[0] >= fidelities[1] >= fidelities[2]
    fidelities = []
    for gamma_m in (0.0, 1e3, 1e4):
        result = iswap(paper_system(gamma_m=gamma_m), paper_drive())
        fidelities.append(result.swap_fidelity)
    assert fidelities[0] >= fidelities[1] >= fidelities[2]


def test_iswap_zero_coupling_leaves_state_unchanged():
    result = iswap(paper_system(), paper_drive(n_s=0.0))
    assert result.populations["e0"] == pytest.approx(1.0)
    assert result.g_eff_hz == 0.0


@pytest.mark.parametrize("n_s", [10.0, 0.0])
@pytest.mark.parametrize("d_m", [0, 1])
def test_iswap_rejects_fock_cutoff_below_two(d_m, n_s):
    # zero coupling (n_s = 0) returns early, after the same check
    with pytest.raises(ValueError, match="mechanics Fock cutoff must be >= 2"):
        iswap(paper_system(), paper_drive(n_s=n_s), d_m=d_m)


def test_iswap_read_direction():
    # read: qubit starts in |g>, the stored phonon returns to the qubit
    rho0 = DensityMatrix.basis((2, 5), (0, 1))
    result = iswap(paper_system(), paper_drive(), rho0=rho0, dissipation=False)
    assert result.populations["e0"] > 0.999
    assert result.populations["g1"] < 1e-3


def test_iswap_explicit_duration_override():
    eff = effective_coupling(paper_system(), paper_drive())
    half_gate = 0.5 / (4.0 * eff.g_eff)
    drive = DriveSpec(frequency=F_Q - F_M, n_photons=10.0, duration=half_gate)
    result = iswap(paper_system(), drive, dissipation=False)
    assert result.gate_time == half_gate
    # half the pulse leaves the excitation evenly shared
    assert result.populations["g1"] == pytest.approx(0.5, abs=1e-3)


def test_iswap_populations_independent_of_drive_phase():
    base = iswap(paper_system(), paper_drive(), dissipation=False)
    shifted_drive = DriveSpec(frequency=F_Q - F_M, n_photons=10.0, phase=1.2)
    shifted = iswap(paper_system(), shifted_drive, dissipation=False)
    for key in ("g0", "g1", "e0", "e1"):
        assert shifted.populations[key] == pytest.approx(
            base.populations[key], abs=1e-9
        )


def test_snail_stays_unpopulated_when_included():
    eff = effective_coupling(paper_system(), paper_drive())
    dims = (2, 3, 2)
    h = build_rwa_hamiltonian(eff, dims)
    rho0 = DensityMatrix.basis(dims, (1, 0, 0))
    result = evolve(rho0, h, [0.0, 0.0, 0.0], 1.0 / (4 * eff.g_eff))
    diag = np.real(np.diag(result.final.matrix)).reshape(dims)
    snail_population = diag.sum(axis=(0, 1))[1]
    lam_sm = dress(paper_system()).lambda_sm
    assert snail_population <= 10.0 * lam_sm**2


def test_drive_spec_requires_exactly_one_amplitude():
    with pytest.raises(ValueError):
        DriveSpec(frequency=1e9, amplitude=1e6, n_photons=10.0)
    with pytest.raises(ValueError):
        DriveSpec(frequency=1e9)
    with pytest.raises(ValueError):
        DriveSpec(frequency=1e9, n_photons=-1.0)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[0.6, 0.5], [0.2, 0.4]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[0.9, 0.0], [0.0, 0.2]]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative


@pytest.mark.parametrize("rho", [
    pytest.param(np.diag([math.nan, 1.0]), id="nan-population"),
    pytest.param(np.array([[0.5, math.inf], [math.inf, 0.5]]), id="inf-coherence"),
    pytest.param(np.full((2, 2), math.nan), id="all-nan"),
])
def test_density_matrix_rejects_non_finite_entries(rho):
    with pytest.raises(ValueError, match="non-finite entry"):
        DensityMatrix((2,), rho)


def _evolve_e0(rates=(0.0, 0.0), duration=1e-3, dephasing=None):
    return evolve(DensityMatrix.basis((2, 3), (1, 0)), np.zeros((6, 6)), list(rates), duration,
                  dephasing_rates=dephasing)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ModeParams(math.nan), id="mode-frequency-nan"),
    pytest.param(lambda: ModeParams(1e9, decay_rate=math.nan), id="mode-decay-nan"),
    pytest.param(lambda: ModeParams(1e9, dephasing_rate=math.inf), id="mode-dephasing-inf"),
    pytest.param(lambda: ModeParams(1e9, anharmonicity=math.nan), id="mode-anharmonicity-nan"),
    pytest.param(lambda: replace(paper_system(), g_qs=math.nan), id="system-g_qs-nan"),
    pytest.param(lambda: replace(paper_system(), g3=math.nan), id="system-g3-nan"),
    pytest.param(lambda: DriveSpec(frequency=math.nan, n_photons=1.0), id="drive-frequency-nan"),
    pytest.param(lambda: DriveSpec(frequency=1e9, n_photons=math.nan), id="drive-n_photons-nan"),
    pytest.param(lambda: DriveSpec(frequency=1e9, amplitude=math.inf), id="drive-amplitude-inf"),
    pytest.param(lambda: DriveSpec(frequency=1e9, amplitude=1e6, phase=math.nan), id="drive-phase-nan"),
    pytest.param(lambda: DriveSpec(frequency=1e9, n_photons=1.0, duration=math.nan),
                 id="drive-duration-nan"),
    pytest.param(lambda: hybridized_decay(math.nan, 0.01, 1e7), id="hybridized-gamma_m-nan"),
    pytest.param(lambda: hybridized_decay(0.0, 0.01, math.inf), id="hybridized-gamma_s-inf"),
    pytest.param(lambda: effective_eta(paper_drive(), math.nan), id="eta-f_snail-nan"),
    pytest.param(lambda: _evolve_e0(rates=(math.nan, 0.0)), id="evolve-decay-nan"),
    pytest.param(lambda: _evolve_e0(dephasing=(0.0, math.inf)), id="evolve-dephasing-inf"),
    pytest.param(lambda: _evolve_e0(duration=math.nan), id="evolve-duration-nan"),
    pytest.param(lambda: _evolve_e0(duration=math.inf), id="evolve-duration-inf"),
])
def test_non_finite_inputs_are_rejected(build):
    # by the input check, which names the bound, before any computation
    with pytest.raises(ValueError, match="finite|positive|>= 0"):
        build()


@settings(max_examples=200, deadline=None)
@given(
    eigenvalues=st.lists(
        st.one_of(st.floats(-0.2, 1.0), st.sampled_from([0.0, -1e-8, -1e-10, 1e-12])),
        min_size=1, max_size=6,
    ),
    pad=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_positivity_on_the_support_block_matches_full_space(eigenvalues, pad, seed):
    # a Hermitian block with drawn spectrum, scattered among zero rows and
    # columns: DensityMatrix decides positivity as eigvalsh on the full space
    lam = np.array(eigenvalues)
    assume(lam.sum() > 0.1)
    lam /= lam.sum()
    k, rng = lam.size, np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    block = (u * lam) @ u.conj().T
    block = 0.5 * (block + block.conj().T)
    rho = np.zeros((k + pad, k + pad), dtype=complex)
    where = rng.permutation(k + pad)[:k]
    rho[np.ix_(where, where)] = block
    lowest = float(np.min(np.linalg.eigvalsh(rho)))
    assume(abs(lowest + 1e-9) > 1e-14)  # clear of roundoff at the floor
    if lowest < -1e-9:
        with pytest.raises(ValueError, match="eigenvalue below"):
            DensityMatrix((k + pad,), rho)
    else:
        DensityMatrix((k + pad,), rho)


def test_lindblad_integrity_randomized():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        d_q = int(rng.integers(2, 4))
        d_m = int(rng.integers(2, 4))
        dims = (d_q, d_m)
        size = d_q * d_m
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        h = 1e5 * (a + a.conj().T) / 2.0
        psi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        rho0 = DensityMatrix.from_state_vector(dims, psi)
        decay = rng.uniform(0.0, 1e5, size=2)
        dephase = rng.uniform(0.0, 1e5, size=2)
        scale = max(np.linalg.norm(h, 2), decay.max(), dephase.max())
        result = evolve(rho0, h, decay, duration=2.0 / scale,
                        dephasing_rates=dephase, n_records=5)
        for snapshot in result.snapshots:
            assert np.array_equal(snapshot, snapshot.conj().T)
            assert abs(np.trace(snapshot).real - 1.0) < 1e-9
            assert np.min(np.linalg.eigvalsh(snapshot)) > -1e-9


def unit_floats(shape):
    return hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(st.integers(2, 3), st.integers(2, 3)), data=st.data())
def test_lindblad_records_are_states_property(dims, data):
    # criterion 13's bounds on every record, for drawn Hermitian H,
    # decay and dephasing rates and pure states
    size = dims[0] * dims[1]
    a = data.draw(unit_floats((2, size, size)))
    a = a[0] + 1j * a[1]
    h = 1e5 * (a + a.conj().T) / 2.0
    v = data.draw(unit_floats((2, size)))
    psi = v[0] + 1j * v[1]
    assume(np.linalg.norm(psi) > 1e-3)
    rates = data.draw(hnp.arrays(np.float64, 4, elements=st.floats(0.0, 1e5)))
    scale = max(np.linalg.norm(h, 2), rates.max(), 1e3)
    duration = data.draw(st.floats(0.0, 5.0)) / scale
    rho0 = DensityMatrix.from_state_vector(dims, psi)
    result = evolve(rho0, h, rates[:2], duration, dephasing_rates=rates[2:], n_records=4)
    for snapshot in result.snapshots:
        assert np.array_equal(snapshot, snapshot.conj().T)
        assert abs(np.trace(snapshot).real - 1.0) < 1e-9
        assert np.min(np.linalg.eigvalsh(snapshot)) > -1e-9


def full_space_records(rho0, h, jumps, times):
    """States at ``times`` from expm of the unrestricted Liouvillian,
    with column-stacking vec(A X B) = (B^T kron A) vec(X)."""
    size = len(h)
    eye = np.eye(size)
    liouvillian = -2j * math.pi * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, op in jumps:
        n_op = op.conj().T @ op
        liouvillian += rate * (np.kron(op.conj(), op) - 0.5 * np.kron(eye, n_op)
                               - 0.5 * np.kron(n_op.T, eye))
    vec = rho0.reshape(-1, order="F")
    return np.array([(expm(liouvillian * t) @ vec).reshape((size, size), order="F")
                     for t in times])


def kron_lowering(dims, which):
    """Lowering operator of mode ``which`` as the Kronecker product of
    identities with diag(sqrt(1, ..., d - 1), 1) at that mode."""
    factors = [np.eye(d) for d in dims]
    factors[which] = np.diag(np.sqrt(np.arange(1, dims[which])), 1)
    return functools.reduce(np.kron, factors)


@settings(max_examples=100, deadline=None)
@given(dims=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple))
def test_lowering_matches_kron_reference(dims):
    # a full-rank rho0 reaches every level, so the lowering operator of the
    # one decaying mode is built on the whole space
    size = math.prod(dims)
    for which in range(len(dims)):
        decay = [float(k == which) for k in range(len(dims))]
        _, [(_, got)] = dynamics._reached_levels(np.eye(size) / size, np.zeros((size, size)),
                                                 dims, decay, [0.0] * len(dims))
        expected = kron_lowering(dims, which)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def lindblad_terms(h_hz, jumps):
    """The pairs (X, Y) of the Lindbladian's terms X rho Y^T."""
    k = -1j * dynamics.TWO_PI * h_hz - 0.5 * sum(rate * (op.conj().T @ op) for rate, op in jumps)
    eye = np.eye(len(h_hz))
    return [(k, eye), (eye, k.conj())] + [(rate * op, op.conj()) for rate, op in jumps]


def dense_fixed_point_restrict(rho0, h_hz, jumps):
    """``_restrict`` with every term's two pattern products taken densely,
    identity factors included, at each pass of the closure."""
    terms = lindblad_terms(h_hz, jumps)
    pats = [((x != 0).astype(float), (y != 0).T.astype(float)) for x, y in terms]
    reach = (rho0 != 0) | (rho0.T != 0)
    while not np.array_equal(grown := reach | (sum(x @ reach @ y for x, y in pats) > 0), reach):
        reach = grown
    a, b = np.nonzero(reach)
    liouvillian = sum(x[a][:, a] * y[b][:, b] for x, y in terms)
    w = np.where(a < b, 1.0, np.where(a > b, 1j, 0.5))
    la = liouvillian * w + liouvillian[:, np.lexsort((a, b))] * w.conj()
    return a, b, np.where((a <= b)[:, None], la.real, la.imag)


def reached_by_search(rho0, h_hz, jumps):
    """Entries (i, j) reached from the support of rho0 and its transpose,
    by breadth-first search: a term X rho Y^T takes (p, q) to every (i, j)
    with X[i, p] != 0 and Y[j, q] != 0."""
    terms = lindblad_terms(h_hz, jumps)
    support = [(int(i), int(j)) for i, j in zip(*np.nonzero(rho0))]
    seen = set(support) | {(j, i) for i, j in support}
    queue = deque(seen)
    while queue:
        p, q = queue.popleft()
        for x, y in terms:
            for i in np.flatnonzero(x[:, p]).tolist():
                for j in np.flatnonzero(y[:, q]).tolist():
                    if (i, j) not in seen:
                        seen.add((i, j))
                        queue.append((i, j))
    return sorted(seen)


def sparse_entries(size):
    return st.sets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=2 * size)


@settings(max_examples=200, deadline=None)
@given(size=st.integers(1, 8), data=st.data())
def test_closure_matches_breadth_first_search(size, data):
    # sparse Hermitian H, 0-4 jump operators and a Hermitian rho0 on drawn
    # supports; nonzero values from a drawn seed
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def values(entries):
        out = np.zeros((size, size), dtype=complex)
        for i, j in entries:
            out[i, j] = rng.uniform(0.5, 2.0) * np.exp(2j * math.pi * rng.random())
        return out

    def hermitian(entries):
        out = values(entries)
        diagonal = np.diag(np.diag(out))
        return out - diagonal + (out - diagonal).conj().T + np.abs(diagonal)

    h = 1e5 * hermitian(data.draw(sparse_entries(size)))
    rho0 = hermitian(data.draw(sparse_entries(size)))
    n_jumps = data.draw(st.integers(0, 4))
    rates = data.draw(st.lists(st.floats(1e-3, 1e5), min_size=n_jumps, max_size=n_jumps))
    jumps = [(rate, values(data.draw(sparse_entries(size)))) for rate in rates]
    a, b, generator = dynamics._restrict(rho0, h, jumps)
    assert list(zip(a.tolist(), b.tolist())) == reached_by_search(rho0, h, jumps)
    expected = dense_fixed_point_restrict(rho0, h, jumps)
    assert np.array_equal(a, expected[0]) and np.array_equal(b, expected[1])
    assert generator.dtype == expected[2].dtype and np.array_equal(generator, expected[2])


def mixture(dims, *weighted):
    """Density matrix sum_k w_k |psi_k><psi_k| / sum_k w_k from
    {level: amplitude} dicts."""
    rho = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for weight, amplitudes in weighted:
        psi = np.zeros(len(rho), dtype=complex)
        for level, amplitude in amplitudes.items():
            psi[np.ravel_multi_index(level, dims)] = amplitude
        psi /= np.linalg.norm(psi)
        rho += weight * np.outer(psi, psi.conj())
    return DensityMatrix(dims, rho / sum(weight for weight, _ in weighted))


# excitation numbers 0-3, one pure state
MULTI_MANIFOLD = ((1.0, {(0, 0): 0.4, (1, 0): 0.7, (1, 1): 0.3j, (0, 2): 0.3, (1, 2): -0.25}),)
# |e,2> and |g,3> lie outside the closure of |e,0>
OUTSIDE_WRITE = ((0.6, {(1, 0): 1.0}), (0.4, {(1, 2): 1.0, (0, 3): 1.0j}))
# no coherences, every level with m <= 3: the evolution creates only
# coherences within excitation manifolds
DIAGONAL = tuple((2.0 ** -(q + m), {(q, m): 1.0}) for q in (0, 1) for m in range(4))


@pytest.mark.parametrize("d_m", [4, 8])
@pytest.mark.parametrize("weighted", [MULTI_MANIFOLD, OUTSIDE_WRITE, DIAGONAL],
                         ids=["multi", "outside", "diagonal"])
def test_subspace_restriction_matches_full_space(d_m, weighted):
    dims = (2, d_m)
    eff = effective_coupling(paper_system(), paper_drive())
    h = build_rwa_hamiltonian(eff, dims)
    rho0 = mixture(dims, *weighted)
    decay, dephase = [3e4, 1e4], [2e4, 5e3]
    duration = 1.25 / (4.0 * eff.g_eff)
    result = evolve(rho0, h, decay, duration, dephasing_rates=dephase, n_records=7)
    q = kron_lowering(dims, 0)
    m = kron_lowering(dims, 1)
    jumps = [(decay[0], q), (decay[1], m),
             (2.0 * dephase[0], q.T @ q), (2.0 * dephase[1], m.T @ m)]
    expected = full_space_records(rho0.matrix, h, jumps, result.times)
    assert np.max(np.abs(result.snapshots - expected)) < 1e-10
    assert np.max(np.abs(result.final.matrix - expected[-1])) < 1e-10


@pytest.mark.parametrize("d_m", [4, 8, 100])
def test_write_subspace_independent_of_cutoff(d_m):
    dims = (2, d_m)
    eff = effective_coupling(paper_system(), paper_drive())
    h = build_rwa_hamiltonian(eff, dims)
    rho0 = DensityMatrix.basis(dims, (1, 0))
    idx, jumps = dynamics._reached_levels(rho0.matrix, h, dims, [1e4, 1e3], [1e3, 1e2])
    block = np.ix_(idx, idx)
    a, b, _ = dynamics._restrict(rho0.matrix[block], h[block], jumps)
    indices = idx[np.union1d(a, b)]
    expected = sorted(int(np.ravel_multi_index(level, dims)) for level in ((0, 0), (1, 0), (0, 1)))
    assert indices.tolist() == expected


@pytest.mark.parametrize("dissipation", [False, True])
def test_write_gate_independent_of_cutoff(dissipation):
    # |e,0> reaches |g,0>, |e,0> and |g,1> only, so a cutoff of 100 gives
    # the gate of a cutoff of 3
    system = TriModeSystem(
        qubit=ModeParams(F_Q, decay_rate=1e4, anharmonicity=200e6, dephasing_rate=3e3),
        snail=ModeParams(F_S, decay_rate=1e7),
        mech=ModeParams(F_M, decay_rate=2e3, dephasing_rate=1e3),
        g_qs=0.1 * (F_Q - F_S), g_sm=G_SM, g3=100e6,
    )
    small, large = (iswap(system, paper_drive(), d_m=d_m, dissipation=dissipation)
                    for d_m in (3, 100))
    for name in ("pop_e0", "pop_g1", "fidelity"):
        assert np.max(np.abs(getattr(large, name) - getattr(small, name))) < 1e-14
    reached = ((0, 0), (1, 0), (0, 1))
    blocks = []
    for result in (small, large):
        idx = [int(np.ravel_multi_index(level, result.rho_final.dims)) for level in reached]
        rho = result.rho_final.matrix
        assert np.count_nonzero(rho) == np.count_nonzero(rho[np.ix_(idx, idx)])
        blocks.append(rho[np.ix_(idx, idx)])
    assert np.max(np.abs(blocks[1] - blocks[0])) < 1e-14


def test_mixed_state_reaches_only_coherences_within_manifolds():
    # the maximally mixed state on (2, 20) reaches 78 of the 1,600
    # entries of rho; a Liouvillian on all 40 states holds 1,600^2
    # complex entries, 41 MB for each matrix built
    dims = (2, 20)
    eff = effective_coupling(paper_system(), paper_drive())
    h = build_rwa_hamiltonian(eff, dims)
    rho0 = DensityMatrix(dims, np.eye(40) / 40)
    tracemalloc.start()
    try:
        result = evolve(rho0, h, [3e4, 1e4], 1.0 / (4.0 * eff.g_eff), dephasing_rates=[2e4, 5e3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert np.count_nonzero(result.final.matrix) <= 78


@pytest.mark.parametrize("n_records", [0, 1, 2, 1001])
def test_evolve_returns_exactly_n_records(n_records):
    eff = effective_coupling(paper_system(), paper_drive())
    dims = (2, 3)
    h = build_rwa_hamiltonian(eff, dims)
    rho0 = DensityMatrix.basis(dims, (1, 0))
    duration = 0.3 / eff.g_eff
    result = evolve(rho0, h, [1e4, 1e3], duration, n_records=n_records)
    assert result.snapshots.shape == (n_records, 6, 6)
    np.testing.assert_array_equal(result.times, np.linspace(0.0, duration, n_records))
    if n_records:
        assert np.array_equal(result.snapshots[0], rho0.matrix)
    # the final state is the state at ``duration`` however many records
    jumps = [(1e4, kron_lowering(dims, 0)), (1e3, kron_lowering(dims, 1))]
    expected = full_space_records(rho0.matrix, h, jumps, [duration])[0]
    assert np.max(np.abs(result.final.matrix - expected)) < 1e-10
    assert result.final.population((1, 0)) < 0.99


@settings(max_examples=40, deadline=None)
@given(d_m=st.integers(2, 5), dissipation=st.booleans(), n_records=st.integers(2, 24),
       rates=hnp.arrays(np.float64, 4, elements=st.floats(0.0, 1e5)), data=st.data())
def test_iswap_matches_full_space_reference(d_m, dissipation, n_records, rates, data):
    # populations, fidelity and the gate-time state of drawn pure states
    # against expm of the unrestricted Liouvillian and the unitary
    dims = (2, d_m)
    v = data.draw(unit_floats((2, 2 * d_m)))
    psi = v[0] + 1j * v[1]
    assume(np.linalg.norm(psi) > 1e-3)
    rho0 = DensityMatrix.from_state_vector(dims, psi)
    gamma_q, dephasing_q, gamma_m, dephasing_m = rates
    system = TriModeSystem(
        qubit=ModeParams(F_Q, decay_rate=gamma_q, anharmonicity=200e6, dephasing_rate=dephasing_q),
        snail=ModeParams(F_S, decay_rate=0.0),
        mech=ModeParams(F_M, decay_rate=gamma_m, dephasing_rate=dephasing_m),
        g_qs=0.1 * (F_Q - F_S), g_sm=G_SM, g3=100e6,
    )
    result = iswap(system, paper_drive(), rho0=rho0, d_m=d_m, dissipation=dissipation,
                   n_records=n_records)
    h = build_rwa_hamiltonian(replace(effective_coupling(system, paper_drive()),
                                      drive_phase=math.pi), dims)
    q = kron_lowering(dims, 0)
    m = kron_lowering(dims, 1)
    jumps = [(gamma_q, q), (gamma_m, m), (2.0 * dephasing_q, q.T @ q),
             (2.0 * dephasing_m, m.T @ m)] if dissipation else []
    states = full_space_records(rho0.matrix, h, jumps, list(result.times) + [result.gate_time])
    e0, g1 = (int(np.ravel_multi_index(level, dims)) for level in ((1, 0), (0, 1)))
    assert np.max(np.abs(result.pop_e0 - states[:-1, e0, e0].real)) < 1e-10
    assert np.max(np.abs(result.pop_g1 - states[:-1, g1, g1].real)) < 1e-10
    psi0 = psi / np.linalg.norm(psi)
    ideal = np.array([expm(-2j * math.pi * h * t) @ psi0 for t in result.times])
    fidelity = np.real(np.einsum("ti,tij,tj->t", ideal.conj(), states[:-1], ideal))
    assert np.max(np.abs(result.fidelity - fidelity)) < 1e-10
    expected = DensityMatrix(dims, states[-1])
    for key, levels in (("g0", (0, 0)), ("g1", (0, 1)), ("e0", (1, 0)), ("e1", (1, 1))):
        assert abs(result.populations[key] - expected.population(levels)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(d_m=st.integers(2, 5), rank=st.integers(1, 3), dissipation=st.booleans(),
       n_records=st.integers(2, 24), data=st.data())
def test_lossless_iswap_of_mixed_states_matches_full_space_reference(d_m, rank, dissipation,
                                                                     n_records, data):
    # rank 1-3 states on drawn supports, without dissipators: dissipation
    # off, or on with every rate 0
    dims = (2, d_m)
    v = data.draw(unit_floats((rank, 2, 2 * d_m)))
    support = data.draw(hnp.arrays(np.bool_, 2 * d_m))
    vectors = (v[:, 0] + 1j * v[:, 1]) * support
    norms = np.linalg.norm(vectors, axis=1)
    assume(np.all(norms > 1e-3))
    vectors /= norms[:, None]
    weights = data.draw(hnp.arrays(np.float64, rank, elements=st.floats(0.1, 1.0)))
    rho0 = DensityMatrix(dims, np.einsum("k,ki,kj->ij", weights / weights.sum(),
                                         vectors, vectors.conj()))
    system = paper_system(gamma_s=0.0)
    result = iswap(system, paper_drive(), rho0=rho0, d_m=d_m, dissipation=dissipation,
                   n_records=n_records)
    h = build_rwa_hamiltonian(replace(effective_coupling(system, paper_drive()),
                                      drive_phase=math.pi), dims)
    states = full_space_records(rho0.matrix, h, [], list(result.times) + [result.gate_time])
    e0, g1 = (int(np.ravel_multi_index(level, dims)) for level in ((1, 0), (0, 1)))
    assert np.max(np.abs(result.pop_e0 - states[:-1, e0, e0].real)) < 1e-10
    assert np.max(np.abs(result.pop_g1 - states[:-1, g1, g1].real)) < 1e-10
    expected = DensityMatrix(dims, states[-1])
    for key, levels in (("g0", (0, 0)), ("g1", (0, 1)), ("e0", (1, 0)), ("e1", (1, 1))):
        assert abs(result.populations[key] - expected.population(levels)) < 1e-10
    assert np.array_equal(result.rho_final.matrix, result.rho_final.matrix.conj().T)
    if rank == 1:
        overlap = np.vdot(vectors[0], rho0.matrix @ vectors[0]).real
        assert np.all(result.fidelity == result.fidelity[0])
        assert abs(result.fidelity[0] - overlap) < 1e-12
        assert result.swap_fidelity == result.fidelity[0]


@pytest.mark.parametrize("dissipation", [False, True])
def test_iswap_of_mixed_state_has_no_fidelity(dissipation):
    # the fidelity compares against the unitary evolution of a pure rho0
    system = TriModeSystem(
        qubit=ModeParams(F_Q, decay_rate=1e4, anharmonicity=200e6, dephasing_rate=3e3),
        snail=ModeParams(F_S, decay_rate=1e7),
        mech=ModeParams(F_M, decay_rate=2e3, dephasing_rate=1e3),
        g_qs=0.1 * (F_Q - F_S), g_sm=G_SM, g3=100e6,
    )
    dims = (2, 5)
    rho0 = DensityMatrix(dims, 0.7 * DensityMatrix.basis(dims, (1, 0)).matrix
                         + 0.3 * DensityMatrix.basis(dims, (0, 0)).matrix)
    result = iswap(system, paper_drive(), rho0=rho0, dissipation=dissipation, n_records=11)
    assert np.isnan(result.fidelity).all() and result.fidelity.shape == (11,)
    assert math.isnan(result.swap_fidelity)
    h = build_rwa_hamiltonian(replace(effective_coupling(system, paper_drive()),
                                      drive_phase=math.pi), dims)
    if dissipation:
        decay = [1e4, hybridized_decay(2e3, dress(system).lambda_sm, 1e7)]
        dephasing = [3e3, 1e3]
    else:
        decay = dephasing = [0.0, 0.0]
    expected = evolve(rho0, h, decay, result.gate_time, dephasing_rates=dephasing).final
    for key, levels in (("g0", (0, 0)), ("g1", (0, 1)), ("e0", (1, 0)), ("e1", (1, 1))):
        assert abs(result.populations[key] - expected.population(levels)) < 1e-12
    if not dissipation:
        # the drive exchanges |e,0> and |g,1> and leaves |g,0> alone
        assert result.populations["g0"] == pytest.approx(0.3, abs=1e-12)


def test_population_takes_a_level_for_every_mode():
    rho = DensityMatrix.basis((2, 3, 4), (1, 2, 3))
    assert rho.population((1, 2, 3)) == 1.0
    assert rho.population((1, 2, 2)) == 0.0
    with pytest.raises(ValueError):
        rho.population((1, 2))


def check_record_grid(n_records, windows=0.0):
    """iswap's record grid and gate-time state with a drive duration of
    ``windows`` default windows 1.25/(4 g_eff), 0 for the default gate time."""
    g_eff = effective_coupling(paper_system(), paper_drive()).g_eff
    drive = paper_drive(duration=windows * 1.25 / (4.0 * g_eff))
    result = iswap(paper_system(gamma_q=1e4), drive, n_records=n_records)
    window = max(result.gate_time, 1.25 / (4.0 * result.g_eff_hz))
    np.testing.assert_allclose(result.times, np.linspace(0.0, window, n_records), rtol=1e-12)
    for series in (result.pop_e0, result.pop_g1, result.fidelity):
        assert series.shape == (n_records,)
    if n_records:
        assert result.pop_e0[0] == 1.0 and result.fidelity[0] == pytest.approx(1.0, abs=1e-12)
    else:
        assert math.isnan(result.transfer_time)
    # the state at the gate time does not depend on the record grid
    reference = iswap(paper_system(gamma_q=1e4), drive, n_records=5)
    assert np.max(np.abs(result.rho_final.matrix - reference.rho_final.matrix)) < 1e-12
    assert result.populations == pytest.approx(reference.populations, abs=1e-12)


@pytest.mark.parametrize("n_records", [0, 2, 11, 37, 1001])
def test_iswap_returns_exactly_n_records(n_records):
    # the default gate time is 0.8 of the window: the grids of 11 and 1001
    # records hold it, those of 2, 5 and 37 do not
    check_record_grid(n_records)


@pytest.mark.parametrize("n_records", [0, 2, 11, 37, 1001])
@pytest.mark.parametrize("windows", [2.0, 0.7777], ids=["past_window", "off_grid"])
def test_iswap_duration_override_on_and_off_the_grid(windows, n_records):
    # a duration past the window is the last record of every grid; 0.7777
    # windows lies on none of them
    check_record_grid(n_records, windows)


def first_maximum_loop(times, values):
    """Scalar reference: the first local maximum, parabola-refined."""
    for i in range(1, len(values) - 1):
        if values[i] >= values[i - 1] and values[i] > values[i + 1]:
            denom = values[i - 1] - 2.0 * values[i] + values[i + 1]
            shift = 0.5 * (values[i - 1] - values[i + 1]) / denom
            return float(times[i] + shift * (times[i + 1] - times[i]))
    return float(times[int(np.argmax(values))])


def test_first_maximum_matches_scalar_reference():
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 1.0, 201)
    cases = [np.sin(2.0 * math.pi * times), np.sin(0.5 * math.pi * times),
             np.cos(2.0 * math.pi * times), np.ones_like(times),
             np.round(rng.uniform(size=times.size), 1)]
    for values in cases:
        assert dynamics._first_maximum(times, values) == first_maximum_loop(times, values)
