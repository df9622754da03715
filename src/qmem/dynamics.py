"""Qubit-mixer-mechanics dynamics: dressing, parametric coupling, gates.

The linear chain qubit -- three-wave mixer -- mechanical mode is
diagonalized perturbatively in the small parameters
lambda_ij = g_ij/(f_i - f_j).  A strong off-resonant pump on the mixer
at the qubit-mechanics difference frequency turns its third-order
nonlinearity into a beam-splitter interaction

    H/h = g_eff (q m+ e^{-i phi_d} + q+ m e^{+i phi_d}),
    g_eff = 6 g3 |lambda_qs| |lambda_sm| |eta|,

with eta the effective pump amplitude (|eta|^2 = mixer photon number).
Timed evolution under this interaction with Lindblad dissipators
realizes the write/read swap gate between the qubit and the mechanical
memory mode.  All Hamiltonians are stored in ordinary-frequency units
(H/h, in Hz); rates are 1/s.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import TWO_PI
from .errors import DegenerateModes, DriveOffDifferenceFrequency, DriveOnResonance


@dataclass(frozen=True)
class ModeParams:
    """One mode of the chain: frequency (Hz), energy decay rate (1/s),
    anharmonicity E_C/h (Hz, 0 for linear modes), optional pure
    dephasing rate (1/s)."""

    frequency: float
    decay_rate: float = 0.0
    anharmonicity: float = 0.0
    dephasing_rate: float = 0.0

    def __post_init__(self):
        if self.frequency <= 0.0:
            raise ValueError("mode frequency must be positive")
        if self.decay_rate < 0.0 or self.dephasing_rate < 0.0:
            raise ValueError("rates must be >= 0")


@dataclass(frozen=True)
class TriModeSystem:
    """Qubit, mixer (snail), and mechanical mode with linear couplings
    g_qs, g_sm and mixer third-order strength g3 (all in Hz).

    The perturbative treatment assumes |lambda_ij| = |g_ij/(f_i - f_j)|
    well below 1; construction warns when a dressing parameter exceeds
    0.1 (and loudly above 0.5), while the dressing operations themselves
    reject such systems.  Exact diagonalization accepts any values.
    """

    qubit: ModeParams
    snail: ModeParams
    mech: ModeParams
    g_qs: float
    g_sm: float
    g3: float

    def __post_init__(self):
        if self.g_qs < 0.0 or self.g_sm < 0.0 or self.g3 < 0.0:
            raise ValueError("coupling magnitudes must be >= 0")
        for label, lam in (("lambda_qs", self.lambda_qs), ("lambda_sm", self.lambda_sm)):
            if abs(lam) > 0.5:
                warnings.warn(
                    f"|{label}| = {abs(lam):.3g} far outside the perturbative regime",
                    stacklevel=2,
                )
            elif abs(lam) > 0.1:
                warnings.warn(
                    f"|{label}| = {abs(lam):.3g} above 0.1; dressing accuracy degrades",
                    stacklevel=2,
                )

    @property
    def lambda_qs(self) -> float:
        delta = self.qubit.frequency - self.snail.frequency
        if delta == 0.0:
            return math.inf if self.g_qs > 0.0 else 0.0
        return self.g_qs / delta

    @property
    def lambda_sm(self) -> float:
        delta = self.snail.frequency - self.mech.frequency
        if delta == 0.0:
            return math.inf if self.g_sm > 0.0 else 0.0
        return self.g_sm / delta


@dataclass(frozen=True)
class DressedSystem:
    """First-order dressed frequencies and dressing parameters."""

    lambda_qs: float
    lambda_sm: float
    f_qubit: float
    f_snail: float
    f_mech: float


@dataclass(frozen=True)
class DriveSpec:
    """Pump applied to the mixer at ``frequency`` (Hz).

    Exactly one of ``amplitude`` (drive strength in Hz) or ``n_photons``
    (target mixer occupation) must be given.  ``duration`` = 0 lets gate
    routines pick their own timing.
    """

    frequency: float
    amplitude: float | None = None
    n_photons: float | None = None
    phase: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.frequency <= 0.0:
            raise ValueError("drive frequency must be positive")
        if (self.amplitude is None) == (self.n_photons is None):
            raise ValueError("supply exactly one of amplitude or n_photons")
        if self.n_photons is not None and self.n_photons < 0.0:
            raise ValueError("n_photons must be >= 0")
        if self.duration < 0.0:
            raise ValueError("duration must be >= 0")


@dataclass(frozen=True)
class EffectiveHamiltonian:
    """Rotating-frame interaction: beam-splitter rate g_eff (Hz, >= 0,
    sign conventions folded into drive_phase), qubit-mixer cross-Kerr
    chi_qs (Hz), and qubit self-Kerr coefficient (Hz)."""

    g_eff: float
    drive_phase: float
    cross_kerr: float
    qubit_self_kerr: float


def dress(system: TriModeSystem) -> DressedSystem:
    """Second-order dressed frequencies of the coupled linear chain.

    With lambda_qs = g_qs/(f_q - f_s) and lambda_sm = g_sm/(f_s - f_m),
    each pair of coupled modes repels by g^2 over its detuning:

        f_q' = f_q + lambda_qs*g_qs
        f_s' = f_s - lambda_qs*g_qs + lambda_sm*g_sm
        f_m' = f_m - lambda_sm*g_sm

    which matches exact diagonalization through second order in the
    dressing parameters.  Raises ``DegenerateModes`` when either
    detuning is below ten times its coupling, where the perturbative
    expansion fails.
    """
    d_qs = system.qubit.frequency - system.snail.frequency
    d_sm = system.snail.frequency - system.mech.frequency
    if system.g_qs > 0.0 and abs(d_qs) < 10.0 * system.g_qs:
        raise DegenerateModes(
            f"qubit-snail detuning {d_qs:.4g} Hz below 10x coupling {system.g_qs:.4g} Hz"
        )
    if system.g_sm > 0.0 and abs(d_sm) < 10.0 * system.g_sm:
        raise DegenerateModes(
            f"snail-mech detuning {d_sm:.4g} Hz below 10x coupling {system.g_sm:.4g} Hz"
        )
    lam_qs = system.g_qs / d_qs if system.g_qs > 0.0 else 0.0
    lam_sm = system.g_sm / d_sm if system.g_sm > 0.0 else 0.0
    shift_qs = lam_qs * system.g_qs
    shift_sm = lam_sm * system.g_sm
    return DressedSystem(
        lambda_qs=lam_qs,
        lambda_sm=lam_sm,
        f_qubit=system.qubit.frequency + shift_qs,
        f_snail=system.snail.frequency - shift_qs + shift_sm,
        f_mech=system.mech.frequency - shift_sm,
    )


def exact_normal_modes(system: TriModeSystem) -> np.ndarray:
    """Eigenfrequencies (Hz, descending) of the beam-splitter-coupled
    frequency matrix; exact oracle for the perturbative dressing."""
    matrix = np.array([
        [system.qubit.frequency, system.g_qs, 0.0],
        [system.g_qs, system.snail.frequency, system.g_sm],
        [0.0, system.g_sm, system.mech.frequency],
    ])
    return np.sort(np.linalg.eigvalsh(matrix))[::-1]


def hybridized_decay(gamma_m: float, lambda_sm: float, gamma_s: float) -> float:
    """Mechanical decay rate dressed by the lossy mixer:
    Gamma_m' = Gamma_m + lambda_sm^2 * Gamma_s."""
    if gamma_m < 0.0 or gamma_s < 0.0:
        raise ValueError("rates must be >= 0")
    return gamma_m + lambda_sm**2 * gamma_s


def effective_eta(drive: DriveSpec, f_snail_hz: float) -> complex:
    """Effective pump amplitude eta of the displaced mixer mode.

    For a drive of strength epsilon at f_d:
    eta = 2 f_d epsilon/(f_s^2 - f_d^2) * exp(i*phase); when the target
    photon number n_s is given instead, |eta| = sqrt(n_s).  Raises
    ``DriveOnResonance`` within 1e-6 relative of the mixer frequency.
    """
    if f_snail_hz <= 0.0:
        raise ValueError("mixer frequency must be positive")
    if abs(drive.frequency - f_snail_hz) < 1e-6 * f_snail_hz:
        raise DriveOnResonance(
            f"drive at {drive.frequency:.6g} Hz on the mixer resonance {f_snail_hz:.6g} Hz"
        )
    if drive.n_photons is not None:
        magnitude = math.sqrt(drive.n_photons)
    else:
        magnitude = (
            2.0 * drive.frequency * drive.amplitude
            / (f_snail_hz**2 - drive.frequency**2)
        )
    return magnitude * cmath.exp(1j * drive.phase)


def effective_coupling(system: TriModeSystem, drive: DriveSpec) -> EffectiveHamiltonian:
    """Pump-activated qubit-mechanics interaction parameters.

    g_eff = 6 g3 |lambda_qs| |lambda_sm| |eta| with all signs (including
    the overall minus of the three-wave expansion) folded into the drive
    phase.  The drive must sit at the qubit-mechanics difference
    frequency within 10 g_eff, otherwise
    ``DriveOffDifferenceFrequency`` is raised.
    """
    dressed = dress(system)
    eta = effective_eta(drive, system.snail.frequency)
    product = -6.0 * system.g3 * dressed.lambda_qs * dressed.lambda_sm * eta
    g_eff = abs(product)
    phase = cmath.phase(product) if g_eff > 0.0 else drive.phase
    if g_eff > 0.0:
        difference = abs(system.qubit.frequency - system.mech.frequency)
        if abs(drive.frequency - difference) > 10.0 * g_eff:
            raise DriveOffDifferenceFrequency(
                f"drive at {drive.frequency:.6g} Hz, difference frequency "
                f"{difference:.6g} Hz, allowed window 10*g_eff = {10.0 * g_eff:.4g} Hz"
            )
    chi = -2.0 * system.qubit.anharmonicity * dressed.lambda_qs**2
    return EffectiveHamiltonian(
        g_eff=g_eff,
        drive_phase=phase,
        cross_kerr=chi,
        qubit_self_kerr=-system.qubit.anharmonicity,
    )


def _levels(dims: tuple[int, ...], which: int) -> np.ndarray:
    """The level of mode ``which`` in each basis state of the product space
    of ``dims``, last mode fastest."""
    return (np.arange(math.prod(dims)) // math.prod(dims[which + 1:])) % dims[which]


def build_rwa_hamiltonian(eff: EffectiveHamiltonian, dims: tuple[int, ...]) -> np.ndarray:
    """Rotating-frame Hamiltonian H/h in Hz on qubit (x) mech (x mixer).

    ``dims`` is (d_q, d_m) or (d_q, d_m, d_s) with d_q in {2, 3} and
    d_m >= 2.  Contains the beam-splitter exchange term, the qubit
    self-Kerr (inert in the two-level truncation), and, when a mixer
    dimension is included, the qubit-mixer cross-Kerr.  Built from level
    indices: the Kerr terms are diagonal, and the exchange q m^dag is one
    diagonal at offset d_s (d_m - 1), the qubit stride less the mechanics
    stride, with <n_q, n_m| q m^dag |n_q + 1, n_m - 1> = sqrt(n_q + 1) sqrt(n_m).
    """
    if len(dims) not in (2, 3):
        raise ValueError("dims must be (d_q, d_m) or (d_q, d_m, d_s)")
    d_q, d_m = dims[0], dims[1]
    if d_q not in (2, 3):
        raise ValueError("qubit dimension must be 2 or 3")
    if d_m < 2:
        raise ValueError("mechanics Fock cutoff must be >= 2")
    n_q, n_m = _levels(dims, 0), _levels(dims, 1)
    diagonal = 0.5 * eff.qubit_self_kerr * (n_q * (n_q - 1.0))
    if len(dims) == 3:
        diagonal += eff.cross_kerr * (n_q * _levels(dims, 2))
    h = np.diag(diagonal.astype(complex))
    offset = math.prod(dims[1:]) - math.prod(dims[2:])
    # zero at n_m = 0, where column i + offset is |n_q, d_m - 1>, which m^dag
    # lifts past the cutoff
    exchange = eff.g_eff * cmath.exp(-1j * eff.drive_phase) * (
        np.sqrt(n_q[:-offset] + 1.0) * np.sqrt(n_m[:-offset]))
    np.fill_diagonal(h[:, offset:], exchange)
    np.fill_diagonal(h[offset:], exchange.conj())
    return h


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix on a truncated tensor-product space.

    Validates hermiticity (1e-10), unit trace (1e-9), and positivity
    (eigenvalue floor -1e-9) at construction, so every final state that
    ``evolve`` and ``iswap`` return carries those guarantees.  Their
    propagator rebuilds each pair of transpose partners from the same
    two real coordinates, and the lossless swap gate averages its state
    with its adjoint, so those states are exactly Hermitian.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        size = int(np.prod(dims))
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (size, size):
            raise ValueError(f"matrix shape {rho.shape} does not match dims {dims}")
        # rows and columns without a nonzero change none of the three checks
        block = np.flatnonzero(rho.any(axis=0) | rho.any(axis=1))
        support = rho[block][:, block]
        if float(np.max(np.abs(support - support.conj().T), initial=0.0)) > 1e-10:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        if abs(float(np.trace(support).real) - 1.0) > 1e-9:
            raise ValueError("density matrix trace differs from 1 by more than 1e-9")
        if float(np.min(np.linalg.eigvalsh(support))) < -1e-9:
            raise ValueError("density matrix has an eigenvalue below -1e-9")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", rho)

    @classmethod
    def from_state_vector(cls, dims, psi) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return cls(tuple(dims), np.outer(psi, psi.conj()))

    @classmethod
    def basis(cls, dims, levels) -> "DensityMatrix":
        """Product basis state, e.g. ``basis((2, 5), (1, 0))`` for |e,0>."""
        dims = tuple(int(d) for d in dims)
        psi = np.zeros(int(np.prod(dims)))
        psi[np.ravel_multi_index(tuple(int(v) for v in levels), dims)] = 1.0
        return cls.from_state_vector(dims, psi)

    def population(self, levels) -> float:
        """Occupation of a product level, one level per mode."""
        i = np.ravel_multi_index(tuple(int(v) for v in levels), self.dims)
        return float(self.matrix[i, i].real)

    @property
    def purity(self) -> float:
        """Tr rho^2, taken as the sum of |rho_ij|^2, which equals it for a
        Hermitian rho without a d x d matrix product."""
        return float(np.vdot(self.matrix, self.matrix).real)


@dataclass(frozen=True)
class EvolutionResult:
    final: DensityMatrix
    times: np.ndarray
    snapshots: np.ndarray  # (n_records, d, d) complex


def _reached_levels(rho0: np.ndarray, h_hz: np.ndarray, dims: tuple[int, ...],
                    decay: list, dephase: list) -> tuple[np.ndarray, list]:
    """(idx, jumps): the levels idx that rho0's support reaches through the
    pattern of H and the lowering stride of each mode with a nonzero decay
    rate, which H and every C map into themselves, and the dissipators
    rate * D[C] on them as (rate, C) pairs: lowering operators at the decay
    rates, <i| a |i + stride> = sqrt(that mode's level in i + stride), last
    mode fastest, and number operators at twice the dephasing rates, so that
    coherences decay at the stated rate.  Zero rates are dropped."""
    modes = [(g, gd, _levels(dims, k), math.prod(dims[k + 1:]))
             for k, (g, gd) in enumerate(zip(decay, dephase)) if g > 0.0 or gd > 0.0]
    reached = rho0.any(axis=0) | rho0.any(axis=1)
    while True:
        grown = reached | (h_hz[reached] != 0).any(axis=0)
        for g, _, level, stride in modes:
            if g > 0.0:
                grown[:-stride] |= grown[stride:] & (level[stride:] > 0)
        if (grown == reached).all():
            break
        reached = grown
    idx = np.flatnonzero(reached)
    roots = [np.sqrt(level[idx]) for _, _, level, _ in modes]
    lowering = [(g, root * (idx[:, None] + stride == idx))
                for root, (g, _, _, stride) in zip(roots, modes) if g > 0.0]
    # a^dag a, each diagonal entry the square of a's entry
    number = [(2.0 * gd, np.diag(root * root))
              for root, (_, gd, _, _) in zip(roots, modes) if gd > 0.0]
    return idx, lowering + number


def _restrict(rho0: np.ndarray, h_hz: np.ndarray, jumps):
    """(a, b, G): the entries rho[a, b] that the evolution of ``rho0``
    reaches and the real generator G (rad/s) on their coordinates.

    The Lindbladian is K rho + rho K^dag + sum rate C rho C^dag with
    K = -2 pi i H - 1/2 sum rate C^dag C, a sum of terms X rho Y^T for
    the pairs (X, Y) = (K, I), (I, conj K) and (rate C, conj C).  Entry
    (p, q) feeds entry (i, j) through a term when X[i, p] Y[j, q] != 0,
    so the reached entries are the fixed point of R <- R | pat(K) R +
    R pat(K)^T + sum pat(C) R pat(C)^T (every rate is > 0) from the support
    of ``rho0`` and its transpose, and on them L is the sum of
    X[a][:, a] * Y[b][:, b], the rows and columns of X kron Y at those
    entries.  R is symmetric and L preserves Hermiticity, so on the
    coordinates x = Re rho[a, b] for a <= b, Im rho[a, b] for a > b it is
    the real B L A, with A mapping x to the entries and B back (Breuer &
    Petruccione sec. 3.2).  Under the RWA Hamiltonian R keeps the excitation
    number differences of ``rho0``'s entries; a dense H reaches every entry.
    ``evolve`` and ``iswap`` pass the block of rho0, H and the C on the
    levels of ``_reached_levels``, so a and b index that block."""
    k = -1j * TWO_PI * h_hz - 0.5 * sum(rate * (op.conj().T @ op) for rate, op in jumps)
    eye = np.eye(len(h_hz))
    terms = [(k, eye), (eye, k.conj())] + [(rate * op, op.conj()) for rate, op in jumps]
    pat_k = (k != 0).astype(float)
    pat_c = np.array([op != 0 for _, op in jumps], dtype=float).reshape(-1, *k.shape)
    reach = (rho0 != 0) | (rho0.T != 0)
    while not np.array_equal(reach, grown := reach | (
            pat_k @ reach + reach @ pat_k.T + (pat_c @ reach @ pat_c.mT).sum(axis=0) > 0)):
        reach = grown
    a, b = np.nonzero(reach)
    liouvillian = sum(x[a][:, a] * y[b][:, b] for x, y in terms)
    # x_j enters rho[a_j, b_j] times w_j and its transpose partner times conj(w_j)
    w = np.where(a < b, 1.0, np.where(a > b, 1j, 0.5))
    la = liouvillian * w + liouvillian[:, np.lexsort((a, b))] * w.conj()
    return a, b, np.where((a <= b)[:, None], la.real, la.imag)


def _entries(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The entries rho[a, b], exactly Hermitian, from their coordinates x (last axis)."""
    partner = x[..., np.lexsort((a, b))]  # the reached set is symmetric
    return np.where(a <= b, x, partner) + 1j * (a != b) * np.where(a > b, x, -partner)


def _propagate(a: np.ndarray, b: np.ndarray, generator: np.ndarray,
               rho0: np.ndarray, duration: float, n_records: int):
    """(times, records, final): the real coordinates of rho[a, b] at
    linspace(0, duration, n_records), one row per record, and the state
    at ``duration`` on the levels of ``rho0``, from ``_restrict``'s entries and
    generator G.  Record k is P^k x0 with P = exp(G dt), so the final
    state is the last of two or more records, and exp(G duration) x0
    otherwise; ``ValueError`` if the coordinates leave the float range."""
    from scipy.linalg import expm

    times = np.linspace(0.0, duration, n_records)
    records = np.empty((n_records, len(a)))
    records[:1] = x0 = np.where(a <= b, rho0[a, b].real, rho0[a, b].imag)
    if n_records >= 2:
        # doubling: P^m maps records 0..m-1 onto records m..2m-1
        filled, power = 1, expm(generator * times[1])
        while filled < n_records:
            take = min(filled, n_records - filled)
            np.matmul(records[:take], power.T, out=records[filled:filled + take])
            filled += take
            power = power @ power if filled < n_records else power  # no record uses the last
        last = records[-1]
    else:
        last = expm(generator * duration) @ x0
    if not (np.isfinite(records).all() and np.isfinite(last).all()):
        raise ValueError(f"Lindblad propagation over {duration:.3g} s at rates up to "
                         f"{np.abs(generator).max():.3g}/s leaves the float range")
    return times, records, _state(a, b, last, len(rho0))


def _state(a: np.ndarray, b: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """The size x size state whose entries rho[a, b] have the coordinates x;
    every other entry is zero."""
    rho = np.zeros((size, size), dtype=complex)
    rho[a, b] = _entries(a, b, x)
    return rho


def _unitary(h_block: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """Evolution under H alone on a block of levels that H maps into itself:
    (B, P) with H = B diag(E) B^dag and P[t, k] = exp(-2 pi i E_k t), so that
    psi(t) = B (P[t] * B^dag psi0) and rho(t) = W rho~0 W^dag with W = B P[t]
    (columns scaled) and rho~0 = B^dag rho0 B."""
    energies, basis = np.linalg.eigh(h_block)
    return basis, np.exp(np.outer(times, -1j * TWO_PI * energies))


def evolve(
    rho0: DensityMatrix,
    h_hz: np.ndarray,
    decay_rates,
    duration: float,
    *,
    dephasing_rates=None,
    n_records: int = 0,
) -> EvolutionResult:
    """Lindblad evolution under H (in Hz) with per-mode dissipators.

    ``decay_rates`` lists one energy decay rate (1/s) per tensor factor
    of ``rho0.dims`` (lowering-operator dissipators); optional
    ``dephasing_rates`` add number-operator dissipators producing pure
    dephasing at the given rates.  The generator is constant, so the
    state is propagated exactly, x(t) = exp(G t) x0, on the real
    coordinates x of the m entries of rho that the evolution reaches
    from rho0, where G is a real m x m matrix (``_restrict``); every
    other entry stays zero.  Those entries lie on the levels that rho0's
    support reaches through H and the lowering operators
    (``_reached_levels``): the closure, the dissipators and the generator
    are built on that block, and the full-space states are written once,
    on return.  H must be Hermitian within 1e-10 of its norm, else
    ``ValueError``.

    ``snapshots`` holds exactly ``n_records`` states at
    linspace(0, duration, n_records); ``final`` is always the state at
    ``duration``.
    """
    dims = rho0.dims
    decay = [float(g) for g in decay_rates]
    if len(decay) != len(dims):
        raise ValueError("need one decay rate per mode")
    dephase = [float(g) for g in dephasing_rates] if dephasing_rates is not None else [0.0] * len(dims)
    if len(dephase) != len(dims):
        raise ValueError("need one dephasing rate per mode")
    if any(g < 0.0 for g in decay + dephase):
        raise ValueError("rates must be >= 0")
    if duration < 0.0:
        raise ValueError("duration must be >= 0")

    h_hz = np.asarray(h_hz, dtype=complex)
    if np.linalg.norm(h_hz - h_hz.conj().T) > 1e-10 * np.linalg.norm(h_hz):
        raise ValueError("Hamiltonian is not Hermitian within 1e-10 of its norm")

    idx, jumps = _reached_levels(rho0.matrix, h_hz, dims, decay, dephase)
    block = np.ix_(idx, idx)
    a, b, generator = _restrict(rho0.matrix[block], h_hz[block], jumps)
    times, records, final = _propagate(a, b, generator, rho0.matrix[block], duration, n_records)
    state = np.zeros_like(h_hz)
    state[block] = final
    snapshots = np.zeros((n_records,) + state.shape, dtype=complex)
    snapshots[:, idx[a], idx[b]] = _entries(a, b, records)
    return EvolutionResult(final=DensityMatrix(dims, state), times=times, snapshots=snapshots)


@dataclass(frozen=True)
class IswapResult:
    """Swap-gate simulation output.

    ``times``, ``pop_e0``, ``pop_g1`` and ``fidelity`` hold exactly
    ``n_records`` samples on linspace(0, window, n_records), with the
    window max(gate_time, 1.25/(4*g_eff)); g_eff = 0 gives one sample at
    t = 0.  ``transfer_time`` is the first maximum of ``pop_g1`` on that
    grid, refined by a parabola through its neighbours; it matches the
    closed form 1/(4*g_eff) (the pulse written as pi/(2*g_eff) in angular
    units).  ``t_iswap`` is the conventional swap-time figure
    1/(2*g_eff), twice the transfer time.

    ``rho_final`` and ``populations`` are the state at ``gate_time``.
    Without dissipators that state is exact in closed form, and
    ``fidelity`` is the constant <psi0| rho0 |psi0>, with
    ``swap_fidelity`` equal to it.  With dissipators the state is the
    record at ``gate_time`` when the grid holds that time within 2 ulp.
    """

    rho_final: DensityMatrix
    populations: dict
    swap_fidelity: float
    g_eff_hz: float
    gate_time: float
    transfer_time: float
    t_iswap: float
    times: np.ndarray
    pop_e0: np.ndarray
    pop_g1: np.ndarray
    fidelity: np.ndarray


def _populations(rho: DensityMatrix) -> dict:
    return {key: rho.population(levels)
            for key, levels in (("g0", (0, 0)), ("g1", (0, 1)), ("e0", (1, 0)), ("e1", (1, 1)))}


def _first_maximum(times: np.ndarray, values: np.ndarray) -> float:
    """Time of the first local maximum, refined by parabolic interpolation;
    NaN without samples."""
    inner = values[1:-1]
    peaks = np.flatnonzero((inner >= values[:-2]) & (inner > values[2:])) + 1
    if peaks.size == 0:
        return float(times[int(np.argmax(values))]) if len(values) else math.nan
    i = peaks[0]
    # negative at a peak: values[i] >= values[i - 1] and values[i] > values[i + 1]
    denom = values[i - 1] - 2.0 * values[i] + values[i + 1]
    shift = 0.5 * (values[i - 1] - values[i + 1]) / denom
    return float(times[i] + shift * (times[i + 1] - times[i]))


def iswap(
    system: TriModeSystem,
    drive: DriveSpec,
    rho0: DensityMatrix | None = None,
    d_m: int = 5,
    dissipation: bool = True,
    n_records: int = 1001,
) -> IswapResult:
    """Write/read swap between the qubit and the mechanical mode.

    Pumps the mixer at the difference frequency for the write duration
    t = 1/(4*g_eff) (drive phase pi), which exchanges |e,0> and |g,1>.
    An explicit ``drive.duration`` overrides the gate time.  Dissipation
    uses the hybridized mechanical rate Gamma_m' and the qubit decay and
    dephasing rates; the mixer itself is adiabatically eliminated.  The
    reported fidelity compares against the dissipation-free evolution of
    the same initial state (which must be pure).

    Both branches evolve on the n levels that ``_reached_levels`` finds
    (|g,0>, |e,0> and |g,1> for |e,0> at any cutoff) and write the d x d
    gate-time state once, on return.  When every rate is zero
    (``dissipation=False``, or all rates 0) the gate builds no Liouvillian
    and imports no scipy: H = B diag(E) B^dag on the n levels once, and
    rho(t) = B (rho~0 o exp(-2 pi i (E_k - E_l) t)) B^dag with
    rho~0 = B^dag rho0 B.  With dissipators the gate-time state is the
    record whose time equals the gate time within 2 ulp (record 800 of
    the default grid), and a second exponential only when none does.
    """
    eff = effective_coupling(system, drive)
    eff = replace(eff, drive_phase=math.pi)
    if d_m < 2:
        # here, because building |e,0> and the zero-coupling return both
        # come before build_rwa_hamiltonian's own check
        raise ValueError("mechanics Fock cutoff must be >= 2")
    dims = (2, d_m)
    if rho0 is None:
        rho0 = DensityMatrix.basis(dims, (1, 0))  # |e, 0>: write configuration
    if rho0.dims != dims:
        raise ValueError(f"initial state dims {rho0.dims} do not match {dims}")

    if eff.g_eff == 0.0:
        times = np.zeros(1)
        ones = np.ones(1)
        populations = _populations(rho0)
        return IswapResult(
            rho_final=rho0, populations=populations, swap_fidelity=1.0,
            g_eff_hz=0.0, gate_time=0.0, transfer_time=math.inf, t_iswap=math.inf,
            times=times, pop_e0=ones * populations["e0"],
            pop_g1=ones * populations["g1"], fidelity=ones,
        )

    h = build_rwa_hamiltonian(eff, dims)
    gate_time = drive.duration if drive.duration > 0.0 else 1.0 / (4.0 * eff.g_eff)
    dressed = dress(system)
    gamma_m_prime = hybridized_decay(
        system.mech.decay_rate, dressed.lambda_sm, system.snail.decay_rate
    )
    if dissipation:
        decay = [system.qubit.decay_rate, gamma_m_prime]
        dephasing = [system.qubit.dephasing_rate, system.mech.dephasing_rate]
    else:
        decay = [0.0, 0.0]
        dephasing = [0.0, 0.0]

    # run past the nominal gate time so the first transfer maximum is
    # bracketed by recorded samples
    window = max(gate_time, 1.25 / (4.0 * eff.g_eff))
    levels = np.ravel_multi_index(([1, 0], [0, 1]), dims)  # |e,0> and |g,1>
    pure = rho0.purity > 1.0 - 1e-6
    idx, jumps = _reached_levels(rho0.matrix, h, dims, decay, dephasing)
    block = np.ix_(idx, idx)
    rho_block, h_block = rho0.matrix[block], h[block]
    if jumps:
        a, b, generator = _restrict(rho_block, h_block, jumps)
        times, records, _ = _propagate(a, b, generator, rho_block, window, n_records)
        # populations from the diagonal coordinates, zero where never reached
        pop_e0, pop_g1 = (records[:, (idx[a] == k) & (idx[b] == k)].sum(axis=1) for k in levels)
        # the state at the gate time is the record at that time when the grid
        # holds it, and one more exponential otherwise
        on_grid = np.flatnonzero(np.abs(times - gate_time) <= 2.0 * np.spacing(gate_time))
        if on_grid.size:
            final = _state(a, b, records[on_grid[0]], len(idx))
        else:
            final = _propagate(a, b, generator, rho_block, gate_time, 0)[2]
        if pure:
            # the ideal unitary evolution of a pure rho0 stays on idx too
            psi0 = np.linalg.eigh(rho_block)[1][:, -1]
            basis, phases = _unitary(h_block, np.append(times, gate_time))
            ideal = (phases * (basis.conj().T @ psi0)) @ basis.T
            # <ideal| rho |ideal> = sum over a <= b of (2 - [a = b]) Re(z rho[a, b])
            # with z = conj(ideal[a]) ideal[b], that is Re z x_ab + Im z x_ba
            up = np.flatnonzero(a <= b)
            z = ideal[:-1, a[up]].conj()
            z *= ideal[:-1, b[up]]
            z.real *= records[:, up]
            z.imag *= records[:, np.lexsort((a, b))[up]]
            fidelity = (z.real + z.imag) @ np.where(a[up] < b[up], 2.0, 1.0)
            swap_fidelity = float(np.real(ideal[-1].conj() @ final @ ideal[-1]))
    else:
        # no dissipator: rho(t) = U rho0 U^dag on idx, which H maps into itself
        times = np.linspace(0.0, window, n_records)
        basis, phases = _unitary(h_block, np.append(times, gate_time))
        rotated = basis.conj().T @ rho_block @ basis
        # B's rows at |e,0> and |g,1>, zero at a level never reached
        rows = (idx == levels[:, None]) @ basis
        # rho(t)[i, i] = P[t] c_i P[t]^dag with c_i[k, l] = B[i, k] rho~0[k, l] conj(B[i, l])
        c = rows[:, :, None] * rotated * rows[:, None, :].conj()
        pop_e0, pop_g1 = ((phases[:-1] @ c) * phases[:-1].conj()).sum(axis=-1).real
        w = basis * phases[-1]
        final = w @ rotated @ w.conj().T
        final = 0.5 * (final + final.conj().T)  # exactly Hermitian
        if pure:
            # the state never leaves the ideal evolution, so the fidelity is
            # <psi0| rho0 |psi0>, rho0's largest eigenvalue, at every record
            swap_fidelity = float(np.linalg.eigvalsh(rho_block)[-1])
            fidelity = np.full(len(times), swap_fidelity)
    if not pure:
        fidelity, swap_fidelity = np.full(len(times), np.nan), math.nan
    transfer_time = _first_maximum(times, pop_g1)

    # state and populations are reported at the gate time itself
    state = np.zeros_like(h)
    state[block] = final
    rho_final = DensityMatrix(dims, state)
    populations = _populations(rho_final)

    return IswapResult(
        rho_final=rho_final,
        populations=populations,
        swap_fidelity=swap_fidelity,
        g_eff_hz=eff.g_eff,
        gate_time=gate_time,
        transfer_time=transfer_time,
        t_iswap=1.0 / (2.0 * eff.g_eff),
        times=times,
        pop_e0=pop_e0,
        pop_g1=pop_g1,
        fidelity=fidelity,
    )
