"""Workload ``swap_gate``: ``dynamics.iswap`` on drawn device points.

Each task simulates the write gate of one device drawn around the
reference config (pump photons n_s, g3, lambda_qs, Gamma_q, Gamma_s,
dephasing) at a fixed Fock cutoff, initial state and dissipation
setting.  The cutoffs, states and settings are fixed (``SPECS``), so
every seed runs the same mix; the seed draws only the device.

Checks, all computed here and not by qmem:
- g_eff = 6 g3 |lambda_qs| |lambda_sm| sqrt(n_s) from the circuit values;
- populations at the gate time against ``scipy.linalg.expm`` of the
  Liouvillian (the unitary for lossless tasks);
- lossless transfer time within 1e-3 of 1/(4 g_eff);
- the final state has trace 1 and is Hermitian and positive.

The Hamiltonian conserves the excitation number and the dissipators
never raise it, so the states with at most as many excitations as the
initial state form an invariant subspace.  The reference propagates on
that subspace, exactly, whatever the Fock cutoff.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from circuit import coupling_rate, lc_frequency
from harness import expect, expect_close
from qmem import dynamics

# (mechanics Fock cutoff d_m, initial state, dissipative).  Dissipative
# tasks stop at d_m = 12, where one task takes about a second today: every
# task must come round several times in one run (see harness).
SPECS = (
    (5, "e0", False),
    (8, "e0", False),
    (16, "multi", False),
    (24, "multi", False),
    (5, "e0", True),
    (6, "multi", True),
    (12, "e0", True),
)

# amplitudes over (n_q, n_m) of the multi-manifold state: excitation
# numbers 0 to 3, without |g,1> so that the lossless |g,1> population is
# |c_e0|^2 sin^2(2 pi g_eff t).  The state is fixed: the RK4 step halving
# converges after a number of halvings that depends on it, and so does
# the cost.
MULTI_STATE = {(0, 0): 0.4, (1, 0): 0.7, (1, 1): 0.3j, (0, 2): 0.3, (1, 2): -0.25, (0, 3): 0.2 - 0.2j}
POPULATIONS = {"g0": (0, 0), "g1": (0, 1), "e0": (1, 0), "e1": (1, 1)}

# RK4 step halving stops at a 1e-8 change of the final state
POPULATION_TOL = 1e-6
TRANSFER_TIME_REL = 1e-3


def draw_device(rng, config: dict) -> dict:
    """Circuit values around the reference config, with derived rates."""
    system, bvd, shunt = config["system"], config["bvd"], config["shunt"]
    device = {
        "f_q": system["f_q_Hz"],
        "E_C": system["E_C_over_h_Hz"],
        "n_s": rng.uniform(6.0, 14.0),
        "g3": system["g3_Hz"] * rng.uniform(0.8, 1.2),
        "lambda_qs": system["lambda_qs"] * rng.uniform(0.7, 1.0),
        "gamma_q": system["Gamma_q_per_s"] * rng.uniform(0.5, 1.5),
        "gamma_s": system["Gamma_s_per_s"] * rng.uniform(0.5, 2.0),
        "gamma_m": system["Gamma_m_per_s"],
        "dephasing_q": rng.uniform(0.0, 2e3),
        "dephasing_m": rng.uniform(0.0, 20.0),
    }
    c0, cm, lm = bvd["C0_F"], bvd["Cm_F"], bvd["Lm_H"]
    cr, lr = shunt["Cr_F"], shunt["Lr_H"]
    f_m = lc_frequency(lm, cm)
    f_r = lc_frequency(lr, cr)
    g_sm = coupling_rate(f_r, f_m, c0, cm, cr)
    lambda_sm = g_sm / (f_r - f_m)
    device.update(
        C0=c0,
        Cm=cm,
        Cr=cr,
        f_m=f_m,
        f_r=f_r,
        g_sm=g_sm,
        lambda_sm=lambda_sm,
        g_qs=device["lambda_qs"] * (device["f_q"] - f_r),
        g_eff=6.0 * device["g3"] * device["lambda_qs"] * lambda_sm * math.sqrt(device["n_s"]),
        gamma_m_prime=device["gamma_m"] + lambda_sm**2 * device["gamma_s"],
    )
    return device


def reference_populations(device: dict, amplitudes: dict, d_m: int, dissipative: bool, t: float) -> dict:
    """Populations at time t, propagated exactly on the invariant subspace."""
    k_max = max(nq + nm for nq, nm in amplitudes)
    basis = [(nq, nm) for nq in (0, 1) for nm in range(d_m) if nq + nm <= k_max]
    pos = {level: i for i, level in enumerate(basis)}
    n = len(basis)
    # operator matrices built element by element: a product such as q m^+
    # passes through states outside the subspace
    h = np.zeros((n, n))
    q = np.zeros((n, n))
    m = np.zeros((n, n))
    for (nq, nm), i in pos.items():
        if nq == 1:
            q[pos[(0, nm)], i] = 1.0
            if (0, nm + 1) in pos:
                # beam splitter at drive phase pi: <g,n+1|H|e,n> = -g_eff sqrt(n+1)
                j = pos[(0, nm + 1)]
                h[j, i] = h[i, j] = -device["g_eff"] * math.sqrt(nm + 1)
        if nm > 0:
            m[pos[(nq, nm - 1)], i] = math.sqrt(nm)
    n_q = np.diag([float(nq) for nq, _ in basis])
    n_m = np.diag([float(nm) for _, nm in basis])
    psi = np.zeros(n, dtype=complex)
    for level, amplitude in amplitudes.items():
        psi[pos[level]] = amplitude
    psi /= np.linalg.norm(psi)

    if dissipative:
        ident = np.eye(n)
        # column-stacking vec: vec(A X B) = (B^T kron A) vec(X)
        liouvillian = -2j * math.pi * (np.kron(ident, h) - np.kron(h.T, ident))
        jumps = (
            (device["gamma_q"], q),
            (device["gamma_m_prime"], m),
            (2.0 * device["dephasing_q"], n_q),
            (2.0 * device["dephasing_m"], n_m),
        )
        for rate, op in jumps:
            n_op = op.T @ op
            liouvillian += rate * (
                np.kron(op, op) - 0.5 * np.kron(ident, n_op) - 0.5 * np.kron(n_op.T, ident)
            )
        rho0 = np.outer(psi, psi.conj())
        rho = (expm(liouvillian * t) @ rho0.reshape(-1, order="F")).reshape((n, n), order="F")
        diag = np.real(np.diag(rho))
    else:
        diag = np.abs(expm(-2j * math.pi * h * t) @ psi) ** 2
    return {key: float(diag[pos[level]]) if level in pos else 0.0
            for key, level in POPULATIONS.items()}


class SwapTask:
    def __init__(self, rng, config: dict, d_m: int, state: str, dissipative: bool):
        self.label = f"d_m={d_m} {state} {'dissipative' if dissipative else 'lossless'}"
        self.d_m, self.dissipative = d_m, dissipative
        self.device = dev = draw_device(rng, config)
        self.system = dynamics.TriModeSystem(
            qubit=dynamics.ModeParams(
                dev["f_q"], decay_rate=dev["gamma_q"], anharmonicity=dev["E_C"],
                dephasing_rate=dev["dephasing_q"],
            ),
            snail=dynamics.ModeParams(dev["f_r"], decay_rate=dev["gamma_s"]),
            mech=dynamics.ModeParams(
                dev["f_m"], decay_rate=dev["gamma_m"], dephasing_rate=dev["dephasing_m"],
            ),
            g_qs=dev["g_qs"],
            g_sm=dev["g_sm"],
            g3=dev["g3"],
        )
        self.drive = dynamics.DriveSpec(frequency=dev["f_q"] - dev["f_m"], n_photons=dev["n_s"])
        if state == "e0":
            amplitudes = {(1, 0): 1.0}
            self.rho0 = None  # iswap's own |e,0> write state
        else:
            amplitudes = MULTI_STATE
            psi = np.zeros(2 * d_m, dtype=complex)
            for level, amplitude in amplitudes.items():
                psi[np.ravel_multi_index(level, (2, d_m))] = amplitude
            self.rho0 = dynamics.DensityMatrix.from_state_vector((2, d_m), psi)
        self.gate_time = 1.0 / (4.0 * dev["g_eff"])
        self.reference = reference_populations(dev, amplitudes, d_m, dissipative, self.gate_time)

    def run(self):
        return dynamics.iswap(
            self.system, self.drive, rho0=self.rho0, d_m=self.d_m, dissipation=self.dissipative,
        )

    def check(self, result) -> None:
        g_eff = self.device["g_eff"]
        expect_close("g_eff_hz", result.g_eff_hz, g_eff, rel=1e-9)
        expect_close("gate_time", result.gate_time, self.gate_time, rel=1e-9)
        expect_close("t_iswap", result.t_iswap, 1.0 / (2.0 * g_eff), rel=1e-9)
        for key, expected in self.reference.items():
            expect_close(f"population {key}", result.populations[key], expected,
                         abs_tol=POPULATION_TOL)
        if not self.dissipative:
            expect_close("transfer_time", result.transfer_time, self.gate_time,
                         rel=TRANSFER_TIME_REL)
        rho = np.asarray(result.rho_final.matrix)
        expect(rho.shape == (2 * self.d_m, 2 * self.d_m), f"final state shape {rho.shape}")
        expect_close("trace", np.trace(rho).real, 1.0, abs_tol=1e-9)
        expect(float(np.max(np.abs(rho - rho.conj().T))) <= 1e-10, "final state not Hermitian")
        expect(float(np.min(np.linalg.eigvalsh(rho))) >= -1e-9, "final state not positive")
        # the record grid may hold fewer than n_records samples
        n = len(result.times)
        expect(n >= 2 and len(result.pop_g1) == n and len(result.pop_e0) == n,
               "population series do not match the time grid")
        expect(result.times[0] == 0.0 and bool(np.all(np.diff(result.times) > 0.0)),
               "time grid does not start at 0 and increase")


IN_PROCESS = True


def make_tasks(rng, ctx) -> list:
    return [SwapTask(rng, ctx.config, *spec) for spec in SPECS]
