"""Workload ``crystal_design``: a design sweep of the phononic crystal.

Each design draws a defect stretch and, for reference-contrast mirrors,
a gap fraction; strong mirrors have the fixed high contrast of
``phonon_chain.strong_chain``.  Every design is evaluated at two
consecutive mirror-cell counts (``DESIGNS``), one task each.  A task runs
``find_band_gaps``, ``find_defect_mode``, a 10k-point ``transmission``
spectrum across the gap, ``mode_profile``, ``photoelastic.
mode_profile_scan`` and, for 1 to 10 defect periods,
``electromech.scale_defects`` with ``coupling_rate_gsm``.

Checks, all computed here and not by qmem:
- gap edges against the closed form of a quarter-wave stack;
- the defect mode against this module's own transfer-matrix model
  (Chebyshev powers of the cell matrix), including |t|^2 = 1 at the mode;
- |t|^2 + |r|^2 = 1 and |t|^2 against the own model over the spectrum;
- the radiative-Q ratio of consecutive mirror counts against
  exp(2 kappa a), kappa a from the closed-form dispersion;
- the mode profile is 1 at the defect and symmetric;
- the scan follows J1(M a)/J1(M) of the local envelope a;
- ``scale_defects`` keeps f_s, and ``coupling_rate_gsm`` equals
  1/2 sqrt(f_r f_m) sqrt(N Cm/(Cr + N (Cm + C0))).

Strong-mirror designs stop at 10 cells per side: from 14 cells on
``find_defect_mode`` cannot resolve the linewidth (see CHANGES.md).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import j1

from circuit import coupling_rate, lc_frequency
from harness import expect, expect_close
from qmem import electromech, phonon_chain, photoelastic

F_CENTER = 100e6
SPECTRUM_POINTS = 10_000
DEFECT_PERIODS = range(1, 11)
# (mirror kind, consecutive mirror-cell counts per side)
DESIGNS = (
    ("reference", (4, 5)),
    ("reference", (6, 7)),
    ("strong", (6, 7)),
    ("reference", (9, 10)),
    ("strong", (9, 10)),
)

# quartz, 1064 nm probe, polarization along X (p12)
N_O, N_E, P12 = 1.528, 1.536, 0.27
# find_defect_mode refines the mode to 1 Hz and the half-maximum edges
# to brentq's xtol of 1e-3 Hz
MODE_TOL_HZ = 1.0
EDGE_TOL_HZ = 1e-3


def _segment(f, length, speed, impedance):
    theta = 2.0 * math.pi * f * length / speed
    m = np.empty(np.shape(f) + (2, 2), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = np.cos(theta)
    m[..., 0, 1] = 1j * impedance * np.sin(theta)
    m[..., 1, 0] = 1j * np.sin(theta) / impedance
    return m


def _cell(f, cell):
    """Transfer matrix of one period rendered half narrow | wide | half narrow."""
    narrow, wide = cell.segments
    half = _segment(f, narrow.length / 2.0, narrow.sound_speed, narrow.acoustic_impedance)
    return half @ _segment(f, wide.length, wide.sound_speed, wide.acoustic_impedance) @ half


def _power(m, n: int):
    """m^n of unimodular 2x2 matrices: U_{n-1}(x) m - U_{n-2}(x) I, x = tr(m)/2."""
    if n == 0:
        return np.broadcast_to(np.eye(2, dtype=complex), m.shape).copy()
    x = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    u_prev, u = np.zeros_like(x), np.ones_like(x)
    for _ in range(n - 1):
        u_prev, u = u, 2.0 * x * u - u_prev
    out = u[..., None, None] * m
    out[..., 0, 0] -= u_prev
    out[..., 1, 1] -= u_prev
    return out


def reference_matrix(chain, f):
    """Transfer matrix mirror^N . defect . mirror^N of the whole chain."""
    mirrors = _power(_cell(f, chain.mirror_cell), chain.mirror_cells_per_side)
    return mirrors @ _cell(f, chain.defect_cell) @ mirrors


def reference_scattering(chain, f):
    """Transmission and reflection amplitudes (t, r) between matched ends."""
    m = reference_matrix(chain, f)
    z = chain.termination_impedance
    denom = m[..., 0, 0] + m[..., 0, 1] / z + z * m[..., 1, 0] + m[..., 1, 1]
    return 2.0 / denom, (m[..., 0, 0] + m[..., 0, 1] / z - z * m[..., 1, 0] - m[..., 1, 1]) / denom


def _residual(chain, f):
    # symmetric lossless chain: M01 = i b, M10 = i c and |t|^2 = 1/(1 + h^2/4)
    # with h = b/Z - Z c, so h = 0 at the mode and |h| = 2 at half maximum
    m = reference_matrix(chain, np.atleast_1d(f))
    z = chain.termination_impedance
    h = m[..., 0, 1].imag / z - z * m[..., 1, 0].imag
    return h if np.ndim(f) else float(h[0])


def quarter_wave_gap(cell) -> tuple[float, float]:
    """First gap of a quarter-wave stack: f_c (1 -+ (2/pi) asin((r-1)/(r+1)))."""
    narrow, wide = cell.segments
    f_c = narrow.sound_speed / (4.0 * narrow.length)
    r = wide.acoustic_impedance / narrow.acoustic_impedance
    half_width = (2.0 / math.pi) * math.asin(abs(r - 1.0) / (r + 1.0))
    return f_c * (1.0 - half_width), f_c * (1.0 + half_width)


def kappa_a(cell, f: float) -> float:
    """Per-cell decay from the closed-form Bloch dispersion."""
    narrow, wide = cell.segments
    th1 = 2.0 * math.pi * f * narrow.length / narrow.sound_speed
    th2 = 2.0 * math.pi * f * wide.length / wide.sound_speed
    r = wide.acoustic_impedance / narrow.acoustic_impedance
    cos_qa = math.cos(th1) * math.cos(th2) - 0.5 * (r + 1.0 / r) * math.sin(th1) * math.sin(th2)
    return math.acosh(abs(cos_qa))


def reference_mode(chain, gap: tuple[float, float]) -> tuple[float, float]:
    """Defect-mode frequency and radiative Q of the own model.

    The mode is the zero of h nearest the gap centre, the linewidth the
    distance between the two points with |h| = 2.
    """
    lo, hi = gap
    margin = 0.01 * (hi - lo)
    grid = np.linspace(lo + margin, hi - margin, 4001)
    h = _residual(chain, grid)
    roots = [
        brentq(lambda f: _residual(chain, f), grid[i], grid[i + 1], xtol=1e-6, rtol=1e-15)
        for i in np.nonzero(np.sign(h[:-1]) * np.sign(h[1:]) < 0)[0]
    ]
    f_mode = min(roots, key=lambda f: abs(f - 0.5 * (lo + hi)))

    def half_max(direction: int) -> float:
        step = 1e-9 * f_mode
        while abs(_residual(chain, f_mode + direction * step)) < 2.0:
            step *= 2.0
        return brentq(lambda f: abs(_residual(chain, f)) - 2.0, f_mode,
                      f_mode + direction * step, xtol=1e-6, rtol=1e-15)

    return f_mode, f_mode / (half_max(+1) - half_max(-1))


def draw_design(rng, config: dict, kind: str) -> dict:
    bvd, shunt, optics = config["bvd"], config["shunt"], config["optics"]
    return {
        "stretch": rng.uniform(2.0, 2.4),
        "gap_fraction": rng.uniform(0.16, 0.24) if kind == "reference" else None,
        "bvd": electromech.BvdParams(
            C0=bvd["C0_F"] * rng.uniform(0.9, 1.1),
            Cm=bvd["Cm_F"] * rng.uniform(0.9, 1.1),
            Lm=bvd["Lm_H"] * rng.uniform(0.9, 1.1),
        ),
        "shunt": electromech.ShuntCircuit(
            Cr=shunt["Cr_F"] * rng.uniform(0.9, 1.1), Lr=shunt["Lr_H"] * rng.uniform(0.9, 1.1),
        ),
        "plate": optics["plate_thickness_m"],
        "wavelength": optics["wavelength_m"],
        "defect_width": optics["defect_width_m"],
        # peak modulation depth M between 0.02 and 0.1
        "modulation": rng.uniform(0.02, 0.1),
    }


class DesignTask:
    def __init__(self, design: dict, kind: str, n_mirror: int, previous=None):
        self.label = f"{kind} N={n_mirror}"
        self.n_mirror, self.previous, self.last = n_mirror, previous, None
        if kind == "reference":
            self.chain = phonon_chain.reference_chain(
                n_mirror=n_mirror, width_scale=design["stretch"],
                gap_fraction=design["gap_fraction"], f_center=F_CENTER,
            )
        else:
            self.chain = phonon_chain.strong_chain(n_mirror=n_mirror, width_scale=design["stretch"])
        cell = self.chain.mirror_cell
        self.gap = quarter_wave_gap(cell)
        self.mode = reference_mode(self.chain, self.gap)
        self.kappa_a = kappa_a(cell, self.mode[0])
        self.bvd, self.shunt = design["bvd"], design["shunt"]
        self.optics = photoelastic.OpticalConfig(
            plate_thickness=design["plate"], wavelength=design["wavelength"], n_o=N_O, n_e=N_E,
        )
        k0 = 2.0 * math.pi / design["wavelength"]
        self.modulation = design["modulation"]
        strain = self.modulation / (k0 * design["plate"] * N_O**3 * P12)
        self.defect_width = design["defect_width"]
        self.u0 = strain * self.defect_width / math.pi

    def run(self) -> dict:
        gaps = phonon_chain.find_band_gaps(
            self.chain.mirror_cell, 0.5 * F_CENTER, 1.5 * F_CENTER, 1e-3 * F_CENTER,
        )
        mode = phonon_chain.find_defect_mode(self.chain, gaps[0])
        freqs = np.linspace(gaps[0].f_low, gaps[0].f_high, SPECTRUM_POINTS)
        spectrum = phonon_chain.transmission(self.chain, freqs)
        profile = phonon_chain.mode_profile(self.chain, mode)
        wave = photoelastic.StandingWaveMode(
            defect_width=self.defect_width, amplitude=self.u0, frequency=mode.frequency,
        )
        scan = photoelastic.mode_profile_scan(profile, self.optics, wave)
        couplings = []
        for n in DEFECT_PERIODS:
            scaled = electromech.scale_defects(self.bvd, electromech.DefectArraySpec(n))
            couplings.append((n, scaled, electromech.coupling_rate_gsm(scaled, self.shunt)))
        return {"gaps": gaps, "mode": mode, "freqs": freqs, "spectrum": spectrum,
                "profile": profile, "scan": scan, "couplings": couplings}

    def check(self, out: dict) -> None:
        self.last = None
        gap = out["gaps"][0]
        expect_close("gap low edge", gap.f_low, self.gap[0], abs_tol=1.0)
        expect_close("gap high edge", gap.f_high, self.gap[1], abs_tol=1.0)

        mode = out["mode"]
        f_ref, q_ref = self.mode
        fwhm = f_ref / q_ref
        expect_close("mode frequency", mode.frequency, f_ref, abs_tol=MODE_TOL_HZ)
        t, _ = reference_scattering(self.chain, np.array([mode.frequency]))
        floor = 1.0 / (1.0 + (2.0 * MODE_TOL_HZ / fwhm) ** 2) - 1e-9
        expect(abs(t[0]) ** 2 >= floor, f"|t|^2 = {abs(t[0]) ** 2!r} at the mode, below {floor!r}")
        expect_close("radiative Q", mode.radiative_q, q_ref, rel=1e-3 + 4.0 * EDGE_TOL_HZ / fwhm)
        cell = self.chain.mirror_cell
        expect_close("localization length", mode.localization_length,
                     cell.lattice_constant / kappa_a(cell, mode.frequency), rel=1e-9)

        freqs, spectrum = out["freqs"], np.asarray(out["spectrum"])
        expect(spectrum.shape == (SPECTRUM_POINTS,), f"spectrum shape {spectrum.shape}")
        t_ref, _ = reference_scattering(self.chain, freqs)
        deviation = float(np.max(np.abs(spectrum - np.abs(t_ref) ** 2)))
        expect(deviation <= 1e-6, f"|t|^2 deviates from the own model by {deviation:.3g}")
        t_q, r_q = phonon_chain.scattering_amplitudes(self.chain, freqs[::10])
        unitarity = float(np.max(np.abs(np.abs(t_q) ** 2 + np.abs(r_q) ** 2 - 1.0)))
        expect(unitarity <= 1e-9, f"|t|^2 + |r|^2 - 1 reaches {unitarity:.3g}")

        previous = self.previous
        if previous is not None and previous.last is not None:
            # the ratio tends to exp(2 kappa a) as exp(-2 kappa a N); each Q
            # carries the linewidth error of its half-maximum edges
            ratio = mode.radiative_q / previous.last.radiative_q
            bound = 3.0 * math.exp(-2.0 * self.kappa_a * previous.n_mirror) + 4.0 * EDGE_TOL_HZ * (
                1.0 / fwhm + previous.mode[1] / previous.mode[0])
            expect_close("Q ratio per mirror cell", ratio, math.exp(2.0 * self.kappa_a), rel=bound)

        n = self.n_mirror
        amps = [a for _, a in out["profile"]]
        expect(len(amps) == 2 * n + 1, f"profile has {len(amps)} cells")
        expect_close("profile at the defect", amps[n], 1.0, abs_tol=1e-12)
        asymmetry = max(abs(amps[n - k] - amps[n + k]) for k in range(n + 1))
        expect(asymmetry <= 1e-12, f"profile asymmetric by {asymmetry:.3g}")

        expect([p for p, _ in out["scan"]] == [float(i) for i, _ in out["profile"]],
               "scan positions differ from the profile cells")
        for (_, signal), a in zip(out["scan"], amps):
            expect_close("scan signal", signal, j1(self.modulation * a) / j1(self.modulation),
                         rel=1e-9, abs_tol=1e-15)

        bvd, shunt = self.bvd, self.shunt
        f_s = lc_frequency(bvd.Lm, bvd.Cm)
        f_r = lc_frequency(shunt.Lr, shunt.Cr)
        for n_def, scaled, g in out["couplings"]:
            expect_close(f"f_s at N={n_def}", scaled.series_resonance_hz, f_s, rel=1e-12)
            expect_close(f"g_sm at N={n_def}", g,
                         coupling_rate(f_r, f_s, bvd.C0, bvd.Cm, shunt.Cr, n_def), rel=1e-12)
        self.last = mode


IN_PROCESS = True


def make_tasks(rng, ctx) -> list:
    tasks = []
    for kind, counts in DESIGNS:
        design = draw_design(rng, ctx.config, kind)
        previous = None
        for n_mirror in counts:
            previous = DesignTask(design, kind, n_mirror, previous)
            tasks.append(previous)
    return tasks
