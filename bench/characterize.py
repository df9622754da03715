"""Workload ``characterize``: characterise synthetic devices end to end.

Each task characterises one device made from drawn parameters with
seeded noise: ``fit_lorentzian`` on a resonance, ``fit_ringdown`` on a
free decay, ``fit_bvd`` on an admittance trace and ``fit_loss_stack``
on Q(T) data, then one forward/backward ``duffing.sweep`` pair,
``duffing.backbone`` at four drive levels and ``fit_backbone``.  Every
task has the same make-up, so task times have no heavy tail.

Checks, all computed here and not by qmem:
- each fit recovers its generating parameters within ``TOLERANCES``;
- every swept amplitude solves the harmonic-balance equation, the
  bistable range matches this module's own root count of that cubic,
  and the forward and backward sweeps agree outside it;
- the backbone fit gives n = 2 and A = 3 beta/(8 f0).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from circuit import lc_frequency
from harness import expect, expect_close
from qmem import analysis, duffing, electromech, losses
from qmem.core import FrequencyTrace, TimeTrace

DEVICES_PER_ROUND = 3
SWEEP_POINTS = 2001
BACKBONE_LEVELS = (0.5, 0.67, 0.83, 1.0)  # fractions of the device drive
TEMPERATURES = np.geomspace(4.0, 300.0, 40)

# relative tolerances: at least four times the largest error seen over 40
# drawn devices, and below the 5 % error they must reject.  The backbone
# f = sqrt(f0^2 + 3/4 beta a^2) is only approximately f0 + A a^2, which
# sets the n and A errors.
TOLERANCES = {
    "lorentzian_f0_linewidths": 0.02,  # in units of the linewidth f0/Q
    "lorentzian_q": 0.02,
    "ringdown_tau": 0.01,
    "bvd": 0.01,  # C0, Cm and Lm
    "loss_stack_q": 0.02,  # fitted Q(T) against the generating Q(T)
    "amplitude_equation": 1e-8,
    "bistable_edge": 2e-6,  # of f0; qmem refines the edges to 1e-6 f0
    "backbone_n": 0.02,
    "backbone_a": 0.02,
}


def _zener(f_hz: float, t_peak: float, delta: float) -> losses.ZenerChannel:
    activation = 150.0
    tau0 = math.exp(-activation / t_peak) / (2.0 * math.pi * f_hz)
    return losses.ZenerChannel(delta=delta, tau0=tau0, activation_temp=activation)


def stack_q_inverse(stack, f_hz: float, temperature: float) -> float:
    """Summed Q^-1 of Zener, power-law and constant channels."""
    total = 0.0
    for ch in stack.channels:
        if isinstance(ch, losses.ZenerChannel):
            wt = 2.0 * math.pi * f_hz * ch.tau0 * math.exp(ch.activation_temp / temperature)
            total += ch.delta * wt / (1.0 + wt * wt)
        elif isinstance(ch, losses.PowerLawChannel):
            total += ch.coefficient * temperature**ch.exponent
        else:
            total += 1.0 / ch.q_value
    return total


def loss_stack_error(stack, f_hz: float, q_true) -> float:
    """Largest relative deviation of the stack's Q(T) from ``q_true``."""
    q_fit = np.array([1.0 / stack_q_inverse(stack, f_hz, t) for t in TEMPERATURES])
    return float(np.max(np.abs(q_fit / q_true - 1.0)))


def amplitude_residual(p: dict, f, a):
    """Relative residual of a^2 [(f0^2 - f^2 + 3/4 beta a^2)^2 + (f0 f/Q)^2] = F^2."""
    f0, q, beta, drive = p["f0"], p["Q"], p["beta"], p["drive"]
    lhs = a**2 * ((f0**2 - f**2 + 0.75 * beta * a**2) ** 2 + (f0 * f / q) ** 2)
    return np.abs(lhs - drive**2) / drive**2


def _cubic(p: dict, f: float) -> tuple:
    """Coefficients of the amplitude equation as a cubic in u = a^2."""
    b = 0.75 * p["beta"]
    d = p["f0"] ** 2 - f**2
    return b * b, 2.0 * b * d, d * d + (p["f0"] * f / p["Q"]) ** 2, -p["drive"] ** 2


def _discriminant(p: dict, f: float) -> float:
    c3, c2, c1, c0 = _cubic(p, f)
    return (18 * c3 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2**2 * c1**2
            - 4 * c3 * c1**3 - 27 * c3**2 * c0**2)


def bistable_range(p: dict, f_lo: float, f_hi: float):
    """Frequencies where the cubic in a^2 has three real roots, or None.

    The roots are counted with ``np.roots`` on a grid; the edges are
    refined on the cubic's discriminant.
    """
    grid = np.linspace(f_lo, f_hi, 4001)
    three = []
    for f in grid:
        roots = np.roots(_cubic(p, f))
        three.append(int(np.sum(np.abs(roots.imag) <= 1e-9 * np.abs(roots))) == 3)
    idx = np.nonzero(three)[0]
    if idx.size == 0:
        return None

    def edge(i_out, i_in):
        return brentq(lambda f: _discriminant(p, f), grid[i_out], grid[i_in],
                      xtol=1e-9 * p["f0"], rtol=1e-15)

    return edge(idx[0] - 1, idx[0]), edge(idx[-1] + 1, idx[-1])


class DeviceTask:
    def __init__(self, rng, config: dict, index: int):
        self.label = f"device {index}"
        # resonance and ringdown of one mode
        f0 = rng.uniform(96.5e6, 98.0e6)
        q = math.exp(rng.uniform(math.log(3e5), math.log(1e6)))
        self.resonance = {"f0": f0, "Q": q}
        width = f0 / q
        freqs = f0 + width * (rng.uniform(-0.5, 0.5) + np.linspace(-10.0, 10.0, 401))
        background = rng.uniform(0.02, 0.1)
        magnitude = np.abs(background + 1.0 / (1.0 + 2j * q * (freqs - f0) / f0))
        magnitude *= 1.0 + 3e-3 * rng.standard_normal(freqs.size)
        self.lorentzian = FrequencyTrace(freqs, magnitude.astype(complex))
        self.tau = q / (2.0 * math.pi * f0)
        times = np.linspace(0.0, 4.0 * self.tau, 400)
        amp = np.exp(-times / self.tau) + rng.uniform(0.0, 0.02)
        self.ringdown = TimeTrace(times, amp + 1e-3 * rng.standard_normal(times.size))

        # admittance of a lossless BVD mode with multiplicative noise
        bvd = config["bvd"]
        self.bvd = electromech.BvdParams(
            C0=bvd["C0_F"] * rng.uniform(0.9, 1.1),
            Cm=bvd["Cm_F"] * rng.uniform(0.9, 1.1),
            Lm=bvd["Lm_H"] * rng.uniform(0.9, 1.1),
        )
        f_s = lc_frequency(self.bvd.Lm, self.bvd.Cm)
        f_adm = np.linspace(0.997 * f_s, 1.003 * f_s, 400)
        omega = 2.0 * math.pi * f_adm
        y = 1j * omega * self.bvd.C0 + 1.0 / (1j * omega * self.bvd.Lm + 1.0 / (1j * omega * self.bvd.Cm))
        self.admittance = FrequencyTrace(f_adm, y * (1.0 + 1e-3 * rng.standard_normal(f_adm.size)))

        # Q(T) of a three-channel stack and a template away from it
        t_peak = rng.uniform(30.0, 50.0)
        delta = rng.uniform(3e-5, 5e-5)
        coefficient = rng.uniform(1e-10, 3e-10)
        floor = rng.uniform(0.8e6, 1.5e6)
        self.loss_f = f0
        self.stack = losses.LossStack((
            _zener(f0, t_peak, delta),
            losses.PowerLawChannel(coefficient=coefficient, exponent=4.0),
            losses.ConstantChannel(q_value=floor),
        ))
        self.template = losses.LossStack((
            _zener(f0, 0.9 * t_peak, 0.5 * delta),
            losses.PowerLawChannel(coefficient=2.5 * coefficient, exponent=3.7),
            losses.ConstantChannel(q_value=0.7 * floor),
        ))
        self.q_true = np.array([1.0 / stack_q_inverse(self.stack, f0, t) for t in TEMPERATURES])
        q_meas = self.q_true * (1.0 + 2e-3 * rng.standard_normal(TEMPERATURES.size))
        self.qvt = losses.QvsTDataset(TEMPERATURES, q_meas, 2e-3 * q_meas)

        # Duffing resonator driven 6 to 8 times past the onset of bistability
        duff = {"f0": rng.uniform(96.5e6, 98.0e6), "Q": rng.uniform(0.8e4, 1.2e4),
                "beta": 2e21 * rng.uniform(0.8, 1.2)}
        critical = math.sqrt(32.0 * (duff["f0"] ** 2 / duff["Q"]) ** 3
                             / (9.0 * math.sqrt(3.0) * duff["beta"]))
        duff["drive"] = critical * rng.uniform(6.0, 8.0)
        self.duffing = duff
        self.duffing_params = duffing.DuffingParams(duff["f0"], duff["Q"], duff["beta"], duff["drive"])
        a_peak = duff["drive"] * duff["Q"] / duff["f0"] ** 2
        f_peak = math.sqrt(duff["f0"] ** 2 + 0.75 * duff["beta"] * a_peak**2)
        margin = 8.0 * duff["f0"] / duff["Q"]
        self.window = (duff["f0"] - margin, f_peak + margin)
        self.bistable = bistable_range(duff, *self.window)

    def run(self) -> dict:
        p = self.duffing_params
        out = {
            "lorentzian": analysis.fit_lorentzian(self.lorentzian),
            "ringdown": analysis.fit_ringdown(self.ringdown),
            "bvd": electromech.fit_bvd(self.admittance),
            "loss_stack": losses.fit_loss_stack(self.qvt, self.loss_f, self.template),
            "forward": duffing.sweep(p, *self.window, "forward", n_points=SWEEP_POINTS),
            "backward": duffing.sweep(p, *self.window, "backward", n_points=SWEEP_POINTS),
            "backbone": duffing.backbone(p, [fraction * p.drive for fraction in BACKBONE_LEVELS]),
        }
        out["backbone_fit"] = duffing.fit_backbone(out["backbone"])
        return out

    def check(self, out: dict) -> None:
        tol = TOLERANCES
        f0, q = self.resonance["f0"], self.resonance["Q"]
        fit = out["lorentzian"]
        expect_close("Lorentzian f0", fit.f0, f0, abs_tol=tol["lorentzian_f0_linewidths"] * f0 / q)
        expect_close("Lorentzian Q", fit.Q, q, rel=tol["lorentzian_q"])
        expect_close("ringdown tau", out["ringdown"].tau, self.tau, rel=tol["ringdown_tau"])
        for name in ("C0", "Cm", "Lm"):
            expect_close(f"BVD {name}", getattr(out["bvd"], name), getattr(self.bvd, name),
                         rel=tol["bvd"])
        worst = loss_stack_error(out["loss_stack"].stack, self.loss_f, self.q_true)
        expect(worst <= tol["loss_stack_q"], f"fitted Q(T) off by {worst:.3g}")

        d = self.duffing
        forward, backward = out["forward"], out["backward"]
        for name, sweep in (("forward", forward), ("backward", backward)):
            expect(sweep.amplitudes.shape == (SWEEP_POINTS,), f"{name} sweep length")
            worst = float(np.max(amplitude_residual(d, sweep.frequencies, sweep.amplitudes)))
            expect(worst <= tol["amplitude_equation"],
                   f"{name} sweep misses the amplitude equation by {worst:.3g}")
        lo, hi = self.bistable
        expect(forward.bistable_range is not None, "no bistable range reported")
        edge_tol = tol["bistable_edge"] * d["f0"]
        expect_close("bistable low edge", forward.bistable_range[0], lo, abs_tol=edge_tol)
        expect_close("bistable high edge", forward.bistable_range[1], hi, abs_tol=edge_tol)
        outside = (forward.frequencies < lo - edge_tol) | (forward.frequencies > hi + edge_tol)
        gap = float(np.max(np.abs(forward.amplitudes[outside] - backward.amplitudes[outside])
                           / forward.amplitudes[outside]))
        expect(gap <= 1e-9, f"sweeps differ by {gap:.3g} outside the bistable range")

        bb = out["backbone_fit"]
        expect(len(out["backbone"]) == len(BACKBONE_LEVELS), "one backbone point per level")
        expect_close("backbone n", bb.n, 2.0, rel=tol["backbone_n"])
        # A and n are strongly correlated over a narrow amplitude range, so
        # A is compared at the geometric-mean amplitude: A a^(n-2)
        a_mean = math.exp(np.mean(np.log([a for a, _ in out["backbone"]])))
        expect_close("backbone A", bb.A * a_mean ** (bb.n - 2.0), 3.0 * d["beta"] / (8.0 * d["f0"]),
                     rel=tol["backbone_a"])


IN_PROCESS = True


def make_tasks(rng, ctx) -> list:
    return [DeviceTask(rng, ctx.config, i) for i in range(DEVICES_PER_ROUND)]
