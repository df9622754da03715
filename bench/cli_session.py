"""Workload ``cli_session``: short ``qmem`` subcommands, one process each.

A user's session: ``couple`` (also with ``--defects 10``), ``bandgap``,
``fit-lorentzian``, ``ringdown``, ``bvd-fit``, ``qvt`` and
``duffing-sweep``, each run as ``python -m qmem.cli`` on files generated
from the seed.  Interpreter start-up and imports take most of each task,
so this workload shows import cost and the ``cli`` layer; a change to the
numerics should leave it unchanged.

Checks: every subcommand exits 0 and prints strict JSON (no Infinity or
NaN); ``couple`` has the keys of ``tests/data/golden/couple_keys.json``
and the closed-form g_eff and swap times; ``bandgap`` matches the
quarter-wave gap and the own transfer-matrix mode of
``crystal_design``; the fits recover the generating parameters of
``characterize``; the ``duffing-sweep`` peak solves the amplitude
equation at the upper bistable edge.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

import numpy as np

import characterize
import crystal_design
import swap_gate
import tracing
from circuit import coupling_rate
from harness import CheckFailed, expect, expect_close, run_child
from qmem import losses, phonon_chain

CHAIN_CELLS = 6
DEFECTS = 10
DUFFING_POINTS = 1001  # the subcommand's default


def _reject_constant(name):
    raise CheckFailed(f"stdout holds {name}, which is not JSON")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _write_csv(path, header, columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


class Session:
    """The generated inputs of one session, with their references."""

    def __init__(self, rng, ctx):
        work = ctx.work
        config = json.loads(json.dumps(ctx.config))
        self.device = swap_gate.draw_device(rng, config)
        config["system"].update(g3_Hz=self.device["g3"], lambda_qs=self.device["lambda_qs"])
        config["drive"] = {"n_s": self.device["n_s"]}

        self.chain_params = {"gap_fraction": rng.uniform(0.16, 0.24),
                             "width_scale": rng.uniform(2.0, 2.4)}
        config["chain"] = {"mirror_cells_per_side": CHAIN_CELLS,
                           "gap_fraction": self.chain_params["gap_fraction"],
                           "defect_width_scale": self.chain_params["width_scale"]}
        chain = phonon_chain.reference_chain(n_mirror=CHAIN_CELLS, **self.chain_params)
        self.gap = crystal_design.quarter_wave_gap(chain.mirror_cell)
        self.mode = crystal_design.reference_mode(chain, self.gap)

        dev = self.fits = characterize.DeviceTask(rng, ctx.config, 0)
        duff = dev.duffing
        config["duffing"] = {"f0_Hz": duff["f0"], "Q": duff["Q"],
                             "beta_Hz2_per_m2": duff["beta"], "drive_m_Hz2": duff["drive"]}
        self.sweep_window = (duff["f0"] * (1 - 100 / duff["Q"]), duff["f0"] * (1 + 100 / duff["Q"]))
        self.bistable = characterize.bistable_range(duff, *self.sweep_window)
        template = dev.template.channels
        config["loss_stack"] = [
            {"type": "zener", "delta": template[0].delta, "tau0_s": template[0].tau0,
             "activation_temp_K": template[0].activation_temp},
            {"type": "power_law", "coefficient": template[1].coefficient,
             "exponent": template[1].exponent},
            {"type": "constant", "q_value": template[2].q_value},
        ]

        self.paths = {name: str(work / name) for name in (
            "config.json", "lorentzian.csv", "ringdown.csv", "admittance.csv", "qvt.csv")}
        with open(self.paths["config.json"], "w") as fh:
            json.dump(config, fh)
        trace = dev.lorentzian
        _write_csv(self.paths["lorentzian.csv"], ("f_Hz", "mag"),
                   (trace.frequencies, np.abs(trace.response)))
        _write_csv(self.paths["ringdown.csv"], ("t_s", "amp"),
                   (dev.ringdown.times, dev.ringdown.amplitude))
        y = dev.admittance.response
        _write_csv(self.paths["admittance.csv"], ("f_Hz", "ReY_S", "ImY_S"),
                   (dev.admittance.frequencies, y.real, y.imag))
        _write_csv(self.paths["qvt.csv"], ("T_K", "Q", "sigma_Q"),
                   (dev.qvt.temperatures, dev.qvt.q_values, dev.qvt.sigma_q))
        with open(ctx.root / "tests" / "data" / "golden" / "couple_keys.json") as fh:
            self.couple_keys = sorted(json.load(fh)["keys"])


class CliTask:
    def __init__(self, session: Session, ctx, index: int, args: list, check):
        self.label = "qmem " + " ".join(os.path.basename(a) for a in args)
        self.session, self.ctx, self.args, self._check = session, ctx, args, check
        self.stdout = ctx.work / f"task{index}.out"
        self.stderr = ctx.work / f"task{index}.err"
        self.spans = ctx.work / f"task{index}.spans"

    def run(self):
        ctx = self.ctx
        if ctx.tracer is None:
            argv = [sys.executable, "-m", "qmem.cli", *self.args]
        else:
            argv = [sys.executable, str(ctx.bench / "launch.py"), "cli", str(self.spans), *self.args]
        code, rss_kb = run_child(argv, ctx.env, ctx.root, self.stdout, self.stderr)
        ctx.child_rss_kb.append(rss_kb)
        if ctx.tracer is not None:
            ctx.tracer.merge(tracing.read_spans(self.spans), ctx.tracer.task)
        return code

    def check(self, code) -> None:
        err = self.stderr.read_text()
        expect(code == 0, f"exit code {code}: {err.strip()[-300:]}")
        self._check(self.session, strict_json(self.stdout.read_text()))


def check_couple(n_defects):
    def check(session: Session, payload: dict) -> None:
        expect(sorted(payload) == session.couple_keys, f"couple keys {sorted(payload)}")
        dev = session.device
        g_sm = coupling_rate(dev["f_r"], dev["f_m"], dev["C0"], dev["Cm"], dev["Cr"], n_defects)
        lambda_sm = g_sm / (dev["f_r"] - dev["f_m"])
        g_eff = 6.0 * dev["g3"] * dev["lambda_qs"] * lambda_sm * math.sqrt(dev["n_s"])
        expect(payload["n_defects"] == n_defects, f"n_defects {payload['n_defects']}")
        expect_close("g_sm_Hz", payload["g_sm_Hz"], g_sm, rel=1e-9)
        expect_close("g_eff_Hz", payload["g_eff_Hz"], g_eff, rel=1e-9)
        expect_close("T_transfer_s", payload["T_transfer_s"], 1.0 / (4.0 * g_eff), rel=1e-9)
        expect_close("T_iswap_s", payload["T_iswap_s"], 1.0 / (2.0 * g_eff), rel=1e-9)
    return check


def check_bandgap(session: Session, payload: dict) -> None:
    expect(len(payload["gaps_Hz"]) == 1, f"{len(payload['gaps_Hz'])} gaps")
    (low, high), = payload["gaps_Hz"]
    expect_close("gap low edge", low, session.gap[0], abs_tol=1.0)
    expect_close("gap high edge", high, session.gap[1], abs_tol=1.0)
    f_ref, q_ref = session.mode
    mode = payload["defect_mode"]
    expect(mode is not None, "no defect mode")
    expect_close("mode frequency", mode["frequency_Hz"], f_ref, abs_tol=crystal_design.MODE_TOL_HZ)
    expect_close("radiative Q", mode["radiative_Q"], q_ref,
                 rel=1e-3 + 4.0 * crystal_design.EDGE_TOL_HZ * q_ref / f_ref)


def check_lorentzian(session: Session, payload: dict) -> None:
    tol, res = characterize.TOLERANCES, session.fits.resonance
    expect_close("f0_Hz", payload["f0_Hz"], res["f0"],
                 abs_tol=tol["lorentzian_f0_linewidths"] * res["f0"] / res["Q"])
    expect_close("Q", payload["Q"], res["Q"], rel=tol["lorentzian_q"])


def check_ringdown(session: Session, payload: dict) -> None:
    expect_close("tau_s", payload["tau_s"], session.fits.tau,
                 rel=characterize.TOLERANCES["ringdown_tau"])


def check_bvd(session: Session, payload: dict) -> None:
    for key, name in (("C0_F", "C0"), ("Cm_F", "Cm"), ("Lm_H", "Lm")):
        expect_close(key, payload[key], getattr(session.fits.bvd, name),
                     rel=characterize.TOLERANCES["bvd"])


def check_qvt(session: Session, payload: dict) -> None:
    kinds = {"ZenerChannel": (losses.ZenerChannel, ("delta", "tau0", "activation_temp")),
             "PowerLawChannel": (losses.PowerLawChannel, ("coefficient", "exponent")),
             "ConstantChannel": (losses.ConstantChannel, ("q_value",))}
    channels = []
    for entry in payload["channels"]:
        cls, names = kinds[entry["type"]]
        channels.append(cls(**{name: entry[name] for name in names}))
    dev = session.fits
    worst = characterize.loss_stack_error(losses.LossStack(tuple(channels)), dev.loss_f, dev.q_true)
    expect(worst <= characterize.TOLERANCES["loss_stack_q"], f"fitted Q(T) off by {worst:.3g}")


def check_duffing_sweep(session: Session, payload: dict) -> None:
    duff = session.fits.duffing
    lo, hi = session.bistable
    edge_tol = characterize.TOLERANCES["bistable_edge"] * duff["f0"]
    expect(payload["bistable_range_Hz"] is not None, "no bistable range reported")
    expect_close("bistable low edge", payload["bistable_range_Hz"][0], lo, abs_tol=edge_tol)
    expect_close("bistable high edge", payload["bistable_range_Hz"][1], hi, abs_tol=edge_tol)
    f_peak, a_peak = payload["peak_frequency_Hz"], payload["peak_amplitude"]
    residual = float(characterize.amplitude_residual(duff, f_peak, a_peak))
    expect(residual <= characterize.TOLERANCES["amplitude_equation"],
           f"peak misses the amplitude equation by {residual:.3g}")
    # a stiffening resonator swept upwards peaks where the upper branch ends
    step = (session.sweep_window[1] - session.sweep_window[0]) / (DUFFING_POINTS - 1)
    expect_close("peak frequency", f_peak, hi, abs_tol=step + edge_tol)


IN_PROCESS = False


def make_tasks(rng, ctx) -> list:
    s = Session(rng, ctx)
    p = s.paths
    commands = (
        (["couple", "--config", p["config.json"]], check_couple(1)),
        (["couple", "--config", p["config.json"], "--defects", str(DEFECTS)], check_couple(DEFECTS)),
        (["bandgap", "--config", p["config.json"]], check_bandgap),
        (["fit-lorentzian", p["lorentzian.csv"]], check_lorentzian),
        (["ringdown", p["ringdown.csv"]], check_ringdown),
        (["bvd-fit", p["admittance.csv"]], check_bvd),
        (["qvt", p["qvt.csv"], "--config", p["config.json"],
          "--frequency-hz", repr(s.fits.loss_f)], check_qvt),
        (["duffing-sweep", "--config", p["config.json"]], check_duffing_sweep),
    )
    return [CliTask(s, ctx, i, args, check) for i, (args, check) in enumerate(commands)]
