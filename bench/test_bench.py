"""Tests of the benchmark itself: its aggregation, and that every output
check rejects a deliberately wrong result.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import characterize
import cli_session
import crystal_design
import harness
import run
import swap_gate
import tracing
from harness import CheckFailed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FakeTask:
    def __init__(self, clock, label, seconds, fail=False, wrong=False):
        self.clock, self.label, self.seconds = clock, label, seconds
        self.fail, self.wrong = fail, wrong

    def run(self):
        self.clock.now += self.seconds
        if self.fail:
            raise RuntimeError("boom")
        return self.label

    def check(self, output):
        harness.expect(not self.wrong, "wrong output")


def test_rounds_attempt_whole_task_lists_and_count_failures(capsys):
    clock = FakeClock()
    tasks = [FakeTask(clock, "a", 1.0), FakeTask(clock, "b", 2.0, fail=True),
             FakeTask(clock, "c", 3.0, wrong=True)]
    stats = harness.run_rounds(tasks, seconds=10.0, clock=clock)
    # 6 s per round: the second round crosses 10 s and is finished
    assert stats.rounds == 2
    assert stats.attempted == 6
    assert stats.failed == 2
    assert stats.task_seconds == [[1.0, 1.0], [], [3.0, 3.0]]
    assert stats.busy_seconds == 12.0
    assert stats.mismatches == ["c: CheckFailed: wrong output"] * 2
    assert "task b failed" in capsys.readouterr().err


def test_setup_probes_are_spread_over_the_run():
    clock = FakeClock()
    tasks = [FakeTask(clock, "a", 1.0), FakeTask(clock, "b", 2.0)]
    made = []

    def probe(k):
        made.append((k, clock.now))
        return 0.5 + k

    stats = harness.run_rounds(tasks, seconds=10.0, clock=clock, probe=probe, probes=4)
    # due at 0, 2.5, 5 and 7.5 s of timed work; the tasks start at 0, 1, 3, 4, 6, 7, 9 and 10 s
    assert made == [(0, 0.0), (1, 3.0), (2, 6.0), (3, 9.0)]
    assert stats.setup_seconds == [0.5, 1.5, 2.5, 3.5]
    # a run shorter than the spacing still makes every probe, after its last round
    made.clear()
    stats = harness.run_rounds(tasks[:1], seconds=0.5, clock=clock, probe=probe, probes=3)
    assert [k for k, _ in made] == [0, 1, 2]
    assert stats.rounds == 1


def test_end_to_end_metrics_are_medians_and_ratios():
    stats = harness.RunStats(task_seconds=[[0.3, 0.2], [0.1], [0.5, 0.4]],
                             busy_seconds=2.0, attempted=6, failed=1,
                             setup_seconds=[0.9, 0.5, 0.7])
    metrics = harness.end_to_end(stats, 2048)
    # per-task means 0.25, 0.1 and 0.45 s
    assert metrics == {"tasks_per_s": 3.0, "task_p50_ms": pytest.approx(250.0),
                       "setup_s": 0.7, "peak_rss_mb": 2.0}


def test_layer_metrics_from_spans():
    spans = [
        ["dynamics.iswap", 0.0, 1.0, None, 0],
        ["dynamics.evolve", 0.1, 0.3, 0, 0],
        ["dynamics.evolve", 0.4, 0.9, 0, 0],
        ["dynamics.iswap", 2.0, 2.4, None, 1],
        ["dynamics.evolve", 2.0, 2.1, 3, 1],
        ["dynamics.evolve", 2.1, 2.2, 3, 1],
        ["dynamics.iswap", 5.0, 9.0, None, None],  # outside any task
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["dynamics.iswap_ms"] == pytest.approx(700.0)
    assert metrics["dynamics.iswap_self_ms"] == pytest.approx(250.0)
    assert metrics["dynamics.evolve_ms"] == pytest.approx(150.0)
    assert metrics["dynamics.evolve_calls"] == 2.0
    assert metrics["duffing.sweep_ms"] == 0.0
    assert metrics["losses.total_q_inverse_calls"] == 0.0
    assert set(metrics) == set(tracing.metric_units())
    assert tracing.layer_shares(spans, 2.0) == {
        "dynamics.evolve": pytest.approx(0.45), "dynamics.iswap": pytest.approx(0.7)}


def test_tracer_wraps_module_attributes(monkeypatch):
    from qmem import dynamics

    tracer = tracing.Tracer()
    monkeypatch.setattr(tracing, "LAYERS", (("dynamics", "hybridized_decay"), ("dynamics", "dress")))
    original = (dynamics.hybridized_decay, dynamics.dress)
    try:
        tracer.install()
        tracer.task = 7
        assert dynamics.hybridized_decay(1.0, 0.5, 4.0) == 2.0
    finally:
        dynamics.hybridized_decay, dynamics.dress = original
    assert [s[0] for s in tracer.spans] == ["dynamics.hybridized_decay"]
    assert tracer.spans[0][3:] == [None, 7]


def test_benchmark_json_lists_every_metric():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    with open(run.CONFIG) as fh:
        config = json.load(fh)
    return run.Context(run.ROOT, run.BENCH, tmp_path_factory.mktemp("work"), config, run.child_env())


def rejects(task, output):
    with pytest.raises(CheckFailed):
        task.check(output)


def test_swap_gate_checks(ctx):
    rng = np.random.default_rng(3)
    for spec in ((5, "e0", True), (6, "multi", False)):
        task = swap_gate.SwapTask(rng, ctx.config, *spec)
        result = task.run()
        task.check(result)
        populations = dict(result.populations, g1=result.populations["g1"] + 1e-4)
        rejects(task, dataclasses.replace(result, populations=populations))
        rejects(task, dataclasses.replace(result, g_eff_hz=result.g_eff_hz * (1 + 1e-6)))
    rejects(task, dataclasses.replace(result, transfer_time=result.transfer_time * 1.002))
    scaled = SimpleNamespace(matrix=result.rho_final.matrix * 1.001)
    rejects(task, dataclasses.replace(result, rho_final=scaled))


def test_crystal_design_checks(ctx):
    rng = np.random.default_rng(4)
    design = crystal_design.draw_design(rng, ctx.config, "reference")
    first = crystal_design.DesignTask(design, "reference", 9)
    second = crystal_design.DesignTask(design, "reference", 10, first)
    first.check(first.run())
    out = second.run()
    second.check(out)

    gap = out["gaps"][0]
    rejects(second, dict(out, gaps=[dataclasses.replace(gap, f_low=gap.f_low + 1e3)]))
    mode = out["mode"]
    rejects(second, dict(out, mode=dataclasses.replace(mode, radiative_q=mode.radiative_q * 1.05)))
    rejects(second, dict(out, mode=dataclasses.replace(mode, frequency=mode.frequency + 1e3)))
    spectrum = out["spectrum"].copy()
    spectrum[5000] += 1e-4
    rejects(second, dict(out, spectrum=spectrum))
    profile = list(out["profile"])
    profile[0] = (0, profile[0][1] * 1.01)
    rejects(second, dict(out, profile=profile))
    scan = list(out["scan"])
    scan[1] = (scan[1][0], scan[1][1] * (1 + 1e-6))
    rejects(second, dict(out, scan=scan))
    n, scaled, g = out["couplings"][4]
    rejects(second, dict(out, couplings=out["couplings"][:4] + [(n, scaled, g * 1.001)]))
    # the Q ratio between mirror counts: scale the first Q, keep the second
    first.last = dataclasses.replace(first.last, radiative_q=first.last.radiative_q * 1.05)
    rejects(second, out)


def test_characterize_checks(ctx):
    task = characterize.DeviceTask(np.random.default_rng(5), ctx.config, 0)
    out = task.run()
    task.check(out)
    rejects(task, dict(out, lorentzian=dataclasses.replace(out["lorentzian"], Q=out["lorentzian"].Q * 1.05)))
    rejects(task, dict(out, ringdown=dataclasses.replace(out["ringdown"], tau=out["ringdown"].tau * 1.05)))
    rejects(task, dict(out, bvd=dataclasses.replace(out["bvd"], Cm=out["bvd"].Cm * 1.05)))
    stack = out["loss_stack"].stack
    floor = dataclasses.replace(stack.channels[2], q_value=stack.channels[2].q_value * 0.8)
    worse = dataclasses.replace(stack, channels=stack.channels[:2] + (floor,))
    rejects(task, dict(out, loss_stack=dataclasses.replace(out["loss_stack"], stack=worse)))
    amps = out["forward"].amplitudes.copy()
    amps[0] *= 1 + 1e-4
    rejects(task, dict(out, forward=dataclasses.replace(out["forward"], amplitudes=amps)))
    lo, hi = out["forward"].bistable_range
    rejects(task, dict(out, forward=dataclasses.replace(out["forward"], bistable_range=(lo, hi + 1e3))))
    fit = out["backbone_fit"]
    rejects(task, dict(out, backbone_fit=dataclasses.replace(fit, A=fit.A * 1.05)))
    rejects(task, dict(out, backbone_fit=dataclasses.replace(fit, n=fit.n * 1.05)))


def test_cli_session_checks(ctx):
    tasks = cli_session.make_tasks(np.random.default_rng(6), ctx)
    session = tasks[0].session
    with pytest.raises(CheckFailed):
        cli_session.strict_json('{"g_eff_Hz": Infinity}')
    with pytest.raises(CheckFailed):
        cli_session.strict_json('{"fidelity": NaN}')

    dev = session.device
    g_sm = 0.5 * math.sqrt(dev["f_r"] * dev["f_m"]) * math.sqrt(dev["Cm"] / (dev["Cr"] + dev["Cm"] + dev["C0"]))
    g_eff = 6 * dev["g3"] * dev["lambda_qs"] * g_sm / (dev["f_r"] - dev["f_m"]) * math.sqrt(dev["n_s"])
    couple = {key: 0.0 for key in session.couple_keys}
    couple.update(n_defects=1, g_sm_Hz=g_sm, g_eff_Hz=g_eff, T_transfer_s=1 / (4 * g_eff),
                  T_iswap_s=1 / (2 * g_eff))
    check = cli_session.check_couple(1)
    check(session, couple)
    with pytest.raises(CheckFailed):
        check(session, dict(couple, g_eff_Hz=g_eff * (1 + 1e-6)))
    with pytest.raises(CheckFailed):
        check(session, {k: v for k, v in couple.items() if k != "eta_abs"})

    f_mode, q = session.mode
    bandgap = {"gaps_Hz": [list(session.gap)],
               "defect_mode": {"frequency_Hz": f_mode, "radiative_Q": q, "localization_length_m": 1e-4}}
    cli_session.check_bandgap(session, bandgap)
    with pytest.raises(CheckFailed):
        cli_session.check_bandgap(session, dict(bandgap, gaps_Hz=[[session.gap[0] + 1e3, session.gap[1]]]))

    res = session.fits.resonance
    cli_session.check_lorentzian(session, {"f0_Hz": res["f0"], "Q": res["Q"]})
    with pytest.raises(CheckFailed):
        cli_session.check_lorentzian(session, {"f0_Hz": res["f0"], "Q": res["Q"] * 1.05})
    with pytest.raises(CheckFailed):
        cli_session.check_ringdown(session, {"tau_s": session.fits.tau * 1.05})

    bvd = session.fits.bvd
    fitted = {"C0_F": bvd.C0, "Cm_F": bvd.Cm, "Lm_H": bvd.Lm}
    cli_session.check_bvd(session, fitted)
    with pytest.raises(CheckFailed):
        cli_session.check_bvd(session, dict(fitted, Cm_F=bvd.Cm * 1.05))

    truth = [dict(vars(ch), type=type(ch).__name__) for ch in session.fits.stack.channels]
    cli_session.check_qvt(session, {"channels": truth})
    floor = dict(truth[2], q_value=truth[2]["q_value"] * 0.8)
    with pytest.raises(CheckFailed):
        cli_session.check_qvt(session, {"channels": truth[:2] + [floor]})

    duff = session.fits.duffing
    lo, hi = session.bistable
    f_peak = hi - 0.5 * (session.sweep_window[1] - session.sweep_window[0]) / (cli_session.DUFFING_POINTS - 1)
    b, d = 0.75 * duff["beta"], duff["f0"] ** 2 - f_peak**2
    roots = np.roots([b * b, 2 * b * d, d * d + (duff["f0"] * f_peak / duff["Q"]) ** 2, -duff["drive"] ** 2])
    a_peak = math.sqrt(max(r.real for r in roots if abs(r.imag) < 1e-9 * abs(r)))
    sweep = {"bistable_range_Hz": [lo, hi], "peak_frequency_Hz": f_peak, "peak_amplitude": a_peak}
    cli_session.check_duffing_sweep(session, sweep)
    with pytest.raises(CheckFailed):
        cli_session.check_duffing_sweep(session, dict(sweep, bistable_range_Hz=[lo, hi + 1e3]))
    with pytest.raises(CheckFailed):
        cli_session.check_duffing_sweep(session, dict(sweep, peak_amplitude=a_peak * (1 + 1e-4)))


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "REQUIRED", (tmp_path / "src" / "qmem" / "cli.py",))
    assert run.main(["--workload", "swap_gate", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
