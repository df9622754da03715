import csv
import json
import math
import pathlib
import os
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qmem
from qmem import phonon_chain
from qmem.cli import main

CONFIG = "tests/data/reference_config.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_couple_published_numbers(capsys, data_dir):
    payload = run_json(capsys, "couple", "--config", str(data_dir / "reference_config.json"))
    assert 114e3 < payload["g_sm_Hz"] < 126e3
    assert 1.12e9 < payload["f_r_Hz"] < 1.15e9
    assert 18e3 < payload["g_eff_Hz"] < 24e3
    assert 20e-6 < payload["T_iswap_s"] < 28e-6
    assert payload["Gamma_m_prime"] > 0.1
    # the derivation ledger is part of the output
    for key in ("lambda_qs", "lambda_sm", "eta_abs", "f_m_Hz"):
        assert key in payload


def test_couple_defect_scaling_flag(capsys, data_dir):
    config = str(data_dir / "reference_config.json")
    base = run_json(capsys, "couple", "--config", config)
    scaled = run_json(capsys, "couple", "--config", config, "--defects", "10")
    ratio = scaled["g_eff_Hz"] / base["g_eff_Hz"]
    assert ratio == pytest.approx(math.sqrt(10.0), rel=0.15)
    assert 2.5 < ratio < 3.3


@pytest.mark.parametrize("n", ["0", "-3"])
def test_couple_rejects_fewer_than_one_defect(capsys, data_dir, n):
    code, out, err = run_cli(
        capsys, "couple", "--config", str(data_dir / "reference_config.json"), "--defects", n,
    )
    assert code == 2
    assert out == ""
    assert err == "error: N must be >= 1\n"


def test_couple_missing_drive_section(capsys, tmp_path, data_dir):
    config = json.loads((data_dir / "reference_config.json").read_text())
    del config["drive"]
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "couple", "--config", str(path))
    assert code == 2
    assert "/drive" in err


def test_config_rejects_unknown_keys(capsys, tmp_path, data_dir):
    config = json.loads((data_dir / "reference_config.json").read_text())
    config["bvd"]["C0_farads"] = 1e-15
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "couple", "--config", str(path))
    assert code == 2
    assert "/bvd" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_config_rejects_non_finite_numbers(capsys, tmp_path, data_dir, token):
    text = (data_dir / "reference_config.json").read_text()
    path = tmp_path / "non_finite.json"
    path.write_text(text.replace('"C0_F": 8.96e-16', f'"C0_F": {token}', 1))
    assert path.read_text() != text
    code, out, err = run_cli(capsys, "couple", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: non-finite number {token} is not allowed\n"


def test_config_rejects_integer_without_float_value(capsys, tmp_path, data_dir):
    text = (data_dir / "reference_config.json").read_text()
    token = "1" + "0" * 400
    path = tmp_path / "huge_int.json"
    path.write_text(text.replace('"C0_F": 8.96e-16', f'"C0_F": {token}', 1))
    assert path.read_text() != text
    code, out, err = run_cli(capsys, "couple", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: non-finite number {token} is not allowed\n"


@pytest.mark.parametrize("cells", [101, 10**20])
def test_config_bounds_mirror_cells(capsys, tmp_path, cells):
    path = tmp_path / "long_chain.json"
    path.write_text(json.dumps({"chain": {"mirror_cells_per_side": cells}}))
    code, out, err = run_cli(capsys, "bandgap", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "/chain/mirror_cells_per_side" in err and "maximum of 100" in err


@pytest.mark.parametrize("token, cells", [("5.0", 5), ("1e2", 100)])
@pytest.mark.parametrize("command", ["bandgap", "photoelastic-scan"])
def test_integral_float_mirror_cells_match_the_integer(capsys, tmp_path, data_dir, command, token, cells):
    # Draft 2020-12 counts 5.0 as an integer, so the schema admits it
    config = json.loads((data_dir / "reference_config.json").read_text())
    config["chain"] = {"mirror_cells_per_side": "CELLS"}
    payloads = []
    for value in (token, str(cells)):
        path = tmp_path / f"cells_{value}.json"
        path.write_text(json.dumps(config).replace('"CELLS"', value))
        payloads.append(run_json(capsys, command, "--config", str(path)))
    assert payloads[0] == payloads[1]


def test_explicit_g_sm_skips_the_coupling_rate_formula(capsys, tmp_path, data_dir):
    # a billion defects put C0 far above Cr, where the formula warns
    config = json.loads((data_dir / "reference_config.json").read_text())
    path = tmp_path / "explicit_g_sm.json"
    for g_sm, expected_warnings in ((None, 1), (120e3, 0)):
        if g_sm is not None:
            config["system"]["g_sm_Hz"] = g_sm
        path.write_text(json.dumps(config))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            payload = run_json(capsys, "couple", "--config", str(path), "--defects", "1000000000")
        assert len(caught) == expected_warnings
    assert payload["g_sm_Hz"] == 120e3


def test_iswap_dissipation_off(capsys, tmp_path, data_dir):
    out_path = tmp_path / "iswap.csv"
    payload = run_json(
        capsys, "iswap", "--config", str(data_dir / "reference_config.json"),
        "--dissipation", "off", "--out", str(out_path),
    )
    assert payload["populations"]["g1"] > 0.999
    assert payload["swap_fidelity"] > 0.999
    for key in ("t_us", "pop_e0", "pop_g1", "fidelity"):
        assert key in payload and len(payload[key]) > 100
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_us", "pop_e0", "pop_g1", "fidelity"]
    assert len(rows) == len(payload["t_us"]) + 1


def test_iswap_out_writes_one_row_per_record(capsys, tmp_path, data_dir):
    out_path = tmp_path / "iswap.csv"
    payload = run_json(
        capsys, "iswap", "--config", str(data_dir / "reference_config.json"),
        "--dissipation", "on", "--out", str(out_path),
    )
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 1001
    assert float(rows[1][0]) == 0.0
    window_us = 1e6 * 1.25 / (4.0 * payload["g_eff_Hz"])
    assert float(rows[-1][0]) == pytest.approx(window_us, rel=1e-12)


def test_iswap_dissipation_on_fidelity_estimate(capsys, data_dir):
    payload = run_json(
        capsys, "iswap", "--config", str(data_dir / "reference_config.json"),
        "--dissipation", "on",
    )
    gamma_q = 1e4
    prediction = math.exp(-gamma_q * payload["gate_time_s"] / 2.0)
    assert payload["swap_fidelity"] == pytest.approx(prediction, rel=0.05)


@pytest.mark.parametrize("d_m", ["0", "1"])
def test_iswap_rejects_fock_cutoff_below_two(capsys, data_dir, d_m):
    code, out, err = run_cli(
        capsys, "iswap", "--config", str(data_dir / "reference_config.json"), "--d-m", d_m,
    )
    assert code == 2
    assert out == ""
    assert err == "error: mechanics Fock cutoff must be >= 2\n"


@pytest.mark.parametrize("d_m", ["101", "100000"])
def test_iswap_rejects_fock_cutoff_above_cap(capsys, data_dir, d_m):
    code, err = run_one_line_error(
        capsys, "iswap", "--config", str(data_dir / "reference_config.json"), "--d-m", d_m,
    )
    assert code == 2
    assert err == f"error: --d-m must be at most 100, got {d_m}\n"


def test_iswap_runs_at_fock_cutoff_cap(capsys, data_dir):
    payload = run_json(capsys, "iswap", "--config", str(data_dir / "reference_config.json"),
                       "--d-m", "100")
    assert payload["populations"]["g1"] > 0.9


def test_iswap_zero_duration_identity(capsys, tmp_path, data_dir):
    config = json.loads((data_dir / "reference_config.json").read_text())
    config["drive"]["n_s"] = 0.0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(config))
    payload = run_json(capsys, "iswap", "--config", str(path))
    assert payload["populations"]["e0"] == pytest.approx(1.0)


def test_ringdown_bundled_fixture(capsys, data_dir):
    payload = run_json(capsys, "ringdown", str(data_dir / "ringdown_1023us.csv"))
    assert payload["tau_s"] == pytest.approx(1.023e-3, rel=0.01)


def test_fit_lorentzian_bundled_fixture(capsys, data_dir):
    payload = run_json(capsys, "fit-lorentzian", str(data_dir / "lorentzian_q68e4.csv"))
    assert payload["Q"] == pytest.approx(6.8e5, rel=0.02)
    assert payload["f0_Hz"] == pytest.approx(97.2e6, rel=1e-5)


def test_bvd_fit_round_trip(capsys, tmp_path):
    from qmem.core import FrequencyTrace
    from qmem.electromech import BvdParams, bvd_admittance, save_admittance_csv

    params = BvdParams(C0=8.96e-16, Cm=1.38e-19, Lm=18.9)
    f = np.linspace(90e6, 108e6, 201)
    path = tmp_path / "bvd.csv"
    save_admittance_csv(path, FrequencyTrace(f, bvd_admittance(params, f)))
    payload = run_json(capsys, "bvd-fit", str(path))
    assert payload["C0_F"] == pytest.approx(params.C0, rel=1e-3)
    assert payload["Cm_F"] == pytest.approx(params.Cm, rel=1e-3)
    assert payload["Lm_H"] == pytest.approx(params.Lm, rel=1e-3)
    assert payload["f_series_Hz"] == pytest.approx(98.5e6, abs=0.2e6)


def test_bvd_fit_with_motional_resistance(capsys, tmp_path):
    # the lossy trace of test_fit_bvd_lossy_round_trip, Q near 6.8e5
    from qmem.core import FrequencyTrace
    from qmem.electromech import BvdParams, bvd_admittance, save_admittance_csv

    params = BvdParams(C0=8.96e-16, Cm=1.38e-19, Lm=18.9, Rm=17.2e3)
    f = np.linspace(98.49e6, 98.61e6, 801)
    path, out = tmp_path / "bvd.csv", tmp_path / "model.csv"
    save_admittance_csv(path, FrequencyTrace(f, bvd_admittance(params, f)))
    payload = run_json(capsys, "bvd-fit", str(path), "--fit-rm", "--out", str(out))
    assert payload["Rm_Ohm"] == pytest.approx(params.Rm, rel=1e-6, abs=0)
    assert payload["C0_F"] == pytest.approx(params.C0, rel=1e-6, abs=0)
    assert payload["Cm_F"] == pytest.approx(params.Cm, rel=1e-6, abs=0)
    assert payload["Lm_H"] == pytest.approx(params.Lm, rel=1e-6, abs=0)
    with open(out) as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["f_Hz", "ReY_S", "ImY_S"]
    f_out, re_y, im_y = np.array(rows, dtype=float).T
    # the model of the reported parameters, sampled on the trace
    fitted = BvdParams(payload["C0_F"], payload["Cm_F"], payload["Lm_H"], payload["Rm_Ohm"])
    model = bvd_admittance(fitted, f)
    assert np.array_equal(f_out, f)
    assert np.array_equal(re_y, model.real) and np.array_equal(im_y, model.imag)


def test_qvt_fit(capsys, tmp_path, data_dir):
    from qmem.losses import (
        ConstantChannel, LossStack, PowerLawChannel, ZenerChannel, total_q,
    )
    from qmem.core import angular

    f_m = 97.2e6
    truth = LossStack((
        ZenerChannel(delta=4e-5, tau0=math.exp(-150.0 / 40.0) / angular(f_m),
                     activation_temp=150.0),
        PowerLawChannel(coefficient=2e-10, exponent=4.0),
        ConstantChannel(q_value=1.0e6),
    ))
    temps = np.geomspace(4.0, 300.0, 40)
    path = tmp_path / "qvt.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T_K", "Q", "sigma_Q"])
        for t in temps:
            q = total_q(truth, f_m, t)
            writer.writerow([repr(float(t)), repr(float(q)), repr(float(0.01 * q))])
    payload = run_json(
        capsys, "qvt", str(path), "--config", str(data_dir / "reference_config.json"),
        "--frequency-hz", str(f_m),
    )
    power = next(c for c in payload["channels"] if c["type"] == "PowerLawChannel")
    assert power["exponent"] == pytest.approx(4.0, rel=0.01)


def test_duffing_sweep_and_backbone(capsys, tmp_path, data_dir):
    config = json.loads((data_dir / "reference_config.json").read_text())
    config["duffing"] = {"f0_Hz": 97.2e6, "Q": 1e4,
                         "beta_Hz2_per_m2": 2e21, "drive_m_Hz2": 1.5e8}
    path = tmp_path / "duffing.json"
    path.write_text(json.dumps(config))
    out_csv = tmp_path / "sweep.csv"
    payload = run_json(
        capsys, "duffing-sweep", "--config", str(path), "--out", str(out_csv),
    )
    assert payload["bistable_range_Hz"] is not None
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["f_Hz", "amp", "branch"]
    assert rows[1][2] in ("upper", "lower")

    payload = run_json(
        capsys, "backbone", "--config", str(path),
        "--drive-levels", "1e8,1.5e8,2e8,2.5e8,3e8",
    )
    assert payload["n"] == pytest.approx(2.0, abs=0.1)


def test_backbone_without_real_peak_exits_one(capsys, tmp_path, data_dir):
    # an overdamped resonator's response peaks at f = 0
    config = json.loads((data_dir / "reference_config.json").read_text())
    config["duffing"]["Q"] = 0.6
    path = tmp_path / "overdamped.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(
        capsys, "backbone", "--config", str(path), "--drive-levels", "1e8,2e8,3e8,4e8",
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "no real peak" in err


def test_duffing_sweep_undriven_reference_config(capsys, data_dir, tmp_path):
    # the reference config has drive_m_Hz2 = 0: the resonator rests
    out_csv = tmp_path / "sweep.csv"
    payload = run_json(
        capsys, "duffing-sweep", "--config", str(data_dir / "reference_config.json"),
        "--points", "11", "--out", str(out_csv),
    )
    assert payload["bistable_range_Hz"] is None
    assert payload["peak_amplitude"] == 0.0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 11
    assert all(float(amp) == 0.0 for _, amp, _ in rows)


@pytest.mark.parametrize("points", ["0", "-3"])
def test_duffing_sweep_rejects_empty_sweep(capsys, data_dir, points):
    code, out, err = run_cli(
        capsys, "duffing-sweep", "--config", str(data_dir / "reference_config.json"),
        "--points", points,
    )
    assert code == 2
    assert out == ""
    assert "--points" in err and len(err.strip().splitlines()) == 1


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_couple_without_three_wave_mixing_is_strict_json(capsys, tmp_path, data_dir):
    config = json.loads((data_dir / "reference_config.json").read_text())
    config["system"]["g3_Hz"] = 0
    path = tmp_path / "g3_zero.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "couple", "--config", str(path))
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["g_eff_Hz"] == 0.0
    assert payload["T_transfer_s"] is None
    assert payload["T_iswap_s"] is None


def test_bandgap_resolves_high_q_strong_chains(capsys, tmp_path):
    # strong mirrors up to Q ~ 5e15: every count exits 0 and log Q grows
    # by 2 kappa a per added cell, from the mirror's Bloch decay at the mode
    path = tmp_path / "strong.json"
    counts = np.arange(3, 21)
    qs = []
    for cells in counts:
        path.write_text(json.dumps(
            {"chain": {"strong_mirrors": True, "mirror_cells_per_side": int(cells)}}
        ))
        code, out, err = run_cli(capsys, "bandgap", "--config", str(path))
        assert code == 0, err
        mode = json.loads(out)["defect_mode"]
        qs.append(mode["radiative_Q"])
    log_q = np.log(qs)
    slope, intercept = np.polyfit(counts, log_q, 1)
    assert np.max(np.abs(log_q - (slope * counts + intercept))) < 0.01
    kappa_a = phonon_chain.bloch_decay_per_cell(
        phonon_chain.strong_mirror_cell(), mode["frequency_Hz"]
    )
    assert slope == pytest.approx(2.0 * kappa_a, rel=1e-3)


def test_bandgap_defaults(capsys):
    payload = run_json(capsys, "bandgap")
    (gap,) = payload["gaps_Hz"]
    assert gap[0] == pytest.approx(90e6, rel=1e-3)
    assert gap[1] == pytest.approx(110e6, rel=1e-3)
    assert payload["defect_mode"]["frequency_Hz"] == pytest.approx(97.2e6, rel=5e-3)


# the = form, since argparse reads a bare -inf as an option
@pytest.mark.parametrize("argv, option", [
    (["--f-max=inf"], "--f-max"),
    (["--f-min=-inf"], "--f-min"),
    (["--resolution=nan"], "--resolution"),
])
def test_bandgap_rejects_a_non_finite_window(capsys, argv, option):
    code, out, err = run_cli(capsys, "bandgap", *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and f"error: {option} must be finite" in err


def test_bandgap_rejects_an_oversized_scan(capsys):
    # the window's width overflows the float range
    code, err = run_one_line_error(capsys, "bandgap", "--f-min", "1e300", "--f-max", "1.7e308")
    assert code == 2
    assert "scan of 1e+300 to 1.7e+308 Hz at 100000 Hz resolution needs more than" in err


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0"])
def test_qvt_rejects_a_frequency_that_is_not_finite_and_positive(capsys, tmp_path, data_dir,
                                                                 value):
    temps = np.geomspace(4.0, 300.0, 12)
    path = tmp_path / "qvt.csv"
    path.write_text("T_K,Q,sigma_Q\n" + "".join(
        f"{t!r},{1e6 / (1.0 + t / 100.0)!r},1e4\n" for t in temps.tolist()
    ))
    code, err = run_one_line_error(
        capsys, "qvt", str(path), "--config", str(data_dir / "reference_config.json"),
        f"--frequency-hz={value}",
    )
    assert code == 2
    assert f"error: --frequency-hz must be finite and positive, got {float(value)}" in err


@pytest.mark.parametrize("argv, option", [
    (["--f-start=nan"], "--f-start"),
    (["--f-end=inf"], "--f-end"),
    (["--f-start=-inf"], "--f-start"),
])
def test_duffing_sweep_rejects_a_non_finite_window(capsys, data_dir, argv, option):
    code, err = run_one_line_error(
        capsys, "duffing-sweep", "--config", str(data_dir / "reference_config.json"), *argv,
    )
    assert code == 2
    assert f"error: {option} must be finite" in err


def test_strong_mirrors_honour_f_center(capsys, tmp_path, data_dir):
    # every segment length scales as 1/f_center, so doubling it doubles
    # the gap edges and the mode frequency
    config = json.loads((data_dir / "reference_config.json").read_text())
    modes = {}
    for f_center in (1e8, 2e8):
        config["chain"] = {"strong_mirrors": True, "f_center_Hz": f_center}
        path = tmp_path / f"strong_{f_center:.0e}.json"
        path.write_text(json.dumps(config))
        payload = run_json(
            capsys, "bandgap", "--config", str(path),
            "--f-min", str(0.5 * f_center), "--f-max", str(1.6 * f_center),
        )
        (gap,) = payload["gaps_Hz"]
        assert gap == pytest.approx([0.725 * f_center, 1.275 * f_center], rel=1e-6)
        scan = run_json(capsys, "photoelastic-scan", "--config", str(path))
        assert scan["mode_frequency_Hz"] == payload["defect_mode"]["frequency_Hz"]
        modes[f_center] = scan["mode_frequency_Hz"]
    assert modes[2e8] == pytest.approx(2.0 * modes[1e8], rel=1e-10)


def test_strong_mirrors_reject_gap_fraction(capsys, tmp_path):
    path = tmp_path / "strong.json"
    path.write_text(json.dumps({"chain": {"strong_mirrors": True, "gap_fraction": 0.3}}))
    code, out, err = run_cli(capsys, "bandgap", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "/chain" in err and "gap_fraction" in err and "strong_mirrors" in err


def test_photoelastic_scan(capsys, tmp_path, data_dir):
    out_csv = tmp_path / "scan.csv"
    payload = run_json(
        capsys, "photoelastic-scan", "--config", str(data_dir / "reference_config.json"),
        "--out", str(out_csv),
    )
    signal = payload["signal_norm"]
    assert max(signal) == pytest.approx(1.0)
    center = signal.index(max(signal))
    assert all(signal[i] >= signal[i + 1] for i in range(center, len(signal) - 1))
    with open(out_csv) as fh:
        header = fh.readline().strip()
    assert header == "y_um,signal_norm"


@pytest.mark.parametrize("level", ["nan", "inf"])
def test_backbone_rejects_non_finite_drive_level(capsys, level):
    code, out, err = run_cli(
        capsys, "backbone", "--config", CONFIG, "--drive-levels", f"{level},2e8,3e8,4e8",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "drive must be finite" in err


def test_duffing_sweep_rejects_nan_drive(capsys, tmp_path, data_dir):
    config = json.loads((data_dir / "reference_config.json").read_text())
    config["duffing"]["drive_m_Hz2"] = math.nan
    path = tmp_path / "nan_drive.json"
    path.write_text(json.dumps(config))  # writes the bare NaN token
    code, out, err = run_cli(capsys, "duffing-sweep", "--config", str(path))
    assert code == 2
    assert out == ""
    # rejected while the config is read, before the Duffing parameters exist
    assert err.count("\n") == 1 and f"{path}: non-finite number NaN" in err


def _config_with(tmp_path, data_dir, section, **fields):
    config = json.loads((data_dir / "reference_config.json").read_text())
    config[section].update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def run_one_line_error(capsys, *argv):
    """Exit code and stderr of a run that must fail with one ``error:``
    line, no stdout and no warning (a warning raises here)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code in (1, 2)
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    return code, err


@pytest.mark.parametrize("command, field, value", [
    ("duffing-sweep", "f0_Hz", 1e300),
    ("backbone", "f0_Hz", 1e300),
    ("duffing-sweep", "beta_Hz2_per_m2", 1e300),
    ("duffing-sweep", "beta_Hz2_per_m2", 1e-150),  # the companion matrix divides by beta^2
    ("duffing-sweep", "drive_m_Hz2", 1e200),
    ("backbone", "Q", 1e300),
    ("backbone", "Q", 1e-300),
    ("duffing-sweep", "Q", 1e-300),  # the default window f0 (1 +- 100/Q)
    ("duffing-sweep", "Q", 1e300),  # G = F^2 |beta| Q^3/f0^6 of the bistable edges
])
def test_duffing_overflow_is_a_one_line_error(capsys, tmp_path, data_dir, command, field, value):
    # driven, so that duffing-sweep computes the bistable edges
    path = _config_with(tmp_path, data_dir, "duffing", **{"drive_m_Hz2": 5e11, field: value})
    argv = ["--drive-levels", "1e8,2e8,3e8,4e8"] if command == "backbone" else []
    code, err = run_one_line_error(capsys, command, "--config", path, *argv)
    assert code == 2 and "Duffing" in err and "overflows the float range" in err


@pytest.mark.parametrize("fields", [
    {"drive_m_Hz2": 1e-2},
    # at Q = 1e-30 the sweep used to give inf at the window's first point
    {"drive_m_Hz2": 5e11, "Q": 1e-30},
], ids=["drive-1e-2", "Q-1e-30"])
def test_weak_duffing_response_sweeps_to_strict_json(capsys, tmp_path, data_dir, fields):
    # far below the onset of bistability eigvals loses the cubic's one root
    # at some points; the sweep keeps it and gives the linear response
    path = _config_with(tmp_path, data_dir, "duffing", **fields)
    out_csv = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "duffing-sweep", "--config", path, "--out", str(out_csv))
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    section = json.loads(pathlib.Path(path).read_text())["duffing"]
    f0, q = section["f0_Hz"], section["Q"]
    freqs, amps = np.loadtxt(out_csv, delimiter=",", skiprows=1, usecols=(0, 1)).T
    linear = section["drive_m_Hz2"] / np.hypot(f0**2 - freqs**2, f0 * freqs / q)
    np.testing.assert_allclose(amps, linear, rtol=1e-12, atol=0.0)
    assert payload["peak_amplitude"] == amps.max()


@pytest.mark.parametrize("fields, expected", [
    # softening at Q = 31.53: three roots from the window's lower edge up
    ({"f0_Hz": 664.3e6, "Q": 31.53, "beta_Hz2_per_m2": -6.577e14, "drive_m_Hz2": 8.135e17},
     [159244119.2, 558542778.4]),
    # one root at every point
    ({"Q": 1e-30, "drive_m_Hz2": 5e11}, None),
], ids=["softening-Q-31.53", "Q-1e-30"])
def test_duffing_sweep_reports_the_three_root_range(capsys, tmp_path, data_dir, fields, expected):
    path = _config_with(tmp_path, data_dir, "duffing", **fields)
    payload = run_json(capsys, "duffing-sweep", "--config", path, "--points", "4001")
    if expected is None:
        assert payload["bistable_range_Hz"] is None
    else:
        assert payload["bistable_range_Hz"] == pytest.approx(expected, abs=0.1)

@pytest.mark.parametrize("command", ["couple", "iswap"])
@pytest.mark.parametrize("section, field", [("bvd", "Lm_H"), ("shunt", "Cr_F"), ("shunt", "Lr_H")])
def test_resonance_of_underflowing_lc_product_is_rejected(capsys, tmp_path, data_dir, command, section, field):
    # Lm*Cm or Lr*Cr underflows to 0, so 1/(2 pi sqrt(L C)) is not finite
    path = _config_with(tmp_path, data_dir, section, **{field: 5e-324})
    code, err = run_one_line_error(capsys, command, "--config", path)
    assert code == 2 and "underflows to 0" in err


# the gate time reaches 1e65 s or more, where exp(L t) at a decay rate of
# 1e4/s leaves the float range; Cr_F = 1e-300 and Cm_F = 1e300 also warn
# that Cr is not large compared to C0 + Cm
@pytest.mark.parametrize("section, field, value, warns", [
    ("bvd", "Lm_H", 1e300, False),
    ("shunt", "Lr_H", 1e300, False),
    ("bvd", "Lm_H", 1e-300, False),
    ("shunt", "Cr_F", 1e-300, True),
    ("bvd", "Cm_F", 1e-300, False),
    ("bvd", "Cm_F", 1e300, True),
    ("shunt", "Cr_F", 1e300, False),
])
def test_iswap_at_extreme_circuit_values_is_a_one_line_error(capsys, tmp_path, data_dir, section, field, value, warns):
    path = _config_with(tmp_path, data_dir, section, **{field: value})
    if warns:
        with pytest.warns(UserWarning, match="Cr is not large"):
            code, out, err = run_cli(capsys, "iswap", "--config", path)
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    else:
        code, err = run_one_line_error(capsys, "iswap", "--config", path)
    assert code == 2 and "Lindblad propagation" in err and "leaves the float range" in err


@pytest.mark.parametrize("field", ["Cm_F", "C0_F"])
def test_couple_shows_a_warning_as_one_line(capsys, tmp_path, data_dir, field):
    path = _config_with(tmp_path, data_dir, "bvd", **{field: 1e300})
    with pytest.warns(UserWarning, match="Cr is not large"):
        payload = run_json(capsys, "couple", "--config", path)
    proc = _run_module("couple", "--config", path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("warning: Cr is not large compared to C0 + Cm")
    assert json.loads(proc.stdout) == payload


@pytest.mark.parametrize("q", [1.0, 100.0])
def test_duffing_sweep_default_window_at_low_q(capsys, tmp_path, data_dir, q):
    # f0 (1 - 100/Q) is not positive here, so the window starts at f0/(1 + 100/Q)
    path = _config_with(tmp_path, data_dir, "duffing", Q=q, drive_m_Hz2=5e11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_json(capsys, "duffing-sweep", "--config", path, "--points", "201")
    f0 = 97.2e6
    assert f0 / (1.0 + 100.0 / q) <= payload["peak_frequency_Hz"] <= f0 * (1.0 + 100.0 / q)
    assert payload["peak_amplitude"] > 0.0


def test_qvt_trial_step_past_exp_range_is_rejected(capsys, tmp_path, data_dir):
    # trf sends a log parameter of the reference template past exp's range;
    # the fit rejects that step and ends on the template's degeneracy
    temps = np.linspace(4.0, 300.0, 12)
    path = tmp_path / "qvt.csv"
    path.write_text("T_K,Q,sigma_Q\n" + "".join(
        f"{t!r},{1e6 / (1.0 + t / 100.0)!r},1e4\n" for t in temps.tolist()
    ))
    code, err = run_one_line_error(
        capsys, "qvt", str(path), "--config", str(data_dir / "reference_config.json"),
        "--frequency-hz", "1e9",
    )
    assert code == 1 and "not identifiable" in err


def test_qvt_non_finite_template_names_the_channel(capsys, tmp_path, data_dir):
    # a power-law coefficient of 1e300 overflows Q^-1 at the data's
    # temperatures; numpy's overflow warnings raise here and must not occur
    config = json.loads((data_dir / "reference_config.json").read_text())
    config["loss_stack"][1]["coefficient"] = 1e300
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    temps = np.geomspace(4.0, 300.0, 40)
    path = tmp_path / "qvt.csv"
    path.write_text("T_K,Q,sigma_Q\n" + "".join(
        f"{t!r},{1e6 / (1.0 + t / 100.0)!r},1e4\n" for t in temps.tolist()
    ))
    code, err = run_one_line_error(
        capsys, "qvt", str(path), "--config", str(config_path), "--frequency-hz", "97.2e6",
    )
    assert code == 2 and "no finite initial model" in err and "channel 1 (PowerLawChannel" in err


def test_duffing_sweep_takes_a_large_integer_drive(capsys, tmp_path, data_dir):
    # a JSON integer stays a Python int; squared exactly, numpy could not
    # test it for finiteness
    path = _config_with(tmp_path, data_dir, "duffing", drive_m_Hz2=2**62)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "duffing-sweep", "--config", path, "--points", "201")
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert code in (1, 2) and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_modulation_too_deep_exits_one(capsys, tmp_path, data_dir):
    # a 1 um standing wave modulates the probe phase far past M = 1
    config = json.loads((data_dir / "reference_config.json").read_text())
    config["optics"]["u0_m"] = 1e-6
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "photoelastic-scan", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "modulation depth" in err


def test_unwritable_out_exits_two(capsys, tmp_path):
    path = tmp_path / "missing_dir" / "gaps.csv"
    code, out, err = run_cli(capsys, "bandgap", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and str(path) in err


def _run_module(*argv, env=None):
    src = pathlib.Path(qmem.__file__).parents[1]
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "qmem.cli", *argv], env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_bad_qmem_log_exits_two():
    proc = _run_module("couple", "--config", CONFIG, env={"QMEM_LOG": "foo"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "QMEM_LOG" in proc.stderr and "'foo'" in proc.stderr


def test_qmem_log_accepts_level_names():
    proc = _run_module("couple", "--config", CONFIG, env={"QMEM_LOG": "debug"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["g_eff_Hz"] > 0.0


def test_missing_file_exits_two(capsys):
    code, out, err = run_cli(capsys, "bvd-fit", "/nonexistent/file.csv")
    assert code == 2
    assert err


def test_qvt_header_only_file_exits_two(capsys, tmp_path, data_dir):
    path = tmp_path / "empty_qvt.csv"
    path.write_text("T_K,Q,sigma_Q\n")
    code, out, err = run_cli(
        capsys, "qvt", str(path), "--config", str(data_dir / "reference_config.json"),
        "--frequency-hz", "97.2e6",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert str(path) in err and "no data rows" in err


# one subcommand per CSV loader, with its header and a valid row
LOADERS = [
    (["fit-lorentzian"], "f_Hz,mag", "9.7e7,1.0"),
    (["ringdown"], "t_s,amp", "0.0,1.0"),
    (["bvd-fit"], "f_Hz,ReY_S,ImY_S", "9.7e7,1e-3,2e-3"),
    (["qvt", "--config", CONFIG, "--frequency-hz", "97.2e6"], "T_K,Q,sigma_Q", "4.0,1e6,1e4"),
]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv, header, row", LOADERS)
def test_loaders_reject_non_finite_values(capsys, tmp_path, argv, header, row, bad):
    cells = row.split(",")
    cells[-1] = bad
    path = tmp_path / "trace.csv"
    path.write_text(f"{header}\n{row}\n{','.join(cells)}\n")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert str(path) in err and "non-finite value at line 3" in err


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed=1", "couple", "--config", CONFIG])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_fit_failure_exits_one(capsys, tmp_path):
    path = tmp_path / "flat.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["f_Hz", "mag"])
        for i in range(50):
            writer.writerow([9e7 + i * 1e3, 1.0])
    code, out, err = run_cli(capsys, "fit-lorentzian", str(path))
    assert code == 1
    assert err


def test_deterministic_output(capsys, data_dir):
    first = run_json(capsys, "couple", "--config", str(data_dir / "reference_config.json"))
    second = run_json(capsys, "couple", "--config", str(data_dir / "reference_config.json"))
    assert first == second


def test_json_out_format(capsys, tmp_path, data_dir):
    out_path = tmp_path / "iswap.json"
    run_json(
        capsys, "iswap", "--config", str(data_dir / "reference_config.json"),
        "--dissipation", "off", "--out", str(out_path), "--format", "json",
    )
    document = json.loads(out_path.read_text())
    assert set(document) == {"t_us", "pop_e0", "pop_g1", "fidelity"}


def test_golden_output_structure(capsys, data_dir):
    """Output schemas stay stable against the committed golden files."""
    golden = json.loads((data_dir / "golden" / "couple_keys.json").read_text())
    payload = run_json(capsys, "couple", "--config", str(data_dir / "reference_config.json"))
    assert sorted(payload) == sorted(golden["keys"])
    for key, value in golden["values"].items():
        assert payload[key] == pytest.approx(value, rel=1e-9), key


def test_readme_backbone_example_runs(capsys, monkeypatch):
    root = pathlib.Path(__file__).resolve().parents[1]
    (line,) = [ln for ln in (root / "README.md").read_text().splitlines()
               if ln.startswith("qmem backbone ")]
    monkeypatch.chdir(root)
    payload = run_json(capsys, *shlex.split(line)[1:])
    assert len(payload["points"]) >= 4
