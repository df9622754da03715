"""Command-line front end.

Subcommands chain the library modules for the common design and
analysis tasks: ``couple`` walks circuit parameters to the parametric
coupling rate and swap time, ``iswap`` runs the dissipative gate
simulation, the ``fit-*``/``ringdown``/``qvt`` commands wrap the trace
fitting routines, and ``bandgap``/``duffing-sweep``/``backbone``/
``photoelastic-scan`` expose the forward models.

Configuration is a single JSON document with unit-suffixed keys,
checked against the JSON Schema ``CONFIG_SCHEMA`` by ``_schema_errors``;
unknown keys are rejected and validation errors carry JSON-pointer
paths.  Results go to stdout as strict JSON, with null for a quantity
that is infinite or undefined; ``--out`` writes the detailed arrays as
CSV (or JSON with ``--format json``).
Exit codes: 0 success, 1 computation or fit failure, 2 usage, IO, or
configuration error (``EXIT_CODES`` maps exception types to codes).
Each subcommand imports numpy and the library modules it calls once its
configuration has loaded, so ``import qmem.cli``, ``--help`` and a bad
config load neither.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import warnings

from .errors import ComputationError, ConfigError, NoDefectModeInGap, QmemError

log = logging.getLogger("qmem")

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "bvd": {
            "type": "object",
            "additionalProperties": False,
            "required": ["C0_F", "Cm_F", "Lm_H"],
            "properties": {
                "C0_F": _POS, "Cm_F": _POS, "Lm_H": _POS, "Rm_Ohm": _NONNEG,
            },
        },
        "shunt": {
            "type": "object",
            "additionalProperties": False,
            "required": ["Cr_F"],
            "properties": {"Cr_F": _POS, "Lr_H": _POS, "f_r_Hz": _POS},
        },
        "system": {
            "type": "object",
            "additionalProperties": False,
            "required": ["f_q_Hz", "g3_Hz"],
            "properties": {
                "f_q_Hz": _POS,
                "f_s_Hz": _POS,
                "f_m_Hz": _POS,
                "g_qs_Hz": _NONNEG,
                "lambda_qs": _NUM,
                "g_sm_Hz": _NONNEG,
                "g3_Hz": _NONNEG,
                "E_C_over_h_Hz": _NONNEG,
                "Gamma_q_per_s": _NONNEG,
                "Gamma_s_per_s": _NONNEG,
                "Gamma_m_per_s": _NONNEG,
                "dephasing_q_per_s": _NONNEG,
                "dephasing_m_per_s": _NONNEG,
            },
        },
        "drive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "f_d_Hz": _POS,
                "n_s": _NONNEG,
                "epsilon_Hz": _NUM,
                "phase_rad": _NUM,
                "duration_s": _NONNEG,
            },
        },
        "optics": {
            "type": "object",
            "additionalProperties": False,
            "required": ["plate_thickness_m", "defect_width_m", "u0_m"],
            "properties": {
                "wavelength_m": _POS,
                "n_o": _POS,
                "n_e": _POS,
                "plate_thickness_m": _POS,
                "polarization_angle_rad": _NUM,
                "c1": _NONNEG,
                "c2": _NONNEG,
                "defect_width_m": _POS,
                "u0_m": _NONNEG,
                "f_m_Hz": _POS,
            },
        },
        "duffing": {
            "type": "object",
            "additionalProperties": False,
            "required": ["f0_Hz", "Q", "beta_Hz2_per_m2", "drive_m_Hz2"],
            "properties": {
                "f0_Hz": _POS, "Q": _POS,
                "beta_Hz2_per_m2": _NUM, "drive_m_Hz2": _NONNEG,
            },
        },
        "chain": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # the strong chain's transfer matrix overflows a double
                # from about 390 cells per side
                "mirror_cells_per_side": {"type": "integer", "minimum": 0, "maximum": 100},
                "defect_width_scale": _POS,
                "gap_fraction": _POS,
                "f_center_Hz": _POS,
                "strong_mirrors": {"type": "boolean"},
            },
        },
        "loss_stack": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["type"],
                "properties": {
                    "type": {"enum": ["zener", "power_law", "constant"]},
                    "delta": _POS,
                    "tau0_s": _POS,
                    "activation_temp_K": _NONNEG,
                    "coefficient": _POS,
                    "exponent": _POS,
                    "q_value": _POS,
                },
            },
        },
    },
}


# Draft 2020-12 types: a bool is no number, and 5.0 is an integer
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "boolean": lambda value: isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "integer": lambda value: not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ),
}


def _schema_errors(value, schema: dict, path: tuple = ()):
    """(path, message) for every keyword of ``schema`` that ``value``
    fails, with Draft 2020-12 semantics: a keyword that does not apply to
    the value's type is skipped.  ``additionalProperties`` may only be
    false."""
    if "type" in schema and not _TYPES[schema["type"]](value):
        yield path, f"{value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            yield path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            yield path, (f"{value!r} is less than or equal to the minimum of "
                         f"{schema['exclusiveMinimum']!r}")
        if "maximum" in schema and value > schema["maximum"]:
            yield path, f"{value!r} is greater than the maximum of {schema['maximum']!r}"
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"{value!r} has fewer than {schema['minItems']} items"
        if "items" in schema:
            for i, item in enumerate(value):
                yield from _schema_errors(item, schema["items"], path + (i,))
    elif isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        if schema.get("additionalProperties", True) is False:
            unexpected = [key for key in value if key not in properties]
            if unexpected:
                yield path, f"additional properties are not allowed ({unexpected!r} unexpected)"
        for key, subschema in properties.items():
            if key in value:
                yield from _schema_errors(value[key], subschema, path + (key,))


def _pointer(path) -> str:
    return "/" + "/".join(str(p) for p in path)


def load_config(path: str) -> dict:
    def reject(token: str):
        # JSON has no NaN or infinity; Python's reader accepts the bare
        # constants and turns an overflowing literal such as 1e999 into inf
        raise ConfigError(f"{path}: non-finite number {token} is not allowed")

    def number(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            reject(token)
        return value

    def integer(token: str) -> int:
        # an integer literal too large for a double has no finite value
        number(token)
        return int(token)

    try:
        with open(path) as fh:
            document = json.load(
                fh, parse_constant=reject, parse_float=number, parse_int=integer
            )
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    errors = sorted(_schema_errors(document, CONFIG_SCHEMA), key=lambda error: error[0])
    if errors:
        details = "; ".join(f"{_pointer(where)}: {message}" for where, message in errors)
        raise ConfigError(f"config validation failed: {details}")
    return document


def _require(config: dict, section: str) -> dict:
    if section not in config:
        raise ConfigError(f"missing required config section at /{section}")
    return config[section]


def _bvd_from(config: dict) -> electromech.BvdParams:
    from . import electromech
    section = _require(config, "bvd")
    return electromech.BvdParams(
        C0=section["C0_F"], Cm=section["Cm_F"], Lm=section["Lm_H"],
        Rm=section.get("Rm_Ohm", 0.0),
    )


def _shunt_from(config: dict) -> electromech.ShuntCircuit:
    from . import electromech
    section = _require(config, "shunt")
    if "Lr_H" not in section and "f_r_Hz" not in section:
        raise ConfigError("config error at /shunt: need Lr_H or f_r_Hz")
    return electromech.ShuntCircuit(
        Cr=section["Cr_F"], Lr=section.get("Lr_H"), f_r=section.get("f_r_Hz"),
    )


def _chain_from(config: dict) -> phonon_chain.ChainSpec:
    from . import phonon_chain
    section = config.get("chain", {})
    gap_fraction = section.get("gap_fraction", 0.20)
    if section.get("strong_mirrors", False):
        if "gap_fraction" in section:
            raise ConfigError(
                "config error at /chain: gap_fraction cannot be combined with "
                f"strong_mirrors, which fixes it at {phonon_chain.STRONG_GAP_FRACTION}"
            )
        gap_fraction = phonon_chain.STRONG_GAP_FRACTION
    return phonon_chain.reference_chain(
        # the schema admits an integral float such as 5.0
        n_mirror=int(section.get("mirror_cells_per_side", 5)),
        width_scale=section.get("defect_width_scale", phonon_chain.DEFAULT_DEFECT_STRETCH),
        gap_fraction=gap_fraction,
        f_center=section.get("f_center_Hz", 100e6),
    )


def _loss_stack_from(config: dict) -> losses.LossStack:
    from . import losses
    section = _require(config, "loss_stack")
    channels = []
    for i, entry in enumerate(section):
        kind = entry["type"]
        try:
            if kind == "zener":
                channels.append(losses.ZenerChannel(
                    delta=entry["delta"], tau0=entry["tau0_s"],
                    activation_temp=entry.get("activation_temp_K", 0.0),
                ))
            elif kind == "power_law":
                channels.append(losses.PowerLawChannel(
                    coefficient=entry["coefficient"],
                    exponent=entry.get("exponent", 4.0),
                ))
            else:
                channels.append(losses.ConstantChannel(q_value=entry["q_value"]))
        except KeyError as exc:
            raise ConfigError(
                f"config error at /loss_stack/{i}: missing {exc.args[0]}"
            ) from exc
    return losses.LossStack(tuple(channels))


def _derivation(config: dict, n_defects: int = 1) -> dict:
    """Chain BVD + shunt + system + drive into the coupling derivation."""
    from . import dynamics, electromech
    bvd = electromech.scale_defects(_bvd_from(config), electromech.DefectArraySpec(n_defects))
    shunt = _shunt_from(config)
    system_cfg = _require(config, "system")
    drive_cfg = _require(config, "drive")

    f_m = system_cfg.get("f_m_Hz", bvd.series_resonance_hz)
    f_s = system_cfg.get("f_s_Hz", shunt.f_r)
    f_q = system_cfg["f_q_Hz"]
    if "g_sm_Hz" in system_cfg:
        g_sm = system_cfg["g_sm_Hz"]
    else:
        g_sm = electromech.coupling_rate_gsm(bvd, shunt, f_m)
    if ("g_qs_Hz" in system_cfg) == ("lambda_qs" in system_cfg):
        raise ConfigError(
            "config error at /system: supply exactly one of g_qs_Hz or lambda_qs"
        )
    if "g_qs_Hz" in system_cfg:
        g_qs = system_cfg["g_qs_Hz"]
    else:
        g_qs = abs(system_cfg["lambda_qs"] * (f_q - f_s))

    system = dynamics.TriModeSystem(
        qubit=dynamics.ModeParams(
            f_q,
            decay_rate=system_cfg.get("Gamma_q_per_s", 0.0),
            anharmonicity=system_cfg.get("E_C_over_h_Hz", 0.0),
            dephasing_rate=system_cfg.get("dephasing_q_per_s", 0.0),
        ),
        snail=dynamics.ModeParams(f_s, decay_rate=system_cfg.get("Gamma_s_per_s", 0.0)),
        mech=dynamics.ModeParams(
            f_m,
            decay_rate=system_cfg.get("Gamma_m_per_s", 0.0),
            dephasing_rate=system_cfg.get("dephasing_m_per_s", 0.0),
        ),
        g_qs=g_qs,
        g_sm=g_sm,
        g3=system_cfg["g3_Hz"],
    )
    if ("n_s" in drive_cfg) == ("epsilon_Hz" in drive_cfg):
        raise ConfigError("config error at /drive: supply exactly one of n_s or epsilon_Hz")
    drive = dynamics.DriveSpec(
        frequency=drive_cfg.get("f_d_Hz", abs(f_q - f_m)),
        amplitude=drive_cfg.get("epsilon_Hz"),
        n_photons=drive_cfg.get("n_s"),
        phase=drive_cfg.get("phase_rad", 0.0),
        duration=drive_cfg.get("duration_s", 0.0),
    )
    dressed = dynamics.dress(system)
    eta = dynamics.effective_eta(drive, f_s)
    eff = dynamics.effective_coupling(system, drive)
    gamma_m_prime = dynamics.hybridized_decay(
        system.mech.decay_rate, dressed.lambda_sm, system.snail.decay_rate
    )
    return {
        "system": system,
        "drive": drive,
        "payload": {
            "n_defects": n_defects,
            "f_m_Hz": f_m,
            "f_r_Hz": shunt.f_r,
            "f_q_Hz": f_q,
            "g_sm_Hz": g_sm,
            "lambda_qs": dressed.lambda_qs,
            "lambda_sm": dressed.lambda_sm,
            "eta_abs": abs(eta),
            "g_eff_Hz": eff.g_eff,
            "T_transfer_s": math.inf if eff.g_eff == 0 else 1.0 / (4.0 * eff.g_eff),
            "T_iswap_s": math.inf if eff.g_eff == 0 else 1.0 / (2.0 * eff.g_eff),
            "Gamma_m_prime": gamma_m_prime,
        },
    }


def cmd_couple(args) -> tuple[dict, list | None]:
    config = load_config(args.config)
    result = _derivation(config, n_defects=args.defects)
    return result["payload"], None


def cmd_iswap(args) -> tuple[dict, list | None]:
    if args.d_m > 100:  # |e,0> evolves on 3 levels, but H and the states are 2 d_m square
        raise ConfigError(f"--d-m must be at most 100, got {args.d_m}")
    config = load_config(args.config)
    from . import dynamics
    chain = _derivation(config)
    result = dynamics.iswap(
        chain["system"], chain["drive"],
        d_m=args.d_m, dissipation=args.dissipation == "on",
    )
    t_us = (result.times * 1e6).tolist()
    payload = {
        "g_eff_Hz": result.g_eff_hz,
        "gate_time_s": result.gate_time,
        "transfer_time_s": result.transfer_time,
        "T_iswap_s": result.t_iswap,
        "populations": result.populations,
        "swap_fidelity": result.swap_fidelity,
        "t_us": t_us,
        "pop_e0": result.pop_e0.tolist(),
        "pop_g1": result.pop_g1.tolist(),
        "fidelity": result.fidelity.tolist(),
    }
    rows = [("t_us", "pop_e0", "pop_g1", "fidelity")] + [
        (t, e0, g1, f)
        for t, e0, g1, f in zip(
            t_us, result.pop_e0, result.pop_g1, result.fidelity
        )
    ]
    return payload, rows


def cmd_fit_lorentzian(args) -> tuple[dict, list | None]:
    from . import analysis
    trace = analysis.load_frequency_trace_csv(args.file)
    fit = analysis.fit_lorentzian(trace)
    payload = {
        "f0_Hz": fit.f0,
        "Q": fit.Q,
        "amplitude_abs": abs(fit.amplitude),
        "background": fit.background,
        "uncertainties": fit.uncertainties,
        "residual_norm": fit.residual_norm,
    }
    model = abs(
        fit.background
        + fit.amplitude / (1.0 + 2j * fit.Q * (trace.frequencies - fit.f0) / fit.f0)
    )
    rows = [("f_Hz", "mag_fit")] + list(zip(trace.frequencies, model))
    return payload, rows


def cmd_ringdown(args) -> tuple[dict, list | None]:
    import numpy as np
    from . import analysis
    trace = analysis.load_time_trace_csv(args.file)
    fit = analysis.fit_ringdown(trace)
    payload = {
        "tau_s": fit.tau,
        "initial_amplitude": fit.initial_amplitude,
        "offset": fit.offset,
        "uncertainties": fit.uncertainties,
        "residual_norm": fit.residual_norm,
    }
    model = fit.offset + fit.initial_amplitude * np.exp(
        -(trace.times - trace.times[0]) / fit.tau
    )
    rows = [("t_s", "amp_fit")] + list(zip(trace.times, model))
    return payload, rows


def cmd_qvt(args) -> tuple[dict, list | None]:
    if not (math.isfinite(args.frequency_hz) and args.frequency_hz > 0.0):
        raise ConfigError(f"--frequency-hz must be finite and positive, got {args.frequency_hz}")
    config = load_config(args.config)
    from . import losses
    template = _loss_stack_from(config)
    data = losses.QvsTDataset.from_csv(args.file)
    fit = losses.fit_loss_stack(data, args.frequency_hz, template)
    channels = []
    for channel, sigma in zip(fit.stack.channels, fit.uncertainties):
        entry = {"type": type(channel).__name__}
        for name in sigma:
            entry[name] = getattr(channel, name)
            entry[f"sigma_{name}"] = sigma[name]
        channels.append(entry)
    payload = {"channels": channels, "residual_norm": fit.residual_norm}
    rows = [("T_K", "Q_fit")] + list(
        zip(data.temperatures, losses.total_q(fit.stack, args.frequency_hz, data.temperatures))
    )
    return payload, rows


def cmd_bvd_fit(args) -> tuple[dict, list | None]:
    from . import electromech
    trace = electromech.load_admittance_csv(args.file)
    params = electromech.fit_bvd(trace, fit_rm=args.fit_rm)
    payload = {
        "C0_F": params.C0,
        "Cm_F": params.Cm,
        "Lm_H": params.Lm,
        "Rm_Ohm": params.Rm,
        "f_series_Hz": params.series_resonance_hz,
        "f_parallel_Hz": params.parallel_resonance_hz,
    }
    model = electromech.bvd_admittance(params, trace.frequencies)
    rows = [("f_Hz", "ReY_S", "ImY_S")] + [
        (f, y.real, y.imag) for f, y in zip(trace.frequencies, model)
    ]
    return payload, rows


def _duffing_from(config: dict) -> duffing.DuffingParams:
    from . import duffing
    section = _require(config, "duffing")
    return duffing.DuffingParams(
        f0=section["f0_Hz"], Q=section["Q"],
        beta=section["beta_Hz2_per_m2"], drive=section["drive_m_Hz2"],
    )


def cmd_duffing_sweep(args) -> tuple[dict, list | None]:
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    for option, value in (("--f-start", args.f_start), ("--f-end", args.f_end)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{option} must be finite, got {value}")
    config = load_config(args.config)
    from . import duffing
    params = _duffing_from(config)
    # 100 linewidths either side, with a positive lower edge at Q <= 100
    span = 100 / params.Q
    f_low = params.f0 * (1 - span) if span < 1 else params.f0 / (1 + span)
    f_start = args.f_start if args.f_start is not None else f_low
    f_end = args.f_end if args.f_end is not None else params.f0 * (1 + span)
    result = duffing.sweep(params, f_start, f_end, args.direction, n_points=args.points)
    payload = {
        "direction": args.direction,
        "bistable_range_Hz": list(result.bistable_range) if result.bistable_range else None,
        "peak_amplitude": float(result.amplitudes.max()),
        "peak_frequency_Hz": float(result.frequencies[int(result.amplitudes.argmax())]),
    }
    rows = [("f_Hz", "amp", "branch")] + list(
        zip(result.frequencies, result.amplitudes, result.branch_labels)
    )
    return payload, rows


def cmd_backbone(args) -> tuple[dict, list | None]:
    config = load_config(args.config)
    from . import duffing
    params = _duffing_from(config)
    try:
        levels = [float(v) for v in args.drive_levels.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --drive-levels: {args.drive_levels}") from exc
    points = duffing.backbone(params, levels)
    fit = duffing.fit_backbone(points)
    payload = {
        "f0_Hz": fit.f0,
        "A_Hz": fit.A,
        "n": fit.n,
        "residual_norm": fit.residual_norm,
        "points": [{"amplitude": a, "f_peak_Hz": f} for a, f in points],
    }
    rows = [("amplitude", "f_peak_Hz")] + points
    return payload, rows


def cmd_bandgap(args) -> tuple[dict, list | None]:
    for option, value in (("--f-min", args.f_min), ("--f-max", args.f_max),
                          ("--resolution", args.resolution)):
        if not math.isfinite(value):
            raise ConfigError(f"{option} must be finite, got {value}")
    config = load_config(args.config) if args.config else {}
    import numpy as np
    from . import phonon_chain
    chain = _chain_from(config)
    gaps = phonon_chain.find_band_gaps(
        chain.mirror_cell, args.f_min, args.f_max, args.resolution
    )
    payload: dict = {
        "gaps_Hz": [[g.f_low, g.f_high] for g in gaps],
        "defect_mode": None,
    }
    if gaps:
        target = gaps[0]
        try:
            mode = phonon_chain.find_defect_mode(chain, target)
            payload["defect_mode"] = {
                "frequency_Hz": mode.frequency,
                "radiative_Q": mode.radiative_q,
                "localization_length_m": mode.localization_length,
            }
        except NoDefectModeInGap as exc:
            log.info("no defect mode: %s", exc)
    freqs = np.linspace(args.f_min, args.f_max, 2001)
    disp = phonon_chain.dispersion(chain.mirror_cell, freqs)
    rows = [("f_Hz", "cos_qa")] + list(zip(freqs, disp))
    return payload, rows


def cmd_photoelastic_scan(args) -> tuple[dict, list | None]:
    config = load_config(args.config)
    from . import phonon_chain, photoelastic
    optics = _require(config, "optics")
    chain = _chain_from(config)
    f_center = config.get("chain", {}).get("f_center_Hz", 100e6)
    gaps = phonon_chain.find_band_gaps(
        chain.mirror_cell, 0.5 * f_center, 1.6 * f_center, 1e-3 * f_center
    )
    if not gaps:
        raise ConfigError("chain has no band gap in the scan window")
    mode = phonon_chain.find_defect_mode(chain, gaps[0])
    profile = phonon_chain.mode_profile(chain, mode)

    optical = photoelastic.OpticalConfig(
        plate_thickness=optics["plate_thickness_m"],
        wavelength=optics.get("wavelength_m", 1.064e-6),
        n_o=optics.get("n_o", 1.528),
        n_e=optics.get("n_e", 1.536),
        polarization_angle=optics.get("polarization_angle_rad", 0.0),
        c1=optics.get("c1"),
        c2=optics.get("c2"),
    )
    wave = photoelastic.StandingWaveMode(
        defect_width=optics["defect_width_m"],
        amplitude=optics["u0_m"],
        frequency=optics.get("f_m_Hz", mode.frequency),
    )
    scan = photoelastic.mode_profile_scan(profile, optical, wave)
    a = chain.mirror_cell.lattice_constant
    center = chain.mirror_cells_per_side
    positions_um = [(idx - center) * a * 1e6 for idx, _ in scan]
    signal = [s for _, s in scan]
    payload = {
        "mode_frequency_Hz": mode.frequency,
        "positions_um": positions_um,
        "signal_norm": signal,
    }
    rows = [("y_um", "signal_norm")] + list(zip(positions_um, signal))
    return payload, rows


def _write_rows(path: str, rows: list, fmt: str) -> None:
    header, data = rows[0], rows[1:]
    if fmt == "json":
        document = {str(k): [row[i] for row in data] for i, k in enumerate(header)}
        with open(path, "w") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        return
    # the rows come from a subcommand that has loaded numpy already
    from .core import write_csv_table
    write_csv_table(path, header, data)


def _strict_json(value):
    """``value`` with every non-finite float replaced by None, so that it
    serializes as strict JSON (null, never Infinity or NaN)."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmem",
        description="Phononic-crystal acoustic quantum memory design toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write detailed arrays to this path")
        p.add_argument("--format", choices=("json", "csv"), default="csv",
                       help="format for --out (default csv)")
        return p

    p = add("couple", cmd_couple, help="coupling-rate derivation chain")
    p.add_argument("--config", required=True)
    p.add_argument("--defects", type=int, default=1,
                   help="number of defect unit cells (scales the BVD mode)")

    p = add("iswap", cmd_iswap, help="swap-gate simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--dissipation", choices=("on", "off"), default="on")
    p.add_argument("--d-m", type=int, default=5, help="mechanics Fock cutoff, 2 to 100")

    p = add("fit-lorentzian", cmd_fit_lorentzian, help="fit a resonance trace")
    p.add_argument("file", help="CSV with header f_Hz,mag or f_Hz,re,im")

    p = add("ringdown", cmd_ringdown, help="fit a ringdown trace")
    p.add_argument("file", help="CSV with header t_s,amp")

    p = add("qvt", cmd_qvt, help="fit a loss stack to Q(T) data")
    p.add_argument("file", help="CSV with header T_K,Q,sigma_Q")
    p.add_argument("--config", required=True, help="config with a loss_stack template")
    p.add_argument("--frequency-hz", type=float, required=True)

    p = add("bvd-fit", cmd_bvd_fit, help="fit BVD parameters to an admittance trace")
    p.add_argument("file", help="CSV with header f_Hz,ReY_S,ImY_S")
    p.add_argument("--fit-rm", action="store_true")

    p = add("duffing-sweep", cmd_duffing_sweep, help="hysteretic frequency sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p.add_argument("--f-start", type=float)
    p.add_argument("--f-end", type=float)
    p.add_argument("--points", type=int, default=1001)

    p = add("backbone", cmd_backbone, help="peak locus over drive levels, with fit")
    p.add_argument("--config", required=True)
    p.add_argument("--drive-levels", required=True,
                   help="comma-separated drive forces in m*Hz^2")

    p = add("bandgap", cmd_bandgap, help="band gaps and defect mode of the chain")
    p.add_argument("--config")
    p.add_argument("--f-min", type=float, default=50e6)
    p.add_argument("--f-max", type=float, default=150e6)
    p.add_argument("--resolution", type=float, default=0.1e6)

    p = add("photoelastic-scan", cmd_photoelastic_scan,
            help="optical signal profile across the chain")
    p.add_argument("--config", required=True)

    return parser


# exception type -> exit code, first match wins: a computation failure
# exits 1 even when it is also a ValueError
EXIT_CODES = (
    (ComputationError, 1),
    (ConfigError, 2),
    (OSError, 2),
    (ValueError, 2),
    (QmemError, 1),
)


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    """``warnings.formatwarning`` for the command line: one stderr line
    per warning, without the source location and code line."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    level = os.environ.get("QMEM_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: QMEM_LOG={os.environ['QMEM_LOG']!r} is not a logging level "
              "(DEBUG, INFO, WARNING, ERROR or CRITICAL)", file=sys.stderr)
        return 2
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line_warning
    try:
        payload, rows = args.func(args)
        if args.out:
            if rows is None:
                log.warning("this subcommand has no detailed arrays; --out ignored")
            else:
                _write_rows(args.out, rows, args.format)
    except tuple(exc_type for exc_type, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for exc_type, code in EXIT_CODES if isinstance(exc, exc_type))
    finally:
        warnings.formatwarning = formatwarning
    json.dump(_strict_json(payload), sys.stdout, indent=2, allow_nan=False)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
