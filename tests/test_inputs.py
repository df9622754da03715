"""One input rule: every physical parameter goes through ``require_finite``.

``ROWS`` lists each dataclass and scalar helper that takes a physical
number, a valid call, and the rule of each numeric argument as the
message states it.  Every argument rejects NaN and both infinities with a
``ValueError`` that names it; 0 is rejected where the bound is strict
and accepted where it is inclusive or there is no bound.  An array
argument takes the bad value in its first element.  The guard at the end
finds every dataclass of ``qmem`` and fails when one with a numeric field
has no row here and is not listed as an output.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from functools import partial

import numpy as np
import pytest

import qmem
from qmem.analysis import ResonanceFit, RingdownFit, q_tau_consistency
from qmem.core import (FrequencyTrace, PhysicalConstants, TimeTrace, require_finite,
                       thermal_decoherence_time, thermal_occupation)
from qmem.duffing import BackboneFit, DuffingParams, SweepResult, steady_state_amplitudes
from qmem.dynamics import (DensityMatrix, DressedSystem, DriveSpec, EffectiveHamiltonian,
                           EvolutionResult, IswapResult, ModeParams, TriModeSystem, effective_eta,
                           evolve, hybridized_decay)
from qmem.electromech import (BvdParams, DefectArraySpec, ShuntCircuit, bvd_admittance,
                              coupling_rate_gij, coupling_rate_gsm)
from qmem.losses import (ConstantChannel, LossStackFit, PowerLawChannel, QvsTDataset, ZenerChannel,
                         landau_rumer_q_inverse, zener_q_inverse)
from qmem.phonon_chain import (BandGap, ChainSpec, DefectMode, Segment, find_band_gaps,
                               reference_chain, reference_defect_cell, reference_mirror_cell,
                               scattering_amplitudes, transmission)
from qmem.photoelastic import (ModulationResult, OpticalConfig, PhotoelasticTensor,
                               StandingWaveMode, index_perturbation, principal_indices)

from conftest import PAPER_BVD

POSITIVE = "finite and > 0"
NON_NEGATIVE = "finite and >= 0"
FINITE = "finite"

MIRROR = reference_mirror_cell()
CHAIN = reference_chain()
BVD = BvdParams(**PAPER_BVD)
SNAIL = ShuntCircuit(Cr=0.26e-12, Lr=75e-9)
DRIVE = DriveSpec(frequency=4.9e9, n_photons=10.0)
E0 = DensityMatrix.basis((2, 3), (1, 0))

# (target, valid keyword arguments, {argument: rule}); a list argument is
# an array input
ROWS = [
    (thermal_occupation, dict(f_hz=1e8, temperature_k=0.01),
     dict(f_hz=POSITIVE, temperature_k=NON_NEGATIVE)),
    (thermal_decoherence_time, dict(quality_factor=1e6, f_hz=1e8, temperature_k=0.01),
     dict(quality_factor=POSITIVE, f_hz=POSITIVE, temperature_k=NON_NEGATIVE)),
    (FrequencyTrace, dict(frequencies=[1.0, 2.0], response=[1.0, 2.0j]),
     dict(frequencies=FINITE, response=FINITE)),
    (TimeTrace, dict(times=[1.0, 2.0], amplitude=[1.0, 0.5]),
     dict(times=FINITE, amplitude=FINITE)),
    (Segment, dict(length=1.4e-5, sound_speed=5750.0, acoustic_impedance=1.52e7),
     dict(length=POSITIVE, sound_speed=POSITIVE, acoustic_impedance=POSITIVE)),
    (ChainSpec, dict(mirror_cells_per_side=5, mirror_cell=MIRROR, defect_cell=MIRROR,
                     termination_impedance=1.52e7),
     dict(mirror_cells_per_side="a whole number >= 0", termination_impedance=POSITIVE)),
    (BandGap, dict(f_low=-1.0, f_high=1.0), dict(f_low=FINITE, f_high=FINITE)),
    (DefectMode, dict(frequency=1e8, localization_length=1e-4, radiative_q=1e5),
     dict(frequency=POSITIVE, localization_length=POSITIVE, radiative_q=POSITIVE)),
    (partial(reference_defect_cell, MIRROR), dict(width_scale=2.2), dict(width_scale=POSITIVE)),
    (partial(find_band_gaps, MIRROR, 90e6, 110e6), dict(resolution=1e6),
     dict(resolution=POSITIVE)),
    (partial(transmission, CHAIN), dict(f_hz=[1e8, 1e8]), dict(f_hz=POSITIVE)),
    (partial(scattering_amplitudes, CHAIN), dict(f_hz=[1e8, 1e8]), dict(f_hz=POSITIVE)),
    (BvdParams, dict(PAPER_BVD, Rm=1.0),
     dict(C0=POSITIVE, Cm=POSITIVE, Lm=POSITIVE, Rm=NON_NEGATIVE)),
    (ShuntCircuit, dict(Cr=30e-15, f_r=100e6), dict(Cr=POSITIVE, f_r=POSITIVE)),
    (ShuntCircuit, dict(Cr=0.26e-12, Lr=75e-9), dict(Lr=POSITIVE)),
    (DefectArraySpec, dict(N=2), dict(N="a whole number >= 1")),
    (partial(bvd_admittance, BVD), dict(f_hz=[1e8, 1e8]), dict(f_hz=POSITIVE)),
    (partial(coupling_rate_gsm, BVD, SNAIL), dict(f_m_hz=1e8), dict(f_m_hz=POSITIVE)),
    (coupling_rate_gij, dict(ci=1e-13, cj=2e-13, cij=1e-15, fi_hz=1e8, fj_hz=2e8),
     dict(ci=POSITIVE, cj=POSITIVE, cij=NON_NEGATIVE, fi_hz=POSITIVE, fj_hz=POSITIVE)),
    (ZenerChannel, dict(delta=1e-5, tau0=1e-12, activation_temp=10.0),
     dict(delta=POSITIVE, tau0=POSITIVE, activation_temp=NON_NEGATIVE)),
    (PowerLawChannel, dict(coefficient=1e-9, exponent=4.0),
     dict(coefficient=POSITIVE, exponent=FINITE)),
    (ConstantChannel, dict(q_value=1e6), dict(q_value=POSITIVE)),
    (partial(zener_q_inverse, ZenerChannel(1e-5, 1e-12)), dict(f_hz=1e8, temperature_k=[1.0, 2.0]),
     dict(f_hz=POSITIVE, temperature_k=NON_NEGATIVE)),
    (partial(landau_rumer_q_inverse, PowerLawChannel(1e-9)), dict(temperature_k=1.0),
     dict(temperature_k=NON_NEGATIVE)),
    (QvsTDataset, dict(temperatures=[1.0, 2.0], q_values=[1e6, 2e6], sigma_q=[1e4, 2e4]),
     dict(temperatures=POSITIVE, q_values=POSITIVE, sigma_q=POSITIVE)),
    (PhotoelasticTensor, dict(PhotoelasticTensor.quartz_default().__dict__),
     {name: FINITE for name in PhotoelasticTensor.quartz_default().__dict__}),
    (OpticalConfig, dict(plate_thickness=3.5e-6, wavelength=1.064e-6, n_o=1.528, n_e=1.536,
                         polarization_angle=0.3, c1=0.2, c2=0.2),
     dict(plate_thickness=POSITIVE, wavelength=POSITIVE, n_o="finite and > 1",
          n_e="finite and > 1", polarization_angle=FINITE, c1=NON_NEGATIVE, c2=NON_NEGATIVE)),
    (partial(index_perturbation, PhotoelasticTensor.quartz_default()),
     dict(strain_voigt=[1e-4, 0.0, 0.0, 0.0, 0.0, 0.0]), dict(strain_voigt=FINITE)),
    (partial(principal_indices, OpticalConfig(3.5e-6)), dict(s_yy=1e-4), dict(s_yy=FINITE)),
    (StandingWaveMode, dict(defect_width=1e-5, amplitude=1e-12, frequency=1e8),
     dict(defect_width=POSITIVE, amplitude=NON_NEGATIVE, frequency=POSITIVE)),
    (ModeParams, dict(frequency=5e9, decay_rate=1e4, anharmonicity=200e6, dephasing_rate=1e3),
     dict(frequency=POSITIVE, decay_rate=NON_NEGATIVE, anharmonicity=FINITE,
          dephasing_rate=NON_NEGATIVE)),
    (TriModeSystem, dict(qubit=ModeParams(5e9), snail=ModeParams(1.1e9), mech=ModeParams(1e8),
                         g_qs=2e8, g_sm=1.2e5, g3=1e8),
     dict(g_qs=NON_NEGATIVE, g_sm=NON_NEGATIVE, g3=NON_NEGATIVE)),
    (DriveSpec, dict(frequency=4.9e9, amplitude=1e8, phase=0.5, duration=1e-6),
     dict(frequency=POSITIVE, amplitude=FINITE, phase=FINITE, duration=NON_NEGATIVE)),
    (DriveSpec, dict(frequency=4.9e9, n_photons=10.0), dict(n_photons=NON_NEGATIVE)),
    (hybridized_decay, dict(gamma_m=10.0, lambda_sm=1e-4, gamma_s=1e7),
     dict(gamma_m=NON_NEGATIVE, lambda_sm=FINITE, gamma_s=NON_NEGATIVE)),
    (partial(effective_eta, DRIVE), dict(f_snail_hz=1.1e9), dict(f_snail_hz=POSITIVE)),
    (partial(evolve, E0, np.zeros((6, 6))),
     dict(decay_rates=[1e3, 0.0], duration=1e-3, dephasing_rates=[1e2, 0.0]),
     dict(decay_rates=NON_NEGATIVE, duration=NON_NEGATIVE, dephasing_rates=NON_NEGATIVE)),
    (DuffingParams, dict(f0=1e8, Q=1e4, beta=1e20, drive=1e8),
     dict(f0=POSITIVE, Q=POSITIVE, beta=FINITE, drive=NON_NEGATIVE)),
    (partial(steady_state_amplitudes, DuffingParams(1e8, 1e4, 1e20, 1e8)), dict(f_hz=1e8),
     dict(f_hz=POSITIVE)),
    (q_tau_consistency, dict(quality_factor=1e6, f_hz=1e8, tau_s=1e-3),
     dict(quality_factor=POSITIVE, f_hz=POSITIVE, tau_s=POSITIVE)),
]

# dataclasses that the package returns, or that check their numbers by
# rules of their own; no caller hands them a physical input to validate
NOT_INPUTS = {
    PhysicalConstants: "fixed CODATA values",
    DensityMatrix: "its own finite, Hermitian, unit-trace and positive checks",
    ResonanceFit: "fit result",
    RingdownFit: "fit result",
    BackboneFit: "fit result",
    LossStackFit: "fit result",
    SweepResult: "sweep result",
    DressedSystem: "result of dress",
    EffectiveHamiltonian: "result of effective_coupling",
    EvolutionResult: "result of evolve",
    IswapResult: "result of iswap",
    ModulationResult: "result of detected_power",
}



def _id(target, name: str) -> str:
    return f"{getattr(target, 'func', target).__name__}-{name}"


CASES = [pytest.param(target, kwargs, name, rule, id=_id(target, name))
         for target, kwargs, rules in ROWS for name, rule in rules.items()]


def _with(kwargs: dict, name: str, value) -> dict:
    """``kwargs`` with ``name`` set to ``value``, or, for a list, its first element."""
    valid = kwargs[name]
    return {**kwargs, name: [value, *valid[1:]] if isinstance(valid, list) else value}


@pytest.mark.parametrize("target, kwargs", [
    pytest.param(target, kwargs, id=_id(target, next(iter(rules)))) for target, kwargs, rules in ROWS])
def test_valid_call_passes(target, kwargs):
    target(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("target, kwargs, name, rule", CASES)
def test_non_finite_input_is_rejected_by_name(target, kwargs, name, rule, value):
    with pytest.raises(ValueError, match=f"^{name} must be {re.escape(rule)}, got "):
        target(**_with(kwargs, name, value))


@pytest.mark.parametrize("target, kwargs, name, rule", CASES)
def test_zero_follows_the_bound(target, kwargs, name, rule):
    call = partial(target, **_with(kwargs, name, 0.0))
    if rule == FINITE or ">= 0" in rule:
        call()
    else:
        with pytest.raises(ValueError, match=f"^{name} must be {re.escape(rule)}, got 0.0"):
            call()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Segment(math.nan, 5750.0, 1e7), id="segment"),
    pytest.param(lambda: ChainSpec(5, MIRROR, MIRROR, math.nan), id="chain-termination"),
    pytest.param(lambda: ChainSpec(math.nan, MIRROR, MIRROR, 1.52e7), id="chain-mirrors"),
    pytest.param(lambda: BvdParams(C0=math.nan, Cm=1.38e-19, Lm=18.9), id="bvd"),
    pytest.param(lambda: ZenerChannel(delta=math.nan, tau0=1e-12), id="zener"),
    pytest.param(lambda: DefectArraySpec(math.nan), id="defects-nan"),
    pytest.param(lambda: DefectArraySpec(1.5), id="defects-fraction"),
    pytest.param(lambda: ChainSpec(2.5, MIRROR, MIRROR, 1.52e7), id="chain-fraction"),
    pytest.param(lambda: transmission(CHAIN, [math.nan, 1e8]), id="transmission"),
    pytest.param(lambda: bvd_admittance(BVD, [math.nan]), id="admittance"),
])
def test_found_examples_raise_a_named_error(build):
    # each of these constructed, or returned NaN, before the one input rule
    with pytest.raises(ValueError, match=r"^\w+ must be (finite|a whole number)"):
        build()


def test_whole_number_fields_accept_a_whole_float():
    chain = ChainSpec(5.0, MIRROR, reference_defect_cell(MIRROR), 1.52e7)
    assert chain.mirror_cells_per_side == 5 and isinstance(chain.mirror_cells_per_side, int)
    assert transmission(chain, 1e8) == transmission(reference_chain(5), 1e8)
    assert DefectArraySpec(5.0).N == 5


def test_ints_of_any_size_are_accepted_within_the_float_range():
    assert DuffingParams(1e8, 1e4, 1e20, 2**62).drive == float(2**62)
    require_finite(above=0.0, x=2**1023)
    for value in (2**1024, -(2**1100), 10**5000):
        with pytest.raises(ValueError, match=r"^drive must be finite and >= 0, got an int of \d+ bits$"):
            DuffingParams(1e8, 1e4, 1e20, value)
    with pytest.raises(ValueError, match="^x must be finite, got an int of 1025 bits$"):
        require_finite(x=-(2**1024))


def test_an_array_is_named_with_its_first_failing_element():
    with pytest.raises(ValueError, match=r"^t must be finite and >= 0, got -2\.0$"):
        require_finite(at_least=0.0, t=np.array([[1.0, -2.0], [math.nan, 3.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, value", [
    pytest.param((3, 3), math.nan, id="nan-at-e0-e0"),
    pytest.param((3, 1), math.inf, id="inf-coherence"),
])
def test_evolve_rejects_a_non_finite_hamiltonian(entry, value):
    # |e,0> is level 3 of (2, 3) and |g,1> level 1; the Hermiticity test
    # is False when both norms are NaN, so the finite check comes first
    h = np.zeros((6, 6), dtype=complex)
    h[entry] = h[entry[::-1]] = value
    with pytest.raises(ValueError, match="^Hamiltonian must be finite"):
        evolve(E0, h, [1e3, 0.0], 1e-3)


def _numeric(annotation: str) -> bool:
    return re.fullmatch(r"(float|int|complex|np\.ndarray)( \| None)?", annotation) is not None


def test_every_dataclass_with_a_numeric_field_has_rows():
    covered: dict[type, set] = {}
    for target, _, rules in ROWS:
        if inspect.isclass(target):
            covered.setdefault(target, set()).update(rules)
    missing = []
    for info in pkgutil.iter_modules(qmem.__path__):
        module = importlib.import_module(f"qmem.{info.name}")
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                continue
            numeric = {f.name for f in dataclasses.fields(cls) if _numeric(f.type)}
            if numeric and cls not in NOT_INPUTS and numeric - covered.get(cls, set()):
                missing.append(f"{cls.__qualname__}: {sorted(numeric - covered.get(cls, set()))}")
    assert not missing, f"numeric fields without a row in ROWS or NOT_INPUTS: {missing}"
