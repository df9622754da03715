"""Photoelastic transduction of a mechanical standing wave.

The in-plane strain of a width-extension mode perturbs the quartz index
ellipsoid through the photoelastic tensor.  Light reflected from the
front and back faces of the plate interferes with a strain-modulated
phase difference, so the detected power carries a beat at the mechanical
frequency whose small-modulation amplitude follows the first-order
Bessel function.  Origin convention: y = 0 at the defect center, where
the displacement u(y, t) = u0*sin(pi*y/L)*sin(omega_m*t) is odd and the
strain envelope cos(pi*y/L) is even and maximal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .core import angular, require_finite
from .errors import ModulationTooDeep, OutOfDefect

_QUARTZ_P = {
    "p11": 0.16,
    "p12": 0.27,
    "p13": 0.27,
    "p14": -0.03,
    "p31": 0.29,
    "p33": -0.047,
    "p41": 0.10,
    "p44": -0.079,
}


@dataclass(frozen=True)
class PhotoelasticTensor:
    """Photoelastic coefficients of a trigonal (quartz-class) crystal.

    The 6x6 Voigt matrix is generated from the eight independent
    coefficients, so the crystal symmetry pattern (equal, opposite, and
    zero entries) holds for every construction path.
    """

    p11: float
    p12: float
    p13: float
    p14: float
    p31: float
    p33: float
    p41: float
    p44: float

    def __post_init__(self):
        require_finite(**vars(self))

    @classmethod
    def quartz_default(cls) -> "PhotoelasticTensor":
        return cls(**_QUARTZ_P)

    @property
    def matrix(self) -> np.ndarray:
        p = self
        return np.array([
            [p.p11, p.p12, p.p13, p.p14, 0.0, 0.0],
            [p.p12, p.p11, p.p13, -p.p14, 0.0, 0.0],
            [p.p31, p.p31, p.p33, 0.0, 0.0, 0.0],
            [p.p41, -p.p41, 0.0, p.p44, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, p.p44, p.p41],
            [0.0, 0.0, 0.0, 0.0, p.p14, (p.p11 - p.p12) / 2.0],
        ])


# the crystal of the plate, whose strain the readout models below detect
_QUARTZ = PhotoelasticTensor.quartz_default()


def _fresnel_front(n: float) -> float:
    return (n - 1.0) / (n + 1.0)


def _fresnel_back(n: float) -> float:
    # air->quartz transmission, quartz->air reflection, quartz->air transmission
    return (2.0 / (1.0 + n)) * ((n - 1.0) / (n + 1.0)) * (2.0 * n / (1.0 + n))


@dataclass(frozen=True)
class OpticalConfig:
    """Probe-beam and plate parameters for the interference model.

    ``polarization_angle`` is measured in the crystal X-Y plane from the
    X axis; 0 selects the p12 modulation coefficient, pi/2 selects p11.
    ``c1`` and ``c2`` are the reflected field amplitudes from the front
    and back faces, defaulting to normal-incidence Fresnel values for
    the ordinary index.
    """

    plate_thickness: float
    wavelength: float = 1.064e-6
    n_o: float = 1.528
    n_e: float = 1.536
    polarization_angle: float = 0.0
    c1: float = field(default=None)  # type: ignore[assignment]
    c2: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        require_finite(above=0.0, plate_thickness=self.plate_thickness, wavelength=self.wavelength)
        require_finite(above=1.0, n_o=self.n_o, n_e=self.n_e)
        require_finite(polarization_angle=self.polarization_angle)
        if self.c1 is None:
            object.__setattr__(self, "c1", _fresnel_front(self.n_o))
        if self.c2 is None:
            object.__setattr__(self, "c2", _fresnel_back(self.n_o))
        require_finite(at_least=0.0, c1=self.c1, c2=self.c2)


@dataclass(frozen=True)
class StandingWaveMode:
    """Width-extension standing wave confined to a defect of width L."""

    defect_width: float
    amplitude: float
    frequency: float

    def __post_init__(self):
        require_finite(above=0.0, defect_width=self.defect_width, frequency=self.frequency)
        require_finite(at_least=0.0, amplitude=self.amplitude)

    @property
    def strain_amplitude(self) -> float:
        """Peak strain S0 = u0*pi/L at the defect center."""
        return self.amplitude * math.pi / self.defect_width


@dataclass(frozen=True)
class ModulationResult:
    """Interference observables at one probe position.

    ``beat_amplitude`` stores the full sideband coefficient
    4*c1*c2*sin(delta0)*J1(M); the measured single-sided amplitude of the
    sin(omega_m*t) term in the detected power is half of it, exposed as
    :attr:`single_sided_amplitude`.
    """

    delta0: float
    modulation_depth: float
    dc_power: float
    beat_amplitude: float

    @property
    def single_sided_amplitude(self) -> float:
        return 0.5 * self.beat_amplitude


_MAX_STRAIN = 1e-2


def index_perturbation(tensor: PhotoelasticTensor, strain_voigt) -> np.ndarray:
    """Impermeability change Delta(1/n^2) = p . S for a Voigt strain vector."""
    s = np.asarray(strain_voigt, dtype=float)
    if s.shape != (6,):
        raise ValueError("strain must be a 6-vector in Voigt order")
    require_finite(strain_voigt=s)
    if np.any(np.abs(s) >= _MAX_STRAIN):
        raise ValueError("strain outside the small-strain validity bound")
    return tensor.matrix @ s


def principal_indices(config: OpticalConfig, s_yy: float) -> tuple[float, float, float, float]:
    """Principal refractive indices and Y-Z rotation angle for strain S_yy.

    Returns (n_x, n_y, n_z, theta).  The rotation angle that diagonalizes
    the perturbed ellipsoid satisfies
    tan(2*theta) = -2*p41*S_yy / ((1/n_o^2 + p11*S_yy) - (1/n_e^2 + p31*S_yy))
    and stays tiny because the plate birefringence dominates the strain
    terms; the indices are the first-order expansions n - n^3*p*S/2.
    """
    require_finite(s_yy=s_yy)
    if abs(s_yy) >= _MAX_STRAIN:
        raise ValueError("strain outside the small-strain validity bound")
    p = _QUARTZ
    n_o, n_e = config.n_o, config.n_e
    num = -2.0 * p.p41 * s_yy
    den = (1.0 / n_o**2 + p.p11 * s_yy) - (1.0 / n_e**2 + p.p31 * s_yy)
    theta = 0.5 * math.atan2(num, den)
    n_x = n_o - 0.5 * n_o**3 * p.p12 * s_yy
    n_y = n_o - 0.5 * n_o**3 * p.p11 * s_yy
    n_z = n_e - 0.5 * n_e**3 * p.p31 * s_yy
    return n_x, n_y, n_z, theta


def _check_in_defect(mode: StandingWaveMode, y: float) -> None:
    if abs(y) > mode.defect_width / 2.0:
        raise OutOfDefect(
            f"|y| = {abs(y):.3g} m exceeds half the defect width "
            f"{mode.defect_width / 2.0:.3g} m"
        )


def displacement_field(mode: StandingWaveMode, y: float, t: float) -> float:
    """Displacement u(y, t) = u0*sin(pi*y/L)*sin(omega_m*t), y from center."""
    _check_in_defect(mode, y)
    return (
        mode.amplitude
        * math.sin(math.pi * y / mode.defect_width)
        * math.sin(angular(mode.frequency) * t)
    )


def strain_field(mode: StandingWaveMode, y: float, t: float) -> float:
    """Strain S_yy(y, t) = S0*cos(pi*y/L)*sin(omega_m*t), y from center."""
    _check_in_defect(mode, y)
    return (
        mode.strain_amplitude
        * math.cos(math.pi * y / mode.defect_width)
        * math.sin(angular(mode.frequency) * t)
    )


def _polarization_coefficient(config: OpticalConfig) -> float:
    # p12 for X-polarized light, p11 for Y-polarized, cos^2/sin^2 weighted
    # in between (each linear component rides its own index modulation).
    c = math.cos(config.polarization_angle) ** 2
    return _QUARTZ.p12 * c + _QUARTZ.p11 * (1.0 - c)


def phase_modulation(config: OpticalConfig, mode: StandingWaveMode, y: float) -> tuple[float, float]:
    """Static phase delta0 and modulation depth M of the two-face interference.

    delta0 = n_o*(2*pi/lambda)*2*T and
    M = (2*pi/lambda)*T*n_o^3*p*S0*cos(pi*y/L) with the
    polarization-selected coefficient p.
    """
    _check_in_defect(mode, y)
    k0 = 2.0 * math.pi / config.wavelength
    delta0 = config.n_o * k0 * 2.0 * config.plate_thickness
    envelope = math.cos(math.pi * y / mode.defect_width)
    m = (
        k0
        * config.plate_thickness
        * config.n_o**3
        * _polarization_coefficient(config)
        * mode.strain_amplitude
        * envelope
    )
    return delta0, m


def detected_power(config: OpticalConfig, mode: StandingWaveMode, y: float) -> ModulationResult:
    """Interference observables of the reflected probe at position y.

    Valid in the small-modulation regime: raises ``ModulationTooDeep``
    unless M < 1 and warns above M = 0.5, where the two-term Bessel
    truncation starts to degrade.
    """
    from scipy.special import j0, j1

    delta0, m = phase_modulation(config, mode, y)
    if m >= 1.0:
        raise ModulationTooDeep(
            f"modulation depth M = {m:.3g} outside the validity bound M < 1"
        )
    if m > 0.5:
        warnings.warn(
            f"modulation depth M = {m:.3g} above 0.5; Bessel truncation degrades",
            stacklevel=2,
        )
    c1, c2 = config.c1, config.c2
    dc = 0.5 * (c1**2 + c2**2 + 2.0 * c1 * c2 * math.cos(delta0) * j0(m))
    beat = 4.0 * c1 * c2 * math.sin(delta0) * j1(m)
    return ModulationResult(
        delta0=delta0, modulation_depth=m, dc_power=dc, beat_amplitude=beat
    )


def polarization_contrast(tensor: PhotoelasticTensor) -> float:
    """Detected-power contrast 10*log10((p12/p11)^2) between X and Y input."""
    if tensor.p11 == 0.0 or tensor.p12 == 0.0:
        raise ValueError("p11 and p12 must be nonzero")
    return 10.0 * math.log10((tensor.p12 / tensor.p11) ** 2)


def mode_profile_scan(
    envelope, config: OpticalConfig, mode_template: StandingWaveMode
) -> list[tuple[float, float]]:
    """Simulated optical scan across a mode envelope.

    ``envelope`` is a sequence of (position, normalized amplitude) pairs
    with 1 at the defect.  Each position is sampled at its local strain
    antinode with the template's peak amplitude scaled by the envelope a,
    so its modulation depth is M a, with M that of the template; the
    beat amplitude 4 c1 c2 sin(delta0) J1(M a) normalized to 1 at the
    defect is J1(M a)/J1(M).  The validity bound of ``detected_power`` is
    checked once, at the largest a, the deepest modulation.
    """
    from scipy.special import j1

    pairs = [(float(pos), float(amp)) for pos, amp in envelope]
    if not pairs:
        raise ValueError("envelope must be non-empty")
    amps = np.array([a for _, a in pairs])
    require_finite(at_least=0.0, envelope=amps)
    if np.all(amps == 0.0):
        return [(pos, 0.0) for pos, _ in pairs]
    peak = float(np.max(amps))
    if not math.isclose(peak, 1.0, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError("envelope must be normalized to 1 at the defect")
    deepest = detected_power(
        config, replace(mode_template, amplitude=mode_template.amplitude * peak), 0.0
    )
    if deepest.beat_amplitude == 0.0:
        return [(pos, 0.0) for pos, _ in pairs]
    m = deepest.modulation_depth / peak
    scan = j1(m * amps) / j1(m)
    return [(pos, s) for (pos, _), s in zip(pairs, scan.tolist())]
