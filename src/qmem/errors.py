"""Exception types shared across the package.

Computation failures (fits, solvers) derive from :class:`ComputationError`
so the command-line layer can map them to a common exit code, even one
that is also a ``ValueError``.  Input and configuration problems raise
:class:`ConfigError` or plain ``ValueError``.
"""


class QmemError(Exception):
    """Base class for all package-specific errors."""


class ComputationError(QmemError):
    """A numerical routine failed to produce a usable result."""


class FitDidNotConverge(ComputationError):
    """Nonlinear least squares terminated without convergence."""


class DegenerateJacobian(ComputationError):
    """Fit Jacobian is rank deficient, parameters are not identifiable."""


class ResonanceNotInWindow(ComputationError):
    """Admittance trace shows no series resonance inside the window."""


class NoPeakFound(ComputationError):
    """Frequency trace has no resonance peak above the noise floor."""


class NonDecayingTrace(ComputationError):
    """Time trace does not decay on the recorded span."""


class NoDefectModeInGap(ComputationError):
    """No localized mode found inside the requested band gap."""


class ChainMatrixOverflow(ComputationError):
    """Chain transfer matrix overflows the float range (very long mirrors)."""


class LinewidthNotResolved(ComputationError):
    """Resonance too narrow for the half-maximum search to resolve."""


class NoBackbonePeak(ComputationError):
    """Duffing response curve has no real peak at the requested drive."""


class ModulationTooDeep(ComputationError, ValueError):
    """Optical modulation depth reaches M >= 1, where the two-term Bessel
    expansion of the detected power no longer holds.  Also a ValueError,
    so callers that catch ValueError for out-of-range input still do."""


class TemplateOutOfRange(QmemError, ValueError):
    """Loss-stack template whose initial model is not finite at the data's
    temperatures, so the fit has no starting point.  Also a ValueError: the
    template is an input."""


class DegenerateModes(QmemError):
    """Mode detunings too small for the perturbative dressing to apply."""


class DriveOnResonance(QmemError):
    """Parametric drive frequency coincides with the mixer resonance."""


class DriveOffDifferenceFrequency(QmemError):
    """Drive does not match the qubit-mechanics difference frequency."""


class OutOfDefect(QmemError):
    """Position outside the defect cell where the standing wave is defined."""


class ConfigError(QmemError):
    """Configuration document missing or malformed."""
