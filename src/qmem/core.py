"""Physical constants, unit conventions, and thermal formulas.

Conventions used throughout the package:

* Every public interface takes ordinary frequency in hertz.  Angular
  frequency (rad/s) is internal only; convert with :func:`angular` and
  :func:`ordinary`.
* Temperatures are in kelvin and T = 0 is a legal input everywhere,
  with occupation numbers defined by their zero-temperature limit.
* Times in seconds, capacitances in farads, inductances in henries.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitDidNotConverge

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 values, SI units."""

    hbar: float = 1.054571817e-34  # J s
    k_B: float = 1.380649e-23  # J/K (exact)
    c: float = 299792458.0  # m/s (exact)
    e: float = 1.602176634e-19  # C (exact)


CONSTANTS = PhysicalConstants()


def angular(f_hz):
    """Angular frequency (rad/s) for an ordinary frequency in Hz."""
    return TWO_PI * f_hz


def ordinary(omega_rad_s):
    """Ordinary frequency (Hz) for an angular frequency in rad/s."""
    return omega_rad_s / TWO_PI


def thermal_occupation(f_hz: float, temperature_k: float) -> float:
    """Mean thermal phonon number of a mode at ``f_hz`` and temperature T.

    Bose-Einstein occupation 1/(exp(hbar*omega/k_B*T) - 1), evaluated
    with ``expm1`` so the classical limit hbar*omega << k_B*T keeps full
    precision.  Returns 0 at T = 0.
    """
    if f_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {f_hz}")
    if temperature_k < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature_k}")
    if temperature_k == 0.0:
        return 0.0
    x = CONSTANTS.hbar * angular(f_hz) / (CONSTANTS.k_B * temperature_k)
    if x > 45.0:
        # occupation ~ exp(-x); avoids overflow in expm1 for deep quantum regime
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def thermal_decoherence_time(quality_factor: float, f_hz: float, temperature_k: float) -> float:
    """Thermal decoherence time of a mode with quality factor Q.

    Uses tau = 1/((n_th + 1) * Gamma) with Gamma = omega/Q, which reduces
    to Q/omega for hbar*omega >> k_B*T and to hbar*Q/(k_B*T) in the
    high-temperature limit.
    """
    if quality_factor <= 0.0:
        raise ValueError(f"Q must be positive, got {quality_factor}")
    n_th = thermal_occupation(f_hz, temperature_k)
    gamma = angular(f_hz) / quality_factor
    return 1.0 / ((n_th + 1.0) * gamma)


def fit_least_squares(name: str, residuals, theta0, *, jac, ftol=1e-8, xtol=1e-8, gtol=1e-8,
                      max_nfev=None):
    """Minimize |residuals(theta)|^2 from ``theta0`` with MINPACK's
    Levenberg-Marquardt ``lmder`` (Moré 1978), called through
    ``scipy.optimize.leastsq`` with the exact Jacobian ``jac``.

    MINPACK scales each parameter by the norm of its Jacobian column
    (``diag=None``), the ``x_scale="jac"`` of ``least_squares``, whose
    default for ``lm`` was a unit scale before scipy 1.16; ``leastsq``
    gives every fit the same scaling on every scipy.  At most ``max_nfev``
    residual evaluations, 100 per parameter by default.

    Returns the result (x, fun and ``jac(x)`` at the solution, cost
    |fun|^2/2, MINPACK's status, nfev, njev) and
    :func:`parameter_uncertainties` at the solution.  Raises ValueError
    when the residuals at ``theta0`` are not finite, and
    ``FitDidNotConverge`` naming the fit unless MINPACK reports
    convergence (status 1-4).
    """
    from scipy.optimize import OptimizeResult, leastsq

    theta0 = np.asarray(theta0, dtype=float)
    if not np.isfinite(residuals(theta0)).all():
        raise ValueError(f"{name} fit: residuals are not finite at the initial point")
    x, _, info, message, status = leastsq(
        residuals, theta0, Dfun=jac, full_output=True, ftol=ftol, xtol=xtol, gtol=gtol,
        maxfev=max_nfev or 100 * theta0.size,
    )
    if status not in (1, 2, 3, 4):
        raise FitDidNotConverge(f"{name} fit failed: {' '.join(message.split())}")
    fun = info["fvec"]
    result = OptimizeResult(x=x, fun=fun, jac=jac(x), cost=0.5 * np.dot(fun, fun),
                            status=status, nfev=info["nfev"], njev=info["njev"])
    return (result, *parameter_uncertainties(result.jac, fun))


def parameter_uncertainties(jac: np.ndarray, residuals: np.ndarray):
    """1-sigma parameter uncertainties and the singular values of the
    Jacobian ``jac`` at a least-squares solution, from one SVD: the
    covariance is V S^-2 V^T times the residual variance |r|^2/dof, so a
    zero singular value leaves its parameters a non-finite sigma."""
    _, singular_values, vt = np.linalg.svd(jac, full_matrices=False)
    dof = max(residuals.size - jac.shape[1], 1)
    variance = residuals @ residuals / dof
    with np.errstate(all="ignore"):  # a tiny singular value overflows to inf
        sigma = np.sqrt(variance * np.sum((vt / singular_values[:, None]) ** 2, axis=0))
    return sigma, singular_values


def read_csv_table(path, headers) -> tuple[tuple[str, ...], np.ndarray]:
    """Numeric rows of a CSV file whose header is one of ``headers``.

    Returns the header found and an (n, k) array of its k columns; blank
    lines are skipped.  A missing or unexpected header, a short or
    non-numeric row, a non-finite value and a file without data rows each
    raise ValueError naming the file, and the line where there is one.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        cols = tuple(h.strip() for h in header)
        if cols not in headers:
            expected = " or ".join(f"'{','.join(h)}'" for h in headers)
            raise ValueError(f"{path}: expected header {expected}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values = [float(row[j]) for j in range(len(cols))]
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}: bad row at line {lineno}: {row}") from exc
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: non-finite value at line {lineno}: {row}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return cols, np.array(rows)


def write_csv_table(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as CSV, each number as the repr of
    its float, which reads back exactly; other cells (labels) as they are."""
    numeric = (float, np.floating, np.integer)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, numeric) else v for v in row])


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    return arr


@dataclass(frozen=True)
class FrequencyTrace:
    """Sampled complex response versus frequency.

    ``frequencies`` must be strictly increasing and the same length as
    ``response``.  Magnitude-only data is carried with zero imaginary part.
    """

    frequencies: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        freqs = _as_float_array(self.frequencies, "frequencies")
        resp = np.asarray(self.response, dtype=complex)
        if resp.shape != freqs.shape:
            raise ValueError("frequencies and response must have equal length")
        if np.any(np.diff(freqs) <= 0.0):
            raise ValueError("frequencies must be strictly increasing")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "response", resp)

    def __len__(self) -> int:
        return self.frequencies.size


@dataclass(frozen=True)
class TimeTrace:
    """Sampled real amplitude versus time, strictly increasing time axis."""

    times: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        times = _as_float_array(self.times, "times")
        amp = _as_float_array(self.amplitude, "amplitude")
        if amp.shape != times.shape:
            raise ValueError("times and amplitude must have equal length")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitude", amp)

    def __len__(self) -> int:
        return self.times.size
