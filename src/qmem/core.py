"""Physical constants, unit conventions, and thermal formulas.

Conventions used throughout the package:

* Every public interface takes ordinary frequency in hertz.  Angular
  frequency (rad/s) is internal only; convert with :func:`angular` and
  :func:`ordinary`.
* Temperatures are in kelvin and T = 0 is a legal input everywhere,
  with occupation numbers defined by their zero-temperature limit.
* Times in seconds, capacitances in farads, inductances in henries.
* Every physical input passes :func:`require_finite`: it is finite and,
  where it has a lower bound, above it (or at it, for an inclusive bound).
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import FitDidNotConverge

TWO_PI = 2.0 * math.pi
_FLOAT_MAX = sys.float_info.max


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


def require_finite(*, above: float | None = None, at_least: float | None = None,
                   whole: bool = False, **values) -> None:
    """Raise ValueError naming the first ``name=value`` pair whose value is
    not finite, not > ``above`` or >= ``at_least`` where one is given, or,
    with ``whole``, not a whole number (5.0 is one): ``C0 must be finite and
    > 0, got nan``.  A value is a real scalar or an array, named with its
    first failing element; an array without a bound may be complex.  A
    scalar is compared with the largest float, which NaN and the infinities
    fail and an int of any size compares with exactly, so one past the
    float range fails too, reported by its bit length."""
    strict = above is not None
    bound = above if strict else at_least
    low = -_FLOAT_MAX if bound is None else bound
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            ok = np.isfinite(value)
            if bound is not None:
                ok &= value > bound if strict else value >= bound
            if ok.all():
                continue
            value = value.flat[np.argmin(ok)]
        elif ((low < value <= _FLOAT_MAX if strict else low <= value <= _FLOAT_MAX)
              and not (whole and value % 1)):
            continue
        if isinstance(value, int) and abs(value) > _FLOAT_MAX:  # str() refuses 4,300+ digits
            value = f"an int of {value.bit_length()} bits"
        rule = "finite" if bound is None else (
            f"{'a whole number' if whole else 'finite and'} {'>' if strict else '>='} {bound:g}")
        raise ValueError(f"{name} must be {rule}, got {value}")


def thermal_occupation(f_hz: float, temperature_k: float) -> float:
    """Mean thermal phonon number of a mode at ``f_hz`` and temperature T.

    Bose-Einstein occupation 1/(exp(hbar*omega/k_B*T) - 1), evaluated
    with ``expm1`` so the classical limit hbar*omega << k_B*T keeps full
    precision.  Returns 0 at T = 0.
    """
    require_finite(above=0.0, f_hz=f_hz)
    require_finite(at_least=0.0, temperature_k=temperature_k)
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
    require_finite(above=0.0, quality_factor=quality_factor)
    n_th = thermal_occupation(f_hz, temperature_k)
    gamma = angular(f_hz) / quality_factor
    return 1.0 / ((n_th + 1.0) * gamma)


def remember_last(fn):
    """``fn`` of a parameter array keeping its last result, which a call at
    the same theta (by its bytes) returns unevaluated: MINPACK takes each
    Jacobian where its last accepted residual call was."""
    key = result = None

    def remembered(theta):
        nonlocal key, result
        if theta.tobytes() != key:
            result, key = fn(theta), theta.tobytes()
        return result

    return remembered


def fit_least_squares(name: str, model, theta0, *, tol, max_nfev=None):
    """Minimize |r(theta)|^2 from ``theta0`` with MINPACK's
    Levenberg-Marquardt ``lmder`` (Moré 1978), called through
    ``scipy.optimize.leastsq`` with ftol = xtol = gtol = ``tol``.

    ``model(theta)`` returns the residuals r and a function of no arguments
    giving their exact Jacobian at theta, which must not read theta itself:
    MINPACK reuses its buffer.  The helper keeps the last evaluation and
    the last Jacobian by the bytes of theta, so the finiteness check,
    ``leastsq``'s shape checks and MINPACK share the one at theta0, and
    MINPACK's last Jacobian serves the solution where it was taken there.
    MINPACK scales each parameter by the norm of its Jacobian column
    (``diag=None``) on every scipy; ``least_squares`` made that, its
    ``x_scale="jac"``, the ``lm`` default only in scipy 1.16.  At most
    ``max_nfev`` evaluations, 100 per parameter by default.

    Returns the result (x, fun and jac at the solution, cost |fun|^2/2,
    MINPACK's status, nfev, njev) and :func:`parameter_uncertainties` at
    the solution.  Raises ValueError when the residuals at ``theta0`` are
    not finite, and ``FitDidNotConverge`` naming the fit unless MINPACK
    reports convergence (status 1-4).
    """
    from scipy.optimize import OptimizeResult, leastsq

    model = remember_last(model)
    jac = remember_last(lambda theta: model(theta)[1]())
    theta0 = np.asarray(theta0, dtype=float)
    if not np.isfinite(model(theta0)[0]).all():
        raise ValueError(f"{name} fit: residuals are not finite at the initial point")
    x, _, info, message, status = leastsq(
        lambda theta: model(theta)[0], theta0, Dfun=jac, full_output=True,
        ftol=tol, xtol=tol, gtol=tol, maxfev=max_nfev or 100 * theta0.size,
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
    require_finite(**{name: arr})
    return arr


@dataclass(frozen=True)
class FrequencyTrace:
    """Sampled complex response versus frequency.

    ``frequencies`` (strictly increasing) and ``response`` must be finite
    and of equal length; magnitude-only data has zero imaginary part.
    """

    frequencies: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        freqs = _as_float_array(self.frequencies, "frequencies")
        resp = np.asarray(self.response, dtype=complex)
        require_finite(response=resp)
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
    """Sampled finite real amplitude versus a strictly increasing time axis."""

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
