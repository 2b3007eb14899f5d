"""Adaptive FIR filters that enhance periodic impulsive signatures.

The main filter learns coefficients ``w`` by minimizing the smoothed
l1/l2 ratio of the filtered output ``f = Y . w`` (``Y`` the signal's
Hankel matrix).  The ratio is scale-invariant, bounded in
``[1, sqrt(len(f))]``, and reaches its minimum on maximally sparse
outputs, so descending it concentrates energy into repetitive impacts
without chasing single outliers the way kurtosis maximization does.
Minimization runs through an off-the-shelf limited-memory quasi-Newton
solver with an analytic gradient.

A classical minimum entropy deconvolution (MED) filter, implemented as a
fixed-point iteration on the kurtosis objective, is included as the
comparison baseline.
"""

import contextlib
import ctypes
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpptrs
from scipy.optimize import minimize

from .core_signal import _correlator, _validated_filter
from .errors import DegenerateInputError, NumericalFailureError
from .features import kurtosis

__all__ = [
    "CsfConfig",
    "CsfResult",
    "csf_cost",
    "csf_gradient",
    "fit_simplified_csf",
    "fit_med",
]

# Plateau stop: L-BFGS-B ends a fit once the cost's relative reduction over
# an iteration falls below this (the ``factr`` test of Byrd, Lu, Nocedal &
# Zhu 1995).  Rounding-level changes to the input (``y * (1 + k 2^-50)``)
# already move every filtered feature, so refining below that spread buys
# nothing.  This is the ``chosen_ftol`` of studies/STOP_FLOOR.json: the
# largest stop whose move stays within that spread, at p95 and at max, on
# every filtered feature.
_PLATEAU_FTOL = 3e-7

# Why a sparse-filter fit stopped (``CsfResult.stop``).
STOP_REASONS = ("gradient", "plateau", "iteration_cap", "line_search")


def _solver_blas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS that L-BFGS-B calls, or None.

    The symbols are looked up through scipy's L-BFGS-B extension, so this
    finds whichever OpenBLAS that extension was linked against, and
    nothing when it was linked against another BLAS.
    """
    try:
        from scipy.optimize import _lbfgsb  # private: may move in a later scipy

        lib = ctypes.CDLL(_lbfgsb.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):  # scipy's wheels, a system OpenBLAS
        get = getattr(lib, f"{prefix}_get_num_threads", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


# Once per iteration scipy's L-BFGS-B solves a triangular system with up
# to ``maxcor`` right-hand sides (LAPACK ``dtrtrs``), and OpenBLAS splits
# any such solve over its thread pool, however small.  The pool's worker
# then spins on another core for the whole fit and every iteration
# waits for it, so a fit slows by half or more whenever another process
# wants that core.  The solver therefore runs with its OpenBLAS on one
# thread; each right-hand side is solved on its own, so its result does
# not change.  MED needs no pin: its packed factor, from ``_gram_factor``
# (``l (l + 1) / 2`` doubles, 64 MiB at ``l = 4096``), uses no BLAS, and
# each of its solves (``dpptrs``) is two packed triangular solves with one
# right-hand side each, which OpenBLAS does not split.  Parallelism comes
# from running snapshots side by side (``pipeline.two_branch_features``),
# never from inside one fit.
# The previous count is restored when the last concurrent fit returns.
_SOLVER_THREADS = _solver_blas_threads()
_solver_lock = threading.Lock()
_solver_fits = 0  # fits inside the solver
_solver_restore = None  # thread count before the first of them entered


@contextlib.contextmanager
def _serial_solver():
    """Run the enclosed L-BFGS-B solve with scipy's OpenBLAS on one thread."""
    global _solver_fits, _solver_restore
    if _SOLVER_THREADS is None:
        yield
        return
    get, set_ = _SOLVER_THREADS
    with _solver_lock:
        if _solver_fits == 0:
            _solver_restore = get()
            set_(1)
        _solver_fits += 1
    try:
        yield
    finally:
        with _solver_lock:
            _solver_fits -= 1
            if _solver_fits == 0:
                set_(_solver_restore)


@dataclass(frozen=True)
class CsfConfig:
    """Settings for sparse-filter and MED fits.

    filter_length       number of FIR taps ``l`` (2 <= l <= N/2)
    epsilon             soft-absolute smoothing constant
    max_iterations      iteration cap for the optimizer
    gradient_tolerance  convergence tolerance, relative to the initial
                        gradient norm (for MED: relative filter change)

    Every fit starts from the unit spike at tap ``ceil(l/2)``.
    """

    filter_length: int = 100
    epsilon: float = 1e-8
    max_iterations: int = 500
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        if self.filter_length < 2:
            raise ValueError("filter_length must be at least 2")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (self.gradient_tolerance > 0):
            raise ValueError("gradient_tolerance must be positive")


@dataclass
class CsfResult:
    """Outcome of an adaptive-filter fit.

    ``w`` has unit l2 norm; ``filtered`` is recomputed from the normalized
    coefficients.  ``cost_history`` holds the objective at the initial point
    and at every accepted iterate (for MED: negative output kurtosis, so the
    descent convention is shared).  ``stop`` says why a sparse-filter fit
    stopped: ``gradient`` (the gradient-norm test), ``plateau`` (the
    relative cost reduction fell below ``_PLATEAU_FTOL``), ``iteration_cap``
    or ``line_search`` (no step lowered the cost); MED leaves it None.
    """

    w: np.ndarray
    filtered: np.ndarray
    cost_history: np.ndarray
    converged: bool
    iterations: int = 0
    stop: str | None = None


def _soft_abs_sums(f, epsilon):
    """``c = sqrt(f^2 + eps)``, ``S1 = sum(c)`` and ``S2 = sqrt(sum(c^2))``.

    ``f^2 + eps`` is formed once: its sum is ``S2^2``, and its square root,
    taken in place, is ``c``.
    """
    c = f * f
    c += epsilon
    s2 = np.sqrt(c.sum())
    np.sqrt(c, out=c)
    return c, c.sum(), s2


def csf_cost(f, epsilon=1e-8):
    """Smoothed l1/l2 sparsity ratio of a vector.

    Each ``|f_i|`` is replaced by the soft absolute ``sqrt(f_i^2 + eps)``;
    the cost is ``sum(c) / sqrt(sum(c^2))``.  Bounded below by 1 (single
    spike) and above by ``sqrt(len(f))`` (uniform magnitudes).
    """
    f = np.asarray(f, dtype=np.float64)
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    if not np.any(f != 0.0):
        raise DegenerateInputError("cost of the zero vector is undefined")
    _, s1, s2 = _soft_abs_sums(f, epsilon)
    return float(s1 / s2)


def _cost_and_gradient(correlate, w, epsilon):
    """Cost and its analytic gradient with respect to the filter taps.

    ``correlate`` is the signal's ``_correlator`` for ``len(w)`` taps.

    With ``f = Y.w``, ``c_i = sqrt(f_i^2 + eps)``, ``S1 = sum(c)`` and
    ``S2 = sqrt(sum(c^2))`` (summed as ``f^2 + eps``, before the root):

        dJ/dw_j = sum_i (1/S2 - S1 c_i / S2^3) * (f_i / c_i) * y_{i+j-1}

    The trailing sum is the correlator's adjoint pass on the per-sample
    factor, one batched block transform, as the forward pass is.
    """
    f = correlate(w)
    if not np.any(f != 0.0):
        raise DegenerateInputError("filtered output is identically zero")
    c, s1, s2 = _soft_abs_sums(f, epsilon)
    # (1/S2 - S1 c/S2^3) * (f/c) simplifies: the second term's c cancels.
    # Formed in ``c``'s memory: (f / c) / S2 - (S1 / S2^3) f.
    per_sample = np.divide(f, c, out=c)
    per_sample /= s2
    per_sample -= (s1 / s2**3) * f
    return s1 / s2, correlate(per_sample)


def csf_gradient(signal, w, epsilon=1e-8):
    """Analytic gradient of ``csf_cost(convolve_valid(signal, w))`` in ``w``."""
    w = _validated_filter(signal, w)
    if not (epsilon > 0):
        raise ValueError("epsilon must be positive")
    _, grad = _cost_and_gradient(_correlator(signal.samples, w.size), w, epsilon)
    return grad


def _initial_filter(l):
    w0 = np.zeros(l)
    w0[(l + 1) // 2 - 1] = 1.0  # index ceil(l/2), 1-based
    return w0


def _check_fit_inputs(signal, config):
    y = signal.samples
    n = y.size
    l = config.filter_length
    if l > n // 2:
        raise ValueError(f"filter_length {l} exceeds N/2 for N={n}")
    if np.ptp(y) == 0.0:
        raise DegenerateInputError("cannot fit a filter to a constant signal")
    return y


def fit_simplified_csf(signal, config=None):
    """Learn the sparse filter by quasi-Newton descent on the l1/l2 ratio.

    The unit-norm constraint on ``w`` is not enforced during iteration
    (the cost is, up to smoothing, homogeneous of degree zero in ``w``);
    a single renormalization is applied afterwards and the filtered
    output recomputed from the normalized coefficients.

    Parameters
    ----------
    signal : Signal
    config : CsfConfig, optional

    Returns
    -------
    CsfResult
        ``converged`` is False when the fit stopped at the iteration cap
        or on a failed line search (``stop``), or when the solver stopped
        within one iteration (at an extreme input scale ``epsilon``
        flattens the cost and the fit barely leaves its starting spike).
        None of these is an error.
    """
    config = config or CsfConfig()
    correlate = _correlator(_check_fit_inputs(signal, config), config.filter_length)
    eps = config.epsilon

    w0 = _initial_filter(config.filter_length)
    cost0, grad0 = _cost_and_gradient(correlate, w0, eps)
    gtol = config.gradient_tolerance * max(np.max(np.abs(grad0)), np.finfo(float).tiny)

    history = [cost0]

    def record(intermediate_result):  # scipy passes the OptimizeResult only under this name
        history.append(intermediate_result.fun)

    with _serial_solver():
        result = minimize(
            lambda w: _cost_and_gradient(correlate, w, eps),
            w0,
            jac=True,
            method="L-BFGS-B",
            callback=record,
            options={
                "maxiter": config.max_iterations,
                "maxcor": 10,
                "ftol": _PLATEAU_FTOL,
                "gtol": gtol,
                "maxls": 60,
            },
        )

    if np.max(np.abs(result.jac)) <= gtol:
        stop = "gradient"
    else:  # L-BFGS-B's status: 0 its own stop test, 1 the iteration cap, 2 a failed line search
        stop = {0: "plateau", 1: "iteration_cap"}.get(result.status, "line_search")
    converged = bool(result.nit > 1 and stop in ("gradient", "plateau"))

    w = result.x / np.linalg.norm(result.x)
    filtered = correlate(w)
    return CsfResult(
        w=w,
        filtered=filtered,
        cost_history=np.asarray(history),
        converged=converged,
        iterations=int(result.nit),
        stop=stop,
    )


def _rotate(a, b):
    """Givens rotation of the column pair ``(a, b)`` that zeroes ``b``'s top entry."""
    r = math.hypot(a[0], b[0])
    if r == 0.0:
        return a, b
    cos, sin = a[0] / r, b[0] / r
    return cos * a + sin * b, cos * b - sin * a


def _gram_factor(y, correlate, l):
    """Lower Cholesky factor of MED's ridged normal-equation matrix, packed.

    The matrix is ``A = Y^T Y + delta I``, with ``A[j,k] = sum_i y[i+j] y[i+k]``
    over the ``m = N - l + 1`` valid windows and ``delta`` a small ridge
    that guards a near-singular ``A``; ``correlate`` is ``y``'s
    ``_correlator`` for ``l``, whose adjoint pass on ``y[:m]`` gives ``A``'s
    first column (one block, a whole-record correlation, at MED's usual
    ``l = N/2``).  Since
    ``A[j+1,k+1] = A[j,k] - y[j] y[k] + y[m+j] y[m+k]``, shifting ``A`` one
    step down its diagonal leaves four rank-one terms,
    ``A - Z A Z^T = u u^T + p p^T - v v^T - q q^T`` (``Z`` the down-shift),
    so the generalized Schur algorithm (Kailath & Sayed, SIAM Review 37(3),
    1995) yields the factor from these four generator columns one column
    at a time, in O(l^2), without forming ``A``.  Each step rotates the
    generator until only ``u`` has a top entry (a Givens rotation within
    each sign, then a hyperbolic rotation in mixed form, which keeps it
    stable); ``u`` is then the next column of the factor, from the diagonal
    down.  The columns follow each other in LAPACK's packed lower storage,
    one array of ``l (l + 1) / 2`` doubles (64 MiB at ``l = 4096``).  Only
    elementwise numpy and scalar arithmetic are used, so no BLAS thread
    count can change the factor.
    """
    m = y.size - l + 1
    energy = np.concatenate(([0.0], np.cumsum(y * y)))
    trace = energy[m:].sum() - energy[:l].sum()  # sum of the l window energies
    c = correlate(y[:m])  # c[d] = A[d, 0] without the ridge
    c[0] += 1e-8 * trace / l
    if not c[0] > 0.0:
        raise NumericalFailureError("MED normal equations are singular")
    u = c / math.sqrt(c[0])  # u u^T - v v^T: the first row and column of A
    v = u.copy()
    v[0] = 0.0
    p = np.concatenate(([0.0], y[m : m + l - 1]))  # samples the windows gain one step down
    q = np.concatenate(([0.0], y[: l - 1]))  # and the samples they lose

    factor = np.empty(l * (l + 1) // 2)
    start = 0  # column k's offset in the packed factor
    for k in range(l):
        u, p = _rotate(u, p)
        v, q = _rotate(v, q)
        if not abs(v[0]) < u[0]:  # |rho| < 1, or A is not positive definite
            raise NumericalFailureError("MED normal equations are singular")
        rho = v[0] / u[0]
        s = math.sqrt((1.0 - rho) * (1.0 + rho))
        u = (u - rho * v) / s
        v = s * v - rho * u
        factor[start : start + l - k] = u if u[0] > 0.0 else -u
        start += l - k
        u, p, v, q = u[:-1], p[1:], v[1:], q[1:]
    return factor


def fit_med(signal, config=None):
    """Minimum entropy deconvolution baseline (kurtosis-maximizing filter).

    Fixed-point iteration on the normal equations ``A . w_new = b`` with
    ``A`` the lag-0..l-1 autocorrelation matrix of the input over the
    valid windows and ``b_j = sum_i f_i^3 y_{i+j-1}``, solved by LAPACK's
    ``dpptrs`` with ``A``'s packed Cholesky factor (``l (l + 1) / 2``
    doubles, 64 MiB at ``l = 4096``); the new filter is renormalized each
    pass.  Stops when the filter change drops below ``gradient_tolerance``
    or the iteration cap is hit.  The negative output kurtosis is appended
    to ``cost_history`` per pass.
    """
    config = config or CsfConfig()
    y = _check_fit_inputs(signal, config)
    l = config.filter_length

    # At extreme scales MED's arithmetic overflows; the finiteness checks below
    # then raise one NumericalFailureError in place of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        correlate = _correlator(y, l)
        factor = _gram_factor(y, correlate, l)
        if not np.isfinite(factor).all():  # checked once here, not by every solve
            raise NumericalFailureError("MED normal equations are not finite")

        w = _initial_filter(l)
        f = correlate(w)
        history = [-kurtosis(f)]
        converged = False
        iterations = 0

        for _ in range(config.max_iterations):
            b = correlate(f**3)
            w_new, info = dpptrs(l, factor, b, lower=1, overwrite_b=1)
            if info != 0:
                raise NumericalFailureError(f"MED solve failed (LAPACK dpptrs info={info})")
            norm = np.linalg.norm(w_new)
            if not np.isfinite(norm) or norm == 0.0:
                raise NumericalFailureError("MED iteration produced a degenerate filter")
            w_new /= norm

            delta = np.linalg.norm(w_new - w)
            w = w_new
            f = correlate(w)
            history.append(-kurtosis(f))
            iterations += 1
            if delta < config.gradient_tolerance:
                converged = True
                break

    return CsfResult(
        w=w,
        filtered=f,
        cost_history=np.asarray(history),
        converged=converged,
        iterations=iterations,
    )
