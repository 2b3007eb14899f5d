"""Adaptive FIR filters that enhance periodic impulsive signatures.

The main filter learns coefficients ``w`` by minimizing the smoothed
l1/l2 ratio of the filtered output ``f = Y . w`` (``Y`` the signal's
Hankel matrix).  The ratio is scale-invariant, bounded in
``[1, sqrt(len(f))]``, and reaches its minimum on maximally sparse
outputs, so descending it concentrates energy into repetitive impacts
without chasing single outliers the way kurtosis maximization does.
Minimization runs through a small limited-memory quasi-Newton (L-BFGS)
solver with an analytic gradient.  Neither the solver nor the cost calls
BLAS, so a fit is bit-identical at every BLAS thread count.

A classical minimum entropy deconvolution (MED) filter, implemented as a
fixed-point iteration on the kurtosis objective, is included as the
comparison baseline.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpptrs

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

# Plateau stop: ``_lbfgs`` ends a fit once the cost's relative reduction over
# an iteration falls below this (L-BFGS-B's ``factr`` test).  It is the
# ``chosen_ftol`` of studies/STOP_FLOOR.json, run with ``_lbfgs``: the largest
# stop whose move on every filtered feature stays within the spread that
# rounding-level input changes (``y * (1 + k 2^-50)``) give it, at p95 and max.
_PLATEAU_FTOL = 2e-7

_EPSILON = 1e-8  # the cost's soft-absolute smoothing, sqrt(f^2 + eps)
_MAX_ITERATIONS = 500  # iteration cap of the CSF and MED fits
_GRADIENT_TOL = 1e-6  # CSF stop: max|g| relative to the initial max|g|
_MED_STEP_TOL = 1e-6  # MED stop: ||w_new - w|| between unit-norm filters

_MEMORY = 10  # (s, y) pairs that _lbfgs keeps
_ARMIJO = 1e-4  # its line search's sufficient-decrease constant c1
_MAX_TRIALS = 60  # and the cost evaluations one search may spend

# Why a sparse-filter fit stopped (``CsfResult.stop``).
STOP_REASONS = ("gradient", "plateau", "iteration_cap", "line_search")


@dataclass(frozen=True)
class CsfConfig:
    """Settings for sparse-filter and MED fits: the number of FIR taps ``l`` (2 <= l <= N/2).

    Every fit starts from the unit spike at tap ``ceil(l/2)``.  The cost's
    smoothing, the iteration cap and the stop tolerances are this module's
    constants.
    """

    filter_length: int = 100

    def __post_init__(self):
        if self.filter_length < 2:
            raise ValueError("filter_length must be at least 2")


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


def csf_cost(f, epsilon=_EPSILON):
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


def csf_gradient(signal, w, epsilon=_EPSILON):
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


def _dot(a, b):
    """``a . b`` by numpy's einsum loop, not BLAS ``ddot`` (threaded above 10,000 elements)."""
    return float(np.einsum("i,i->", a, b))


def _lbfgs(fun, x, gradient_tolerance, max_iterations):
    """Minimize ``fun`` (cost and gradient ``g``) from ``x`` by L-BFGS (Liu & Nocedal 1989).

    Returns the last iterate, the costs (initial, then one per iteration)
    and the stop (``CsfResult.stop``); ``gradient_tolerance`` is relative
    to the initial ``max|g|``.

    The direction is ``-H g`` by the two-loop recursion (Nocedal & Wright
    2006, Algorithm 7.4) over the last ``_MEMORY`` pairs ``s = x_new - x``,
    ``y = g_new - g``, scaled by ``gamma = s.y / y.y`` of the newest.  Its
    loops are solved on inner products (Byrd, Nocedal & Schnabel 1994):
    with ``R`` the upper triangle of ``S^T Y`` and ``D`` its diagonal, the
    first loop's ``alpha`` solves ``R alpha = S^T g``, the second loop's
    ``c`` solves ``R^T c = D alpha - gamma Y^T q`` with ``q = g - Y alpha``,
    and ``H g = gamma q + S c``.  Keeping ``R^-1`` up to date makes that a
    few small products, not ``4 _MEMORY`` vector operations.  A pair is
    stored only when ``s.y > eps (-s.g)``, as in L-BFGS-B, so ``H`` stays
    positive definite.  The line search halves the step, from 1 (``1/|g|``
    with no pair stored), until the Armijo condition holds; when it fails,
    the pairs are dropped and ``-g`` is tried, and with none stored the
    fit stops.
    """
    f, g = fun(x)
    history = [f]
    pairs = np.zeros((_MEMORY, 2, x.size))  # s and y of the stored pairs, oldest first
    r_inv = np.zeros((_MEMORY, _MEMORY))  # R^-1
    yy = np.zeros((_MEMORY, _MEMORY))  # Y^T Y
    sy = np.zeros(_MEMORY)  # D
    coef = np.zeros((_MEMORY, 2))  # the direction's multiple of each s and y
    n = 0  # pairs stored
    gamma = 1.0
    gtol = gradient_tolerance * np.abs(g).max()
    stop = "gradient" if np.abs(g).max() <= gtol else None
    while stop is None:
        d = -g
        if n:
            sg, yg = np.einsum("kij,j->ik", pairs[:n], g)
            alpha = np.einsum("ij,j->i", r_inv[:n, :n], sg)
            yq = yg - np.einsum("ij,j->i", yy[:n, :n], alpha)
            coef[:n, 0] = np.einsum("ji,j->i", r_inv[:n, :n], sy[:n] * alpha - gamma * yq)
            coef[:n, 1] = -gamma * alpha
            d *= gamma
            d -= np.einsum("ki,kij->j", coef[:n], pairs[:n])
        gd = _dot(g, d)
        step = 1.0 if n else 1.0 / math.hypot(*g)  # g . g can underflow at tiny scales
        for _ in range(_MAX_TRIALS if gd < 0.0 else 0):  # rounding can undo a descent direction
            x_new = x + step * d
            f_new, g_new = fun(x_new)
            if f_new <= f + _ARMIJO * step * gd:
                break
            step *= 0.5
        else:
            if not n:
                stop = "line_search"
            n = 0
            continue

        s_y = step * (_dot(g_new, d) - gd)
        if s_y > np.finfo(float).eps * step * -gd:
            if n == _MEMORY:  # drop the oldest pair; R^-1's trailing block is the new R^-1
                pairs[:-1] = pairs[1:]
                r_inv[:-1, :-1] = r_inv[1:, 1:]
                yy[:-1, :-1] = yy[1:, 1:]
                sy[:-1] = sy[1:]
                n -= 1
            pairs[n] = step * d, g_new - g
            s_dot_y, y_dot_y = np.einsum("kij,j->ik", pairs[: n + 1], pairs[n, 1])
            yy[n, : n + 1] = yy[: n + 1, n] = y_dot_y
            r_inv[:n, n] = np.einsum("ij,j->i", r_inv[:n, :n], s_dot_y[:n]) / -s_y
            r_inv[n, n] = 1.0 / s_y
            sy[n] = s_y
            gamma = s_y / y_dot_y[n]
            n += 1

        f_old, x, f, g = f, x_new, f_new, g_new
        history.append(f)
        if np.abs(g).max() <= gtol:
            stop = "gradient"
        elif len(history) > max_iterations:
            stop = "iteration_cap"
        elif f_old - f <= _PLATEAU_FTOL * max(abs(f_old), abs(f), 1.0):
            stop = "plateau"
    return x, history, stop


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
        within one iteration (at an extreme input scale ``_EPSILON``
        flattens the cost and the fit barely leaves its starting spike).
        None of these is an error.
    """
    config = config or CsfConfig()
    correlate = _correlator(_check_fit_inputs(signal, config), config.filter_length)

    x, history, stop = _lbfgs(lambda w: _cost_and_gradient(correlate, w, _EPSILON),
                              _initial_filter(config.filter_length), _GRADIENT_TOL, _MAX_ITERATIONS)
    iterations = len(history) - 1
    w = x / math.sqrt(_dot(x, x))
    return CsfResult(
        w=w,
        filtered=correlate(w),
        cost_history=np.asarray(history),
        converged=iterations > 1 and stop in ("gradient", "plateau"),
        iterations=iterations,
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
    pass.  Stops when the filter change drops below ``_MED_STEP_TOL``
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

        for _ in range(_MAX_ITERATIONS):
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
            if delta < _MED_STEP_TOL:
                converged = True
                break

    return CsfResult(
        w=w,
        filtered=f,
        cost_history=np.asarray(history),
        converged=converged,
        iterations=iterations,
    )
