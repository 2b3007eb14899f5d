"""End-to-end processing on two branches: filter, extract features, model.

Every result in the source studies is a with/without comparison, so the
assessment and classification pipelines always process a raw branch
(features straight from the input signals) and a filtered branch
(features from the sparse-filter output) side by side.
"""

import multiprocessing
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core_signal import Signal, convolve_valid
from .errors import _require_whole, naming
from .features import FEATURE_NAMES, extract_feature_vector
from .health_models import (
    FeatureMatrix,
    VatResult,
    cluster_purity,
    kmeans,
    pca_fit_transform,
    som_mqe,
    som_train,
    vat_order,
)
from .ingest import RunToFailureFiles, Skipped
from .sparse_filter import (DEFAULT_FILTER_LENGTH, csf_cost, csf_gradient, fit_med,
                            fit_simplified_csf)

__all__ = [
    "filter_signal",
    "SnapshotFit",
    "BranchAssessment",
    "AssessmentReport",
    "assess_sequence",
    "BranchClassification",
    "ClassificationReport",
    "classify_dataset",
    "gradient_check",
]

ALARM_SIGMA = 6.0


def filter_signal(signal, filter_length=DEFAULT_FILTER_LENGTH, method="csf"):
    """Run the chosen adaptive filter; ``method`` is ``csf`` or ``med``."""
    if method == "csf":
        return fit_simplified_csf(signal, filter_length)
    if method == "med":
        return fit_med(signal, filter_length)
    raise ValueError(f"unknown filter method {method!r}")


@dataclass
class SnapshotFit:
    """What one unit of work sends back: both feature rows and how the snapshot's fit went."""

    raw: np.ndarray  # features of the input
    filtered: np.ndarray  # features of the sparse-filter output
    iterations: int
    converged: bool
    stop: str  # why the fit stopped, as ``CsfResult.stop``
    initial_cost: float
    final_cost: float


def _snapshot(signals, faults, filter_length, i):
    """Snapshot ``i``'s raw features, fit and filtered features, as one :class:`SnapshotFit`.

    ``signals[i]`` reads the file when ``signals`` is an ``ingest`` sequence,
    so the read runs on the CPU that fits it; a read error is raised as it
    is, and a :class:`Skipped` file comes back as it is.  An error of the
    features or the fit names the snapshot: its file's name when
    ``signals`` has ``paths``, else ``snapshot {i + 1}``.  The drivers fan
    these units out with ``_fan_out``; none depends on the process that runs
    it, so neither do the results, and the lowest-numbered failure is raised
    whatever the CPU count or the stage that failed.
    """
    signal = signals[i]
    if isinstance(signal, Skipped):
        return signal
    name = signals.paths[i].name if hasattr(signals, "paths") else f"snapshot {i + 1}"
    with naming(name):
        raw = extract_feature_vector(signal, faults).as_array()
        fit = fit_simplified_csf(signal, filter_length)
        enhanced = Signal(fit.filtered, signal.sample_rate_hz)
        filtered = extract_feature_vector(enhanced, faults).as_array()
    return SnapshotFit(raw=raw, filtered=filtered, iterations=fit.iterations,
                       converged=fit.converged, stop=fit.stop,
                       initial_cost=float(fit.cost_history[0]),
                       final_cost=float(fit.cost_history[-1]))


def _claim(counter, n):
    """Index of the next unclaimed item, or None when none is left."""
    with counter.get_lock():
        i = counter.value
        if i >= n:
            return None
        counter.value = i + 1
        return i


def _run_claimed(work, counter, n):
    """``work(i)`` for items claimed one at a time in index order: ``({i: result}, {i: error})``.

    An item that fails sets the counter to ``n``, so no process claims
    another.  Every lower index was claimed before it and runs to the end,
    so the lowest-numbered error is always among those recorded.
    """
    results, errors = {}, {}
    while (i := _claim(counter, n)) is not None:
        try:
            results[i] = work(i)
        except Exception as exc:  # raised by _fan_out once every process is done
            errors[i] = exc
            with counter.get_lock():
                counter.value = n
    return results, errors


def _helper(sender, work, counter, n):
    sender.send(_run_claimed(work, counter, n))
    sender.close()


def _fan_out(work, n):
    """``[work(i) for i in range(n)]``, or the error of the lowest ``i`` that failed.

    The items run on the CPUs in this process's affinity mask: this process
    and ``count - 1`` forked helpers each claim the next item, one at a
    time, through one shared counter.  A helper sends its results back once
    none is left, so it never waits on this process.  With one CPU, or
    without ``fork``, this process claims every item itself.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    helpers = min(cpus, n) - 1 if can_fork else 0
    # fork, not spawn: a spawned helper would import scipy again on every call,
    # and a forked one has the inputs without their being sent.
    context = multiprocessing.get_context("fork" if can_fork else None)
    counter = context.Value("l", 0)  # items below it are claimed
    processes, receivers = [], []
    try:
        for _ in range(helpers):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_helper, args=(sender, work, counter, n), daemon=True)
            process.start()
            sender.close()
            processes.append(process)
            receivers.append(receiver)
        results, errors = _run_claimed(work, counter, n)
        for receiver in receivers:
            try:
                helper_results, helper_errors = receiver.recv()
            except EOFError:
                raise RuntimeError("a helper exited before sending its results") from None
            results.update(helper_results)
            errors.update(helper_errors)
    except BaseException:
        for process in processes:
            process.terminate()
        raise
    finally:
        for receiver in receivers:
            receiver.close()
        for process in processes:
            process.join()
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(n)]


def _feature_matrices(fits):
    """The raw-branch and filtered-branch feature matrices of ``fits``, one row per snapshot."""
    return (FeatureMatrix(values=np.vstack([fit.raw for fit in fits]), feature_names=FEATURE_NAMES),
            FeatureMatrix(values=np.vstack([fit.filtered for fit in fits]),
                          feature_names=FEATURE_NAMES))


@dataclass
class BranchAssessment:
    mqe: np.ndarray
    threshold: float
    alarm_index: int  # 1-based file number of the first exceedance, or None
    model: object


@dataclass
class AssessmentReport:
    raw: BranchAssessment
    filtered: BranchAssessment
    n_train: int
    fits: list  # the SnapshotFit of each snapshot
    parse_errors: list  # (path, message) for each file of a run that gave no signal


def _assess_branch(matrix, n_train, som_config):
    model = som_train(
        FeatureMatrix(matrix.values[:n_train], matrix.feature_names), som_config
    )
    mqe = np.array([som_mqe(model, row) for row in matrix.values])
    train_mqe = mqe[:n_train]
    threshold = float(train_mqe.mean() + ALARM_SIGMA * train_mqe.std())
    above = np.flatnonzero(mqe > threshold)
    alarm_index = int(above[0]) + 1 if above.size else None
    return BranchAssessment(mqe=mqe, threshold=threshold, alarm_index=alarm_index, model=model)


def _require_snapshots(count, n_train):
    if count < n_train + 1:
        raise ValueError(f"need at least {n_train + 1} snapshots, got {count}")


def assess_sequence(
    signals,
    faults,
    filter_length=DEFAULT_FILTER_LENGTH,
    som_config=None,
    n_train=20,
):
    """SOM-MQE health assessment over an ordered snapshot sequence.

    Trains one map per branch on the first ``n_train`` snapshots and scores
    every snapshot against it.  The alarm threshold is mean + 6 std of the
    training MQEs.  ``signals`` is a list of Signals or an
    ``ingest.RunToFailureFiles``, whose files are each read by the unit of
    work that fits them; the files that give no signal are left out and
    listed in ``parse_errors``.  Too few snapshots for ``n_train`` is
    checked before any is read, and for a run again on the files that gave
    a signal.
    """
    if n_train < 2:
        raise ValueError(f"n_train must be at least 2, got {n_train}")
    _require_snapshots(len(signals), n_train)  # a run's file count bounds its signals from above
    fits = _fan_out(partial(_snapshot, signals, faults, filter_length), len(signals))
    parse_errors = []
    if isinstance(signals, RunToFailureFiles):
        sequence = signals.sequence(fits)
        fits, parse_errors = sequence.signals, sequence.errors
        _require_snapshots(len(fits), n_train)
    raw_matrix, filtered_matrix = _feature_matrices(fits)
    return AssessmentReport(
        raw=_assess_branch(raw_matrix, n_train, som_config),
        filtered=_assess_branch(filtered_matrix, n_train, som_config),
        n_train=n_train,
        fits=fits,
        parse_errors=parse_errors,
    )


@dataclass
class BranchClassification:
    scores: np.ndarray
    explained_variance_fractions: np.ndarray
    kmeans_labels: np.ndarray
    purity: float
    vat: VatResult


@dataclass
class ClassificationReport:
    raw: BranchClassification
    filtered: BranchClassification
    labels: list
    fits: list  # the SnapshotFit of each signal


def _classify_branch(matrix, labels, k, n_restarts, seed):
    pca = pca_fit_transform(matrix, 2)  # scores are pc1 and pc2
    km = kmeans(pca.scores, k, n_restarts=n_restarts, seed=seed)
    purity = cluster_purity(km.labels, np.asarray(labels))
    distances = np.sqrt(
        ((pca.scores[:, None, :] - pca.scores[None, :, :]) ** 2).sum(axis=2)
    )
    np.fill_diagonal(distances, 0.0)
    return BranchClassification(
        scores=pca.scores,
        explained_variance_fractions=pca.explained_variance_fractions,
        kmeans_labels=km.labels,
        purity=purity,
        vat=vat_order(distances),
    )


def classify_dataset(
    dataset,
    faults,
    filter_length=DEFAULT_FILTER_LENGTH,
    n_restarts=10,
    seed=0,
):
    """PCA + k-means + VAT on a labeled dataset, raw and filtered branches.

    ``k`` is the number of distinct labels; purity compares k-means
    clusters against the ground-truth labels.
    """
    labels = list(dataset.labels)
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError("classification needs at least 2 classes")
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be at least 1, got {n_restarts}")
    _require_whole(seed=seed)
    signals = dataset.signals
    fits = _fan_out(partial(_snapshot, signals, faults, filter_length), len(signals))
    raw_matrix, filtered_matrix = _feature_matrices(fits)
    k = len(classes)
    return ClassificationReport(
        raw=_classify_branch(raw_matrix, labels, k, n_restarts, seed),
        filtered=_classify_branch(filtered_matrix, labels, k, n_restarts, seed),
        labels=labels,
        fits=fits,
    )


def gradient_check(n_trials=20, n_samples=256, filter_length=32, step=1e-6, seed=1234):
    """Compare the analytic cost gradient against central finite differences.

    Returns the per-trial normwise relative errors
    ``max|g_analytic - g_fd| / max|g_fd|`` for seeded Gaussian signals and
    unit-norm random filters.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    if not 0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    _require_whole(seed=seed)
    errors = []
    for trial in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
        y = rng.standard_normal(n_samples)
        w = rng.standard_normal(filter_length)
        w /= np.linalg.norm(w)
        signal = Signal(y, 1.0)

        analytic = csf_gradient(signal, w)
        fd = np.empty_like(w)
        for j in range(w.size):
            w_plus = w.copy()
            w_minus = w.copy()
            w_plus[j] += step
            w_minus[j] -= step
            cost_plus = csf_cost(convolve_valid(signal, w_plus))
            cost_minus = csf_cost(convolve_valid(signal, w_minus))
            fd[j] = (cost_plus - cost_minus) / (2 * step)
        errors.append(float(np.max(np.abs(analytic - fd)) / np.max(np.abs(fd))))
    return np.asarray(errors)
