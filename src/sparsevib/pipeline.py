"""End-to-end processing on two branches: filter, extract features, model.

Every result in the source studies is a with/without comparison, so the
assessment and classification pipelines always process a raw branch
(features straight from the input signals) and a filtered branch
(features from the sparse-filter output) side by side.
"""

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .core_signal import Signal, convolve_valid
from .errors import NumericalFailureError
from .features import FEATURE_NAMES, DEFAULT_BAND_FRACTION, extract_feature_vector
from .health_models import (
    FeatureMatrix,
    SomConfig,
    VatResult,
    cluster_purity,
    kmeans,
    pca_fit_transform,
    som_mqe,
    som_train,
    vat_order,
)
from .sparse_filter import csf_cost, csf_gradient, fit_med, fit_simplified_csf

__all__ = [
    "filter_signal",
    "feature_matrix",
    "fit_signals",
    "two_branch_features",
    "BranchAssessment",
    "AssessmentReport",
    "assess_sequence",
    "BranchClassification",
    "ClassificationReport",
    "classify_dataset",
    "gradient_check",
    "DEFAULT_ASSESS_SOM",
]

# A 20-sample healthy baseline cannot support a map with more units than
# samples: the in-sample MQE spread collapses and the mean + 6 sigma alarm
# line drops onto the noise floor.  Assessment therefore defaults to a
# compact map instead of the general-purpose 8x8.
DEFAULT_ASSESS_SOM = SomConfig(grid_rows=3, grid_cols=3)

ALARM_SIGMA = 6.0


def filter_signal(signal, config=None, method="csf"):
    """Run the chosen adaptive filter; ``method`` is ``csf`` or ``med``."""
    if method == "csf":
        return fit_simplified_csf(signal, config)
    if method == "med":
        return fit_med(signal, config)
    raise ValueError(f"unknown filter method {method!r}")


def _at_snapshot(index, func, *args):
    """``func(*args)``; an error it raises names the snapshot's 1-based ``index``."""
    try:
        return func(*args)
    except (ValueError, NumericalFailureError) as exc:
        exc.args = (f"snapshot {index}: {exc}",)
        raise


def feature_matrix(signals, faults, band_fraction=DEFAULT_BAND_FRACTION):
    """Stack per-signal feature vectors into a FeatureMatrix."""
    rows = [_at_snapshot(i, extract_feature_vector, s, faults, band_fraction).as_array()
            for i, s in enumerate(signals, start=1)]
    return FeatureMatrix(values=np.vstack(rows), feature_names=FEATURE_NAMES)


def _claim(bounds, from_tail):
    """Index of the next unclaimed signal at one end of ``bounds``, or None when none is left."""
    with bounds.get_lock():
        head, tail = bounds
        if head >= tail:
            return None
        if from_tail:
            bounds[1] = tail - 1
            return tail - 1
        bounds[0] = head + 1
        return head


def _fit_claimed(signals, config, bounds, from_tail):
    """Fit signals claimed one at a time from one end: ``{index: CsfResult or its error}``."""
    outcomes = {}
    while (i := _claim(bounds, from_tail)) is not None:
        try:
            outcomes[i] = fit_simplified_csf(signals[i], config)
        except Exception as exc:  # raised in input order by fit_signals
            outcomes[i] = exc
    return outcomes


def _helper(sender, signals, config, bounds):
    sender.send(_fit_claimed(signals, config, bounds, from_tail=False))
    sender.close()


def _returned(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def fit_signals(signals, config=None):
    """Sparse-filter fits of ``signals``, one ``CsfResult`` each, in input order.

    The fits run on the CPUs in this process's affinity mask: ``count - 1``
    forked helpers claim signals one at a time from the head of the list
    while this process claims them from the tail, so fits of different
    lengths stay balanced.  A helper claims its next signal itself, through
    a pair of shared bounds, and sends its fits back once none is left, so
    it never waits on this process.  A fit does not depend on the process
    that runs it, so neither do the results.  With one CPU, or without
    ``fork``, the fits run here in order.  When fits fail, the error of the
    first failing signal is raised, whatever the CPU count, and its message
    names the snapshot.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    helpers = min(cpus, len(signals)) - 1
    if helpers < 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [_at_snapshot(i, fit_simplified_csf, s, config)
                for i, s in enumerate(signals, start=1)]
    # fork, not spawn: a spawned helper would import scipy again on every call,
    # and a forked one has the signals without their being sent.
    context = multiprocessing.get_context("fork")
    bounds = context.Array("l", [0, len(signals)])  # unclaimed: bounds[0] <= i < bounds[1]
    processes, receivers = [], []
    try:
        for _ in range(helpers):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_helper, args=(sender, signals, config, bounds),
                                      daemon=True)
            process.start()
            sender.close()
            processes.append(process)
            receivers.append(receiver)
        outcomes = _fit_claimed(signals, config, bounds, from_tail=True)
        for receiver in receivers:
            try:
                outcomes.update(receiver.recv())
            except EOFError:
                raise RuntimeError("a fit helper exited before sending its fits") from None
    except BaseException:
        for process in processes:
            process.terminate()
        raise
    finally:
        for receiver in receivers:
            receiver.close()
        for process in processes:
            process.join()
    return [_at_snapshot(i, _returned, outcomes[i - 1]) for i in range(1, len(signals) + 1)]


def two_branch_features(signals, faults, csf_config=None, band_fraction=DEFAULT_BAND_FRACTION):
    """Raw-branch and filtered-branch feature matrices, and the fits behind the filtered one."""
    raw = feature_matrix(signals, faults, band_fraction)
    fits = fit_signals(signals, csf_config)
    enhanced = [Signal(fit.filtered, s.sample_rate_hz) for fit, s in zip(fits, signals)]
    filtered = feature_matrix(enhanced, faults, band_fraction)
    return raw, filtered, fits


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
    fits: list  # the CsfResult of each snapshot


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


def assess_sequence(
    signals,
    faults,
    csf_config=None,
    som_config=None,
    n_train=20,
    band_fraction=DEFAULT_BAND_FRACTION,
):
    """SOM-MQE health assessment over an ordered snapshot sequence.

    Trains one map per branch on the first ``n_train`` snapshots and scores
    every snapshot against it.  The alarm threshold is mean + 6 std of the
    training MQEs.
    """
    if len(signals) < n_train + 1:
        raise ValueError(f"need at least {n_train + 1} snapshots, got {len(signals)}")
    som_config = som_config or DEFAULT_ASSESS_SOM
    raw_matrix, filtered_matrix, fits = two_branch_features(
        signals, faults, csf_config, band_fraction
    )
    return AssessmentReport(
        raw=_assess_branch(raw_matrix, n_train, som_config),
        filtered=_assess_branch(filtered_matrix, n_train, som_config),
        n_train=n_train,
        fits=fits,
    )


@dataclass
class BranchClassification:
    features: FeatureMatrix
    scores: np.ndarray
    explained_variance_fractions: np.ndarray
    kmeans_labels: np.ndarray
    inertia: float
    purity: float
    vat: VatResult


@dataclass
class ClassificationReport:
    raw: BranchClassification
    filtered: BranchClassification
    labels: list
    fits: list  # the CsfResult of each signal


def _classify_branch(matrix, labels, k, n_restarts, seed):
    pca = pca_fit_transform(matrix, 2)  # scores are pc1 and pc2
    km = kmeans(pca.scores, k, n_restarts=n_restarts, seed=seed)
    purity = cluster_purity(km.labels, np.asarray(labels))
    distances = np.sqrt(
        ((pca.scores[:, None, :] - pca.scores[None, :, :]) ** 2).sum(axis=2)
    )
    np.fill_diagonal(distances, 0.0)
    return BranchClassification(
        features=matrix,
        scores=pca.scores,
        explained_variance_fractions=pca.explained_variance_fractions,
        kmeans_labels=km.labels,
        inertia=km.inertia,
        purity=purity,
        vat=vat_order(distances),
    )


def classify_dataset(
    dataset,
    faults,
    csf_config=None,
    band_fraction=DEFAULT_BAND_FRACTION,
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
    raw_matrix, filtered_matrix, fits = two_branch_features(
        dataset.signals, faults, csf_config, band_fraction
    )
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
