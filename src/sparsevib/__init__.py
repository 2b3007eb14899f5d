"""Sparse-filter enhancement of impulsive vibration signatures.

The package covers the full chain: simulate or ingest vibration
snapshots, enhance periodic impacts with the l1/l2 sparse filter (or the
MED baseline), extract scale-invariant condition indicators, and run
SOM-MQE health assessment or PCA / k-means / VAT classification.
"""

from .core_signal import (
    Signal,
    Spectrum,
    autocorrelation,
    convolve_valid,
    envelope_spectrum,
    hilbert_envelope,
)
from .errors import DegenerateInputError, NumericalFailureError, SignalParseError
from .features import (
    BearingGeometry,
    FaultFrequencies,
    FeatureVector,
    blehnr,
    extract_feature_vector,
    fault_frequencies,
    kurtosis,
    lp_lq_norm,
)
from .health_models import (
    FeatureMatrix,
    KmeansResult,
    PcaResult,
    SomConfig,
    SomModel,
    VatResult,
    cluster_purity,
    kmeans,
    pca_fit_transform,
    som_mqe,
    som_train,
    vat_order,
)
from .ingest import (
    RunToFailureSequence,
    SnapshotFile,
    iterate_run_to_failure,
    read_ims_file,
    write_ims_file,
)
from .pipeline import (
    AssessmentReport,
    ClassificationReport,
    assess_sequence,
    classify_dataset,
    filter_signal,
    gradient_check,
)
from .simulate import (
    TAXONOMY,
    FaultSimConfig,
    LabeledDataset,
    gaussian_with_outlier,
    make_degradation_sequence,
    make_fault_taxonomy_dataset,
    simulate_bearing_fault,
)
from .sparse_filter import (
    CsfResult,
    csf_cost,
    csf_gradient,
    fit_med,
    fit_simplified_csf,
)

__version__ = "0.1.0"
