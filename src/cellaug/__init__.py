"""cellaug: enlarge small cellular RSS fingerprint surveys with synthetic
samples and measure the localization-accuracy gain."""

from .augment import (
    AugmentConfig,
    LocationStats,
    augment_all,
    augment_drop_random,
    augment_drop_threshold,
    augment_noise,
    augment_sampling,
    compute_stats,
    train_location_vaes,
)
from .core import (
    FingerprintDatabase,
    RawScan,
    ReferenceLocation,
    TowerId,
    from_locations,
    heard_count_histogram,
    load_database,
    save_database,
)
from .distfit import (
    FitError,
    FittedDistribution,
    fit_best,
    fit_beta,
    fit_database,
    fit_gamma,
    fit_gaussian,
    sample_from,
)
from .localize import (
    ErrorReport,
    HyperProfile,
    LocalizerModel,
    ModelFormatError,
    default_profile,
    desk_profile,
    estimate_location,
    evaluate,
    improvement,
    train_localizer,
)
from .pipeline import ComparisonResult, run_comparison, temporal_split
from .preprocess import (
    SampleSet,
    asu_to_dbm,
    normalize_asu,
    vectorize,
    vectorize_database,
)
from .testbed import TestbedSpec, Tower, default_desk_spec, spec_from_file
from .testbed import generate as generate_testbed
from .vae import VaeModel, VaeTrainConfig, kl_to_standard_normal, train_vae, vae_loss
from .vae import generate as vae_generate

__version__ = "0.1.0"
