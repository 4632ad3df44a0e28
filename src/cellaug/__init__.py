"""cellaug: enlarge small cellular RSS fingerprint surveys with synthetic
samples and measure the localization-accuracy gain.

Each top-level name loads its submodule on first use, so that importing the
package, or one submodule, does not load the rest."""

import importlib

_NAMES = {
    "augment": ("AugmentConfig", "LocationStats", "augment_all", "augment_drop_random",
                "augment_drop_threshold", "augment_noise", "augment_sampling", "compute_stats",
                "train_location_vaes"),
    "core": ("FingerprintDatabase", "TowerId", "heard_count_histogram", "load_database",
             "save_database"),
    "distfit": ("FitError", "FittedDistribution", "fit_best", "fit_beta", "fit_database",
                "fit_gamma", "fit_gaussian", "sample_from"),
    "localize": ("ErrorReport", "HyperProfile", "LocalizerModel", "ModelFormatError",
                 "default_profile", "desk_profile", "estimate_location", "evaluate", "improvement",
                 "train_localizer"),
    "pipeline": ("ComparisonResult", "run_comparison", "temporal_split"),
    "preprocess": ("SampleSet", "vectorize", "vectorize_database"),
    "testbed": ("TestbedSpec", "Tower", "default_desk_spec", "spec_from_file"),
    "vae": ("VaeModel", "VaeTrainConfig", "kl_to_standard_normal", "train_vae", "vae_loss"),
}
# Exported name -> (submodule, its attribute)
_EXPORTS = {name: (module, name) for module, names in _NAMES.items() for name in names}
_EXPORTS["generate_testbed"] = ("testbed", "generate")
_EXPORTS["vae_generate"] = ("vae", "generate")

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value
    return value
