"""The package's top-level names, which load their submodules on first use."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cellaug

ROOT = Path(__file__).resolve().parent.parent

# Submodule -> the names the package exports from it, each under its own name.
EXPORTED = {
    "augment": ("AugmentConfig", "LocationStats", "augment_all", "augment_drop_random",
                "augment_drop_threshold", "augment_noise", "augment_sampling", "compute_stats",
                "train_location_vaes"),
    "core": ("FingerprintDatabase", "RawScan", "ReferenceLocation", "TowerId", "from_locations",
             "heard_count_histogram", "load_database", "save_database"),
    "distfit": ("FitError", "FittedDistribution", "fit_best", "fit_beta", "fit_database",
                "fit_gamma", "fit_gaussian", "sample_from"),
    "localize": ("ErrorReport", "HyperProfile", "LocalizerModel", "ModelFormatError",
                 "default_profile", "desk_profile", "estimate_location", "evaluate", "improvement",
                 "train_localizer"),
    "pipeline": ("ComparisonResult", "run_comparison", "temporal_split"),
    "preprocess": ("SampleSet", "asu_to_dbm", "normalize_asu", "vectorize", "vectorize_database"),
    "testbed": ("TestbedSpec", "Tower", "default_desk_spec", "spec_from_file"),
    "vae": ("VaeModel", "VaeTrainConfig", "kl_to_standard_normal", "train_vae", "vae_loss"),
}
RENAMED = {"generate_testbed": ("testbed", "generate"), "vae_generate": ("vae", "generate")}
EXPECTED = {name: (module, name) for module, names in EXPORTED.items() for name in names}
EXPECTED.update(RENAMED)


def test_all_lists_every_exported_name():
    assert sorted(cellaug.__all__) == sorted(EXPECTED)
    assert cellaug.__version__ == "0.1.0"


def test_each_name_is_its_submodules_object():
    for name, (module, attr) in EXPECTED.items():
        want = getattr(importlib.import_module(f"cellaug.{module}"), attr)
        assert getattr(cellaug, name) is want, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from cellaug import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPECTED)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cellaug.no_such_name
    with pytest.raises(ImportError):
        exec("from cellaug import no_such_name", {})


def test_from_import_of_a_submodule_yields_the_submodule():
    from cellaug import augment, core, distfit, localize, nn, pipeline, preprocess, testbed, vae

    for module in (augment, core, distfit, localize, nn, pipeline, preprocess, testbed, vae):
        assert isinstance(module, types.ModuleType)
        assert sys.modules[module.__name__] is module


def test_engine_names_that_the_trace_wraps_stay_on_nn_and_vae():
    # bench/trace.py replaces these on both modules to time the engine
    from cellaug import nn, vae

    for module in (nn, vae):
        for name in ("forward_with_cache", "backward", "sgd_step"):
            assert callable(getattr(module, name)), (module.__name__, name)


def test_every_private_module_level_name_is_used():
    # a function, class or constant that a removed call path leaves behind fails this
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "cellaug").glob("*.py"))]
    defined, used = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert len(private) > 40
    assert sorted(private - used) == []


def test_readme_quick_start_imports_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    imports = re.findall(r"^from cellaug[\w.]* import .+$", quick_start, flags=re.MULTILINE)
    assert len(imports) == 4
    for line in imports:
        exec(line, {})


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, cellaug\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cellaug'))\n")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "['cellaug']"
