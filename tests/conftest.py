"""Hypothesis profiles: `ci` draws the same examples on every run, so that a
CI failure reproduces locally with HYPOTHESIS_PROFILE=ci; `fresh` draws new
examples each run and prints a failure's @reproduce_failure line. `fresh`
builds on Hypothesis's `default` profile, not on the active one, which on a
CI host is Hypothesis's own derandomized `ci` profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.register_profile("fresh", settings.get_profile("default"), print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
