"""Hypothesis profiles: `ci` draws the same examples on every run, so that a
CI failure reproduces locally with HYPOTHESIS_PROFILE=ci."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
