"""Hypothesis profiles: `ci` draws the same examples on every run, so that a
CI failure reproduces locally with HYPOTHESIS_PROFILE=ci; `fresh` draws new
examples each run and prints a failure's @reproduce_failure line. `fresh`
builds on Hypothesis's `default` profile, not on the active one, which on a
CI host is Hypothesis's own derandomized `ci` profile.

`survey` builds a hand-written survey the way every command gets one: as
JSON lines, read by load_database."""

import json
import os
import tempfile
from pathlib import Path

from hypothesis import settings

from cellaug.core import load_database

settings.register_profile("ci", derandomize=True)
settings.register_profile("fresh", settings.get_profile("default"), print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def survey(locations, testbed="unnamed", grid_cell_m=1.0):
    """The database load_database reads from a file that lists `locations`:
    (location id, (x, y), scans) triples, each scan a (timestamp, readings)
    pair and each reading a (tower, ASU) pair. Every scan is one line, in
    the order given; a location listed twice has its scans interleaved with
    those of the locations between."""
    lines = [{"testbed": testbed, "grid_cell_m": grid_cell_m}]
    lines += [{"loc": loc_id, "x": x, "y": y, "ts": ts, "readings": readings}
              for loc_id, (x, y), scans in locations for ts, readings in scans]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "survey.jsonl")
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        return load_database(path)
