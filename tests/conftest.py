"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` selects a derandomized
profile, so a property that fails in CI fails again on every rerun, with
the blob that reproduces it printed; without the variable the default
profile runs as before."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
