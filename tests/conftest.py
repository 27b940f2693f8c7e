"""Hypothesis profiles.  CI runs with --hypothesis-profile=ci, so every run
draws the same examples and a property test cannot flake between runs."""
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
