"""Hypothesis profiles: tier-1 runs the default; CI also runs the statistic
core's properties under ``--hypothesis-profile=thorough``."""

from hypothesis import settings

settings.register_profile("thorough", max_examples=1000)
