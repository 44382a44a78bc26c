"""Settings shared by the test suite: one deterministic Hypothesis profile.

Every property test draws the same examples on every run, and none is timed
out by a per-example deadline; a test's own ``@settings`` still take
precedence over the profile.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
