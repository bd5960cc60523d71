"""Every hypothesis test runs the same examples on every machine: the
examples are derived from the test alone, none is stored between runs, and
no example is timed."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
