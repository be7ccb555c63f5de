"""One hypothesis profile for every property test: no deadline, a fixed example
sequence and no example database, so a run depends on the code alone."""

from hypothesis import settings

settings.register_profile("recoupler", deadline=None, derandomize=True, database=None)
settings.load_profile("recoupler")
