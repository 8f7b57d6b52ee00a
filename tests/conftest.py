"""One Hypothesis profile for every property of the suite: each draws the
same examples on every run, keeps no example database, and has no
deadline; a property's own @settings sets only its max_examples."""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")
