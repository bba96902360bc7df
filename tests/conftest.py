"""One Hypothesis profile for the whole suite.

No property has a per-example deadline: an example's time says nothing
about its result, and a slow machine would fail a correct one.
"""

from hypothesis import settings

settings.register_profile("ptbound", deadline=None)
settings.load_profile("ptbound")
