"""Settings shared by the whole suite.

One Hypothesis profile is registered and loaded for every run: draws are
derandomized, so a run repeats the previous one exactly, and there is no
per-example deadline, which a busy two-core machine would miss for reasons
unrelated to the code under test.
"""
from hypothesis import settings

settings.register_profile("ppife", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("ppife")
