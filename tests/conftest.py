"""Shared test configuration: one hypothesis profile for every property
test.  Exact rational arithmetic makes single examples take anywhere from
microseconds to a second, so no per-example deadline applies."""

from hypothesis import settings

settings.register_profile("supermech", deadline=None)
settings.load_profile("supermech")
