"""Shared test settings: one seeded profile for the property tests."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile(
        "gmequiv", derandomize=True, deadline=None, max_examples=50, database=None,
    )
    settings.load_profile("gmequiv")
