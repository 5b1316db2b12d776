from hypothesis import settings

# Reproducible property tests: the same examples on every run, and no
# per-example deadline, so a slow runner cannot fail a correct test.
# Select with ``pytest --hypothesis-profile=ci``.
settings.register_profile("ci", derandomize=True, deadline=None)
