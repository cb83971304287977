"""Shared test set-up.

pytest.ini turns every warning into an error.  When a hypothesis property
test fails, the hypothesis plugin imports ``hypothesis.extra._patching`` to
report the failing example, and that import emits a DeprecationWarning
(``mypy_extensions.TypedDict``) from a third-party module.  Raised inside the
plugin's report hook it aborts the run with INTERNALERROR, so the tests
after the failure never run.  Importing the module once here, with that
warning ignored, keeps a failing property test an ordinary failure.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
