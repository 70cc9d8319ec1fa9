"""Session setup shared by the test modules.

When a property test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to suggest a patch.  That imports libcst,
whose use of ``mypy_extensions.TypedDict`` warns with a DeprecationWarning;
``filterwarnings`` turns it into an error, and pytest then reports an
INTERNALERROR in place of the falsifying example.  The module is imported
here once, with that one warning silenced for this import alone, so the
plugin finds it loaded.  The plugin itself goes on without it when libcst
is missing, and so does this import.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
