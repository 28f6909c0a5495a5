import functools
import inspect
import sys
import warnings

import pytest

# When a hypothesis test fails, hypothesis's pytest plugin imports this
# module, and with libcst installed the import warns (DeprecationWarning from
# mypy_extensions).  Under filterwarnings = error that warning ends the whole
# session with an INTERNALERROR, hiding the failure.  Importing it here, with
# its own warnings ignored, leaves every warning of the code under test an
# error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching
    except ImportError:
        pass


@pytest.fixture(scope="session")
def suite_results():
    """``harness.SUITES[suite](**kwargs)`` as a tuple, computed once per session
    for each suite and its arguments with the defaults filled in, so a call
    that spells out a default shares the run of one that leaves it out."""
    from muonlab import harness

    @functools.cache
    def run(suite, arguments):
        return tuple(harness.SUITES[suite](**dict(arguments)))

    def results(suite, **kwargs):
        bound = inspect.signature(harness.SUITES[suite]).bind(**kwargs)
        bound.apply_defaults()
        return run(suite, tuple(bound.arguments.items()))

    return results


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "SUMMARY_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
