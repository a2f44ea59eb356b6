import pytest
from hypothesis import settings

# Same examples on every run, no example database, no per-example
# deadline: a CI failure reproduces locally and never flakes on timing.
settings.register_profile(
    "ci", derandomize=True, database=None, deadline=None, max_examples=300
)
settings.load_profile("ci")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one PASS/FAIL line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        status = "PASS" if report.passed else "FAIL"
        label = item.name.removeprefix("test_")
        print(f"\n[{status}] acceptance: {label}", flush=True)
