import re

import numpy as np
import pytest


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print the FAIL side of the acceptance summary lines."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    match = re.search(r"test_c(\d\d)_", item.nodeid)
    if match:
        print(f"\nACCEPTANCE {int(match.group(1))}: FAIL - {item.name}")


@pytest.fixture(scope="session")
def delta03():
    return float(np.tan(0.3))

