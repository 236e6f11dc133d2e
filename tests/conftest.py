import builtins
import math
import os
import re

import pytest
from hypothesis import settings

# On CI (GitHub Actions sets CI) every property test runs the same examples
# on every run; local runs stay random.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def compensated_sum(iterable, /, start=0):
    """sum() as Python 3.12 computes it: exact over ints, Neumaier-compensated
    over floats, and `+` from the first item of any other type on."""
    items, end = iter(iterable), object()
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) not in (int, bool):
                break
        else:
            return result
    if type(result) is float:
        total, compensation, item = result, 0.0, end
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif isinstance(item, int):
                total += float(item)
            else:
                break
        else:
            item = end
        if compensation and math.isfinite(compensation):
            total += compensation
        if item is end:
            return total
        result = total + item
    for item in items:
        result = result + item
    return result


@pytest.fixture(scope="class")
def python312_sum():
    """builtins.sum swapped for Python 3.12's compensated summation, for the
    tests of one class."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "sum", compensated_sum)
        yield


@pytest.fixture(autouse=True)
def no_proxy_env(monkeypatch):
    """Requests to the tests' loopback servers go straight to them, unless a
    test sets a proxy itself."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    results = {}
    for status in ("passed", "failed"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid or report.when != "call":
                continue
            match = re.search(r"test_criterion_(\d+)_(\w+)", nodeid)
            if match:
                number = int(match.group(1))
                label = match.group(2).replace("_", " ")
                results[number] = (label, status.upper())
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(results):
        label, status = results[number]
        terminalreporter.write_line(f"criterion {number} ({label}): {status}")
