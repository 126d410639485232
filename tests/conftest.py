import os

# One BLAS thread, as in the benchmark harness and tests/test_scripts.py, set
# before numpy is first imported: OpenBLAS sizes its pool at load time, and
# its default pool oversubscribes a box shared with other processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(n, text): acceptance criterion covered by the test"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number, text = marker.args
    status = "PASS" if rep.passed else "FAIL"
    capman = item.config.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(f"\n[criterion {number:>2}] {status}: {text}")
    else:
        print(f"\n[criterion {number:>2}] {status}: {text}")
