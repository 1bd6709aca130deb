"""The suite's own pytest settings.

``filterwarnings = ["error"]`` turns every warning into a failure, so a
warning raised by a plugin's report hook, rather than by a test, would
stop the whole session with ``INTERNALERROR``.  Hypothesis's report hook
raises one when a property test fails (a ``mypy_extensions.TypedDict``
deprecation), so the settings ignore exactly that warning.
"""

import subprocess
import sys

_TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_session(request, tmp_path):
    """A failing ``@given`` test followed by a passing one, run under the
    suite's settings, reports both instead of an ``INTERNALERROR``."""
    path = tmp_path / "test_two.py"
    path.write_text(_TWO_TESTS)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(request.config.inipath), "--rootdir", str(tmp_path), str(path),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
