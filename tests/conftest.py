import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

HANG_LIMIT_S = 120  # far above any test's run time; only a hang reaches it


@pytest.fixture(autouse=True)
def hang_guard():
    """Fail a test that runs past ``HANG_LIMIT_S`` instead of stalling the
    suite (where the platform has ``SIGALRM``)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {HANG_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(HANG_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
