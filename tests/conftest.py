"""A time limit on every test, so that a step loop that stops making
progress fails its test instead of running tier-1 for minutes. The slowest
test takes about a second; the limit is 60 s. It needs SIGALRM, so it is off
where the platform has none."""

import signal

import pytest

TEST_TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TEST_TIME_LIMIT_S} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
