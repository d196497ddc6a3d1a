"""Shared fixtures.

The tower(4) complex with the pinned bivector shows up in most of the
homology and acceptance tests; building it once per session keeps the
suite fast without hiding any state (everything downstream is immutable).
Every test runs under a wall-clock limit, so that a hang fails its test.
"""

import signal

import pytest

from nilpoisson.calculus import CalculusContext
from nilpoisson.catalog import catalog_load
from nilpoisson.homology import BigradedComplex, TotalComplex
from nilpoisson.lambda_parser import parse_lambda

# The largest wall gate in test_acceptance.py, so that no gate tightens.
TEST_LIMIT_S = 300


class TimeLimitExceeded(BaseException):
    """Raised by SIGALRM.  Not an Exception, so that hypothesis fails the
    example once instead of re-running it while shrinking."""


@pytest.fixture(autouse=True)
def _time_limit():
    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran longer than {TEST_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_LIMIT_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def tower4_ctx():
    return CalculusContext(catalog_load("tower:4"))


@pytest.fixture(scope="session")
def tower4_pi(tower4_ctx):
    return parse_lambda("2 v1^v4 - v2^v3").bind(tower4_ctx.n)


@pytest.fixture(scope="session")
def tower4_bc(tower4_ctx, tower4_pi):
    return BigradedComplex(tower4_ctx, tower4_pi)


@pytest.fixture(scope="session")
def tower4_tc(tower4_bc):
    return TotalComplex(tower4_bc)


@pytest.fixture(scope="session")
def kodaira_ctx():
    return CalculusContext(catalog_load("kodaira"))
