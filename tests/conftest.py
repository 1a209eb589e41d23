import time

import pytest

from sweep import build_sweep


@pytest.fixture(scope="session")
def sweep_modules():
    """The acceptance sweep, built once per session, and the seconds it took."""
    start = time.time()
    sweep = build_sweep()
    return sweep, time.time() - start
