import time

import pytest

# sweep.py is not a test module: register it so its asserts are rewritten
# and still fire under python -O
pytest.register_assert_rewrite("sweep")

from sweep import build_sweep


@pytest.fixture(scope="session")
def sweep_modules():
    """The acceptance sweep, built once per session, and the seconds it took."""
    start = time.time()
    sweep = build_sweep()
    return sweep, time.time() - start
