"""Suite-wide guards."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process running (the engine's chunk
    pool must join every child before it returns or raises)."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"child processes left running: {left}"
