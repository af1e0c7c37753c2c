import pytest


@pytest.fixture
def bin10():
    from trackmc import Bin

    return Bin("b10", 0, 10)
