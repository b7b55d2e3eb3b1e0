"""Fixtures the test modules share."""

import pytest

from linfcheck.builtin import example1_system, example2_system


@pytest.fixture(scope="module")
def ex1():
    return example1_system()


@pytest.fixture(scope="module")
def ex2():
    return example2_system()
