import pathlib

import pytest

from precrossed.cli import parse_input

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def desk_path() -> str:
    return str(DATA / "desk.txt")


@pytest.fixture(scope="session")
def registry(desk_path):
    return parse_input(desk_path)


@pytest.fixture(scope="session")
def rack_registry():
    return parse_input(str(DATA / "racks.txt"))
