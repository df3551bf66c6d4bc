import pathlib
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).parent))

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")

DATA_DIR = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA_DIR


def load_catalog(order: int):
    """Connected cubic graphs of one order from the shipped graph6 files."""
    from zeroforcing import parse_graph6

    path = DATA_DIR / f"cubic{order:02d}.g6"
    with open(path) as fh:
        return [parse_graph6(line) for line in fh if line.strip()]
