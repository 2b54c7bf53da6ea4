import pathlib

import pytest
from hypothesis import settings

import asymreg as ar

# Examples that run the CLI take milliseconds to seconds, and longer on a
# loaded machine: no deadline, and a failure prints the blob that replays it.
settings.register_profile("asymreg", deadline=None, print_blob=True)
settings.load_profile("asymreg")

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

GOLDEN_NAMES = (
    "rotation_pi_euclidean",
    "rotation_half_pi_euclidean",
    "rotation_poincare",
    "ishikawa_geometric_s_euclidean",
)


@pytest.fixture(scope="session")
def golden_configs():
    return {name: ar.load_config(CONFIG_DIR / f"{name}.json")
            for name in GOLDEN_NAMES}


@pytest.fixture(scope="session")
def km_config(golden_configs):
    return golden_configs["rotation_pi_euclidean"]


@pytest.fixture(scope="session")
def disk_config(golden_configs):
    return golden_configs["rotation_poincare"]


@pytest.fixture(scope="session")
def ishikawa_config(golden_configs):
    return golden_configs["ishikawa_geometric_s_euclidean"]
