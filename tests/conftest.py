import numpy as np
import pytest
from hypothesis import settings

from helpers import WINDOW, simulated_dataset, toy_model, write_csv

# Property tests draw the same examples on every run and have no time limit,
# so the suite cannot flake on a seed or on a slow machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def window():
    return WINDOW


@pytest.fixture(scope="session")
def short_model():
    # 20 s trials keep simulation-heavy tests quick
    return toy_model(trial_length=20_000.0)


@pytest.fixture(scope="session")
def short_dataset(short_model):
    return simulated_dataset(short_model, n_subjects=8, seed=11)


@pytest.fixture()
def short_csv(tmp_path, short_dataset):
    return write_csv(short_dataset, tmp_path / "fixations.csv")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
