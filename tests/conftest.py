import numpy as np
import pytest

from aftergate import Environment, load_config


@pytest.fixture(scope="session")
def default_cfg():
    return load_config()


@pytest.fixture(scope="session")
def det(default_cfg):
    return default_cfg.detector


@pytest.fixture(scope="session")
def env(default_cfg):
    return default_cfg.environment


@pytest.fixture(scope="session")
def cold_env():
    return Environment(temperature=223.15)


@pytest.fixture(scope="session")
def sweep_grid():
    return np.linspace(0.0, 240.0, 961)
