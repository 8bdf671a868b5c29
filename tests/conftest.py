from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spdebridge import SpectralModel, dirichlet_model


@pytest.fixture
def single_mode():
    return SpectralModel(lam=np.array([-1.0]), q=np.array([2.0]))


@pytest.fixture
def two_mode():
    return SpectralModel(lam=np.array([-1.0, -4.0]), q=np.array([2.0, 1.0]))


@pytest.fixture
def dirichlet4():
    return dirichlet_model(4)


@pytest.fixture(scope="module")
def two_worker_pool():
    """A pool for forward.run_pass: with the caller's thread, three threads on any host."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield pool
