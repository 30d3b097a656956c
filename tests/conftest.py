import numpy as np
import pytest

from vrpcast import trainers
from vrpcast.errors import TrainingError


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def abort_training(monkeypatch):
    """abort_training(algorithms, sizes) makes trainers.train raise
    TrainingError("abort <algorithm> h = <h>") for those algorithms and
    hidden sizes; every other fit trains as usual."""
    def install(algorithms, sizes):
        real = trainers.train

        def train(model, patterns, config):
            if config.algorithm in algorithms and model.hidden_dim in sizes:
                raise TrainingError(f"abort {config.algorithm} h = {model.hidden_dim}")
            return real(model, patterns, config)

        monkeypatch.setattr(trainers, "train", train)
    return install
