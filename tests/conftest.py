import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import settings

settings.register_profile("stable", derandomize=True, deadline=None)
settings.load_profile("stable")


@pytest.fixture
def forks(monkeypatch):
    """The processes os.fork has started since the list was last cleared.
    The test fails unless every process it started has been reaped."""
    started = []
    fork = os.fork

    def spy():
        started.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    yield started
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
