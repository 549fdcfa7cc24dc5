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


@pytest.fixture
def grown_maps(monkeypatch):
    """The half-edge maps build_ball grows while the test runs, each
    appended when it is bootstrapped; a depth-0 ball grows none. Once
    build_ball returns, the map it grew is complete, for oracles.audit_map."""
    from hypertraffic.tessellation import TessellationMap

    maps = []
    bootstrap = TessellationMap.bootstrap

    def recorded(tmap):
        maps.append(tmap)
        bootstrap(tmap)

    monkeypatch.setattr(TessellationMap, "bootstrap", recorded)
    return maps
