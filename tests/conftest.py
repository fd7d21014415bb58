import multiprocessing

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The children that ``core._fork_map`` forks, as they start."""
    started = []
    start = multiprocessing.context.ForkProcess.start

    def recording(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recording)
    return started
