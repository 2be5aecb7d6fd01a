"""Force real pool coverage regardless of host core count.

CI boxes are often single-core, where the cpu_count clamp would
silently serialize every ``n_jobs > 1`` test. These tests exist to
exercise the fork/pool machinery itself, so each one sees a 4-core
host (``n_jobs`` up to 4 forks that many workers).
"""

import os

import pytest


@pytest.fixture(autouse=True)
def force_pool_paths(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
