"""Shared fixtures."""

import pytest

import gieseker.quiver_engine as qe


@pytest.fixture(autouse=True)
def cold_step_memo(monkeypatch):
    # every test starts with empty resolution-step and class-result memos,
    # whatever ran before it; a test that wants a warm memo warms it itself
    monkeypatch.setattr(qe, "_STEPS", {})
    monkeypatch.setattr(qe, "_RESULTS", {})
