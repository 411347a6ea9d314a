"""Shared fixtures."""

import pytest

import gieseker.quiver_engine as qe


@pytest.fixture(autouse=True)
def cold_class_memo(monkeypatch):
    # every test starts with an empty class-result memo, whatever ran before
    # it; a test that wants a warm memo warms it itself
    monkeypatch.setattr(qe, "_RESULTS", {})
