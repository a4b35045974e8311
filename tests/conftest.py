"""Shared fixtures."""

import pytest

from zetaver import quadrature


@pytest.fixture
def spent():
    """spent(fn, *args, **kwargs) -> (fn's result, the integrand evaluations
    it made), read off the engine's evaluation meter."""

    def call(fn, *args, **kwargs):
        start = quadrature._evaluations()
        out = fn(*args, **kwargs)
        return out, quadrature._evaluations() - start

    return call
