"""Shared fixtures: parameters and cached balls for the default graph,
and a wrong beta closed form."""

import pytest

import dlstar.horofn as horofn_mod
import dlstar.verify as verify_mod
from dlstar import DLParams, ball_distances, identity


@pytest.fixture(scope="session")
def params():
    return DLParams(d=3, q=2)


@pytest.fixture(scope="session")
def origin(params):
    return identity(params)


@pytest.fixture(scope="session")
def ball3(params):
    """Distance map for the radius-3 ball around the identity (319 vertices)."""
    return ball_distances(params, 3)


@pytest.fixture(scope="session")
def ball4(params):
    """Distance map for the radius-4 ball around the identity (1129 vertices)."""
    return ball_distances(params, 4)


@pytest.fixture
def wrong_beta_value(monkeypatch):
    """beta_value one too large wherever m1 = 1, in horofn and in verify,
    so betandist_table raises TableMismatch on such a vertex."""
    real = horofn_mod.beta_value

    def one_too_large(z):
        return real(z) + (z.coords[0].m == 1)

    for module in (horofn_mod, verify_mod):
        monkeypatch.setattr(module, "beta_value", one_too_large)
