from __future__ import annotations

import numpy as np
import pytest

from chemotaxis_lab import (
    Field,
    Grid,
    GridMismatchError,
    InvalidParameterError,
    Params,
    SimState,
)


def test_params_reject_nonpositive_coefficients():
    with pytest.raises(InvalidParameterError):
        Params(chi=0.0, a=1, b=1, lam=1, mu=1, dim=1)
    with pytest.raises(InvalidParameterError):
        Params(chi=1, a=-2, b=1, lam=1, mu=1, dim=1)
    with pytest.raises(InvalidParameterError):
        Params(chi=1, a=1, b=1, lam=np.inf, mu=1, dim=1)


def test_params_reject_bad_dim():
    with pytest.raises(InvalidParameterError):
        Params(chi=1, a=1, b=1, lam=1, mu=1, dim=4)


def test_grid_requires_power_of_two():
    with pytest.raises(InvalidParameterError):
        Grid(dim=1, extent=1.0, points=100)
    with pytest.raises(InvalidParameterError):
        Grid(dim=1, extent=1.0, points=4)
    with pytest.raises(InvalidParameterError):
        Grid(dim=1, extent=0.0, points=64)
    g = Grid(dim=2, extent=3.0, points=16)
    assert g.spacing == pytest.approx(3.0 / 16)
    assert g.shape == (16, 16)


def test_field_round_trip_is_bit_identical():
    g = Grid(dim=1, extent=2 * np.pi, points=64)
    values = np.random.default_rng(7).normal(size=64)
    f = Field(g, values)
    assert np.array_equal(f.values, values)
    # the field owns its buffer
    values[0] = 1e9
    assert f.values[0] != 1e9


def test_field_rejects_nonfinite_and_wrong_shape():
    g = Grid(dim=1, extent=2 * np.pi, points=64)
    bad = np.zeros(64)
    bad[3] = np.nan
    with pytest.raises(InvalidParameterError):
        Field(g, bad)
    with pytest.raises(GridMismatchError):
        Field(g, np.zeros(65))


def test_simstate_rejects_mismatched_grids():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    g1 = Grid(dim=1, extent=2 * np.pi, points=64)
    g2 = Grid(dim=1, extent=2 * np.pi, points=128)
    with pytest.raises(GridMismatchError):
        SimState(t=0.0, u=Field(g1, np.zeros(64)), v=Field(g2, np.zeros(128)), params=p)


def test_simstate_rejects_negative_time():
    p = Params(chi=1, a=1, b=1, lam=1, mu=1, dim=1)
    g = Grid(dim=1, extent=2 * np.pi, points=64)
    with pytest.raises(InvalidParameterError):
        SimState(t=-1.0, u=Field(g, np.zeros(64)), v=Field(g, np.zeros(64)), params=p)
