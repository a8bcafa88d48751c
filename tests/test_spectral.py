from __future__ import annotations

import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from chemotaxis_lab import Grid, Params, SemigroupPlan, measure_gradient_constant, spectral
from chemotaxis_lab.imex import nonlinear_hat
from chemotaxis_lab.spectral import CALIBRATION_TIMES, bind_div_hat
from conftest import bits, lap, semigroup, semigroup_div, semigroup_grad

SQRT_PI = np.sqrt(np.pi)


def sup(a):
    return float(np.abs(a).max())


def test_identity_at_t_zero_is_exact(plan_1d, grid_1d):
    # E(0) is exactly one on every mode: it adds nothing to the round trip
    rng = np.random.default_rng(0)
    f = rng.uniform(-1, 1, grid_1d.shape)
    assert np.array_equal(plan_1d.multiplier(0.0, 2.0), np.ones(plan_1d.spectral_shape))
    round_trip = plan_1d.to_physical(plan_1d.to_spectral(f))
    assert np.array_equal(semigroup(plan_1d, f, 0.0, 2.0), round_trip)


def test_constant_field_decays_by_exp_sigma_t(plan_1d, grid_1d):
    out = semigroup(plan_1d, np.ones(grid_1d.shape), 0.5, 1.0)
    assert out == pytest.approx(np.exp(-0.5) * np.ones(grid_1d.shape), rel=1e-14)


def test_cosine_is_an_eigenmode(plan_1d, grid_1d):
    x = grid_1d.axis_coordinates()
    out = semigroup(plan_1d, np.cos(x), 1.0, 0.0)
    assert sup(out - np.exp(-1.0) * np.cos(x)) < 1e-14


def test_mean_is_preserved_without_decay(plan_1d, grid_1d):
    rng = np.random.default_rng(1)
    f = rng.uniform(0.5, 1.5, grid_1d.shape)
    out = semigroup(plan_1d, f, 0.37, 0.0)
    assert out.mean() == pytest.approx(f.mean(), rel=1e-12)


def test_semigroup_property(plan_1d, grid_1d):
    rng = np.random.default_rng(2)
    f = rng.uniform(-1, 1, grid_1d.shape)
    for t1, t2, sigma in [(0.1, 0.25, 0.0), (0.02, 0.4, 1.3)]:
        once = semigroup(plan_1d, f, t1 + t2, sigma)
        twice = semigroup(plan_1d, semigroup(plan_1d, f, t2, sigma), t1, sigma)
        assert sup(once - twice) <= 1e-12 * sup(f)


def test_positivity_up_to_spectral_ringing(plan_1d, grid_1d):
    rng = np.random.default_rng(3)
    f = rng.uniform(0.0, 1.0, grid_1d.shape)
    out = semigroup(plan_1d, f, 0.01, 0.0)
    assert out.min() >= -1e-12 * sup(f)


def test_sup_norm_contraction_estimate(plan_1d, grid_1d):
    rng = np.random.default_rng(4)
    f = rng.uniform(-1, 1, grid_1d.shape)
    for t, sigma in [(0.01, 0.0), (0.5, 2.0), (3.0, 0.7)]:
        out = semigroup(plan_1d, f, t, sigma)
        assert sup(out) <= np.exp(-sigma * t) * sup(f) + 1e-12


def test_gradient_commutes_with_semigroup(plan_1d, grid_1d):
    rng = np.random.default_rng(5)
    f = rng.uniform(-1, 1, grid_1d.shape)
    direct = semigroup_grad(plan_1d, f, 0.05, 0.4)
    composed = plan_1d.grad(plan_1d.to_spectral(semigroup(plan_1d, f, 0.05, 0.4)))
    assert sup(direct[0] - composed[0]) <= 1e-14 * sup(f)


def test_grad_of_constant_is_zero(plan_1d, grid_1d):
    out = semigroup_grad(plan_1d, np.full(grid_1d.shape, 3.7), 0.3, 0.0)
    assert sup(out[0]) < 1e-13


def test_grad_on_sine_eigenmode(plan_1d, grid_1d):
    x = grid_1d.axis_coordinates()
    out = semigroup_grad(plan_1d, np.sin(x), 1.0, 0.0)
    assert sup(out[0] - np.exp(-1.0) * np.cos(x)) < 1e-13


def test_gradient_envelope_constant_is_finite_and_certified(plan_1d):
    c = measure_gradient_constant(plan_1d)
    assert 0.1 < c <= (1.0 / SQRT_PI) * 1.01


def test_div_of_constant_vector_is_zero(plan_1d, grid_1d):
    out = semigroup_div(plan_1d, [np.full(grid_1d.shape, 2.0)], 0.2, 0.0)
    assert sup(out) < 1e-13


def test_div_on_sine_eigenmode(plan_1d, grid_1d):
    x = grid_1d.axis_coordinates()
    out = semigroup_div(plan_1d, [np.sin(x)], 1.0, 0.0)
    assert sup(out - np.exp(-1.0) * np.cos(x)) < 1e-13


def test_div_envelope_on_random_fields(plan_1d, grid_1d):
    # bound value from the divergence smoothing estimate at t = 0.01:
    # (1/sqrt(pi)) * 0.01^(-1/2) = 5.6419
    rng = np.random.default_rng(6)
    bound = (1.0 / SQRT_PI) * 0.01**-0.5
    for _ in range(100):
        values = rng.uniform(-1, 1, grid_1d.shape)
        values /= np.abs(values).max()
        out = semigroup_div(plan_1d, [values], 0.01, 0.0)
        assert sup(out) <= bound * 1.01


def test_laplacian_eigenmodes(plan_1d, grid_1d):
    x = grid_1d.axis_coordinates()
    out = lap(plan_1d, np.sin(2 * x))
    # roundoff in the far modes is amplified by |k|^2, so the floor is ~1e-11
    assert sup(out + 4.0 * np.sin(2 * x)) < 1e-11
    g = plan_1d.grad(plan_1d.to_spectral(np.sin(x)))
    assert sup(g[0] - np.cos(x)) < 1e-13
    const = np.full(grid_1d.shape, 5.0)
    assert sup(lap(plan_1d, const)) < 1e-13
    assert sup(plan_1d.grad(plan_1d.to_spectral(const))[0]) < 1e-13


def test_two_dimensional_eigenmode():
    grid = Grid(dim=2, extent=2 * np.pi, points=32)
    plan = SemigroupPlan(grid)
    xx, yy = grid.coordinate_arrays()
    f = np.cos(xx) * np.cos(yy)
    out = semigroup(plan, f, 0.5, 0.0)
    assert sup(out - np.exp(-1.0) * f) < 1e-13
    g = plan.grad(plan.to_spectral(np.cos(xx)))
    assert sup(g[0] + np.sin(xx)) < 1e-12
    assert sup(g[1]) < 1e-13


def test_div_hat_of_grad_is_the_laplacian():
    grid = Grid(dim=2, extent=2 * np.pi, points=32)
    plan = SemigroupPlan(grid)
    xx, yy = grid.coordinate_arrays()
    f = np.cos(xx) * np.sin(2 * yy) + np.sin(3 * xx)
    spec = plan.to_spectral(f)
    div_hat = bind_div_hat(plan.ik, plan.to_spectral(np.stack(plan.grad(spec))))()
    div_grad = plan.to_physical(div_hat)
    assert sup(div_grad - lap(plan, f)) < 1e-12
    assert sup(div_grad + 5 * np.cos(xx) * np.sin(2 * yy) + 9 * np.sin(3 * xx)) < 1e-12


def test_huge_time_flushes_every_oscillatory_mode(plan_1d, grid_1d):
    # multipliers below 1e-300 flush to exact zero, so only the mean survives
    rng = np.random.default_rng(8)
    f = rng.uniform(0.0, 1.0, grid_1d.shape)
    out = semigroup(plan_1d, f, 1000.0, 0.0)
    assert out.max() - out.min() == 0.0
    assert out[0] == pytest.approx(f.mean(), rel=1e-12)


def test_three_dimensional_eigenmode():
    grid = Grid(dim=3, extent=2 * np.pi, points=16)
    plan = SemigroupPlan(grid)
    xx, yy, zz = grid.coordinate_arrays()
    f = np.cos(xx) * np.cos(yy) * np.cos(zz)
    out = semigroup(plan, f, 0.2, 0.5)
    assert sup(out - np.exp(-(3.0 + 0.5) * 0.2) * f) < 1e-13
    assert sup(lap(plan, f) + 3.0 * f) < 1e-11


TRANSFORM_GRIDS = [
    Grid(dim=1, extent=2 * np.pi, points=64),
    Grid(dim=2, extent=2 * np.pi, points=32),
    Grid(dim=3, extent=2 * np.pi, points=16),
]


# The plan calls pocketfft's kernels through a module private to numpy, so
# the tests below carry the transform contract: the spectra and fields of
# np.fft.rfftn/irfftn, bit for bit, in complex128/float64, on ROADMAP's grid
# ladder (1D 64/256/4096, 2D 128, 3D 32) and on any memory layout.
CONTRACT_GRIDS = [pytest.param(g, id=f"{g.dim}d") for g in TRANSFORM_GRIDS] + [
    pytest.param(Grid(dim=dim, extent=2 * np.pi, points=n), id=f"{dim}d-{n}")
    for dim, n in [(1, 256), (1, 4096), (2, 128), (3, 32)]
]


def _numpy_pair(values, grid):
    axes = tuple(range(-grid.dim, 0))
    spec = np.fft.rfftn(values, axes=axes)
    return spec, np.fft.irfftn(spec, s=grid.shape, axes=axes)


def _assert_bits(got, expected, dtype):
    assert got.dtype == dtype and got.shape == expected.shape
    assert np.array_equal(bits(got), bits(expected))


@pytest.mark.parametrize("grid", CONTRACT_GRIDS)
def test_transforms_equal_numpy_bit_for_bit(grid):
    plan = SemigroupPlan(grid)
    values = np.random.default_rng(20).standard_normal(grid.shape)
    spec, back = _numpy_pair(values, grid)
    _assert_bits(plan.to_spectral(values), spec, np.complex128)
    _assert_bits(plan.to_physical(spec), back, np.float64)
    _assert_bits(plan.to_physical(spec.copy(), overwrite=True), back, np.float64)


def _every_other(a):
    """A view holding ``a``'s values at every other element of a wider
    array: strided on the last axis."""
    wide = np.zeros((*a.shape[:-1], 2 * a.shape[-1]), a.dtype)
    wide[..., ::2] = a
    return wide[..., ::2]


@pytest.mark.parametrize("grid", CONTRACT_GRIDS)
def test_transforms_equal_numpy_on_non_contiguous_inputs(grid):
    plan = SemigroupPlan(grid)
    rng = np.random.default_rng(26)
    # A transposed field: Fortran order for dim >= 2.
    values = rng.standard_normal(grid.shape).T
    spec, back = _numpy_pair(np.ascontiguousarray(values), grid)
    for field in (values, _every_other(values)):
        _assert_bits(plan.to_spectral(field), spec, np.complex128)
    for layout in (np.asfortranarray, _every_other):
        _assert_bits(plan.to_physical(layout(spec)), back, np.float64)
        _assert_bits(plan.to_physical(layout(spec), overwrite=True), back, np.float64)
    # Rows 1: of a stack, as the step hands over its spent flux rows.
    stack = rng.standard_normal((3, *grid.shape))
    rows_spec, rows_back = _numpy_pair(stack[1:], grid)
    _assert_bits(plan.to_spectral(stack[1:]), rows_spec, np.complex128)
    spec_stack = np.stack([spec, *rows_spec])
    _assert_bits(plan.to_physical(spec_stack[1:], overwrite=True), rows_back, np.float64)
    _assert_bits(spec_stack[0], spec, np.complex128)


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=lambda g: f"{g.dim}d")
def test_transforms_accept_a_leading_batch_axis(grid):
    plan = SemigroupPlan(grid)
    batch = np.random.default_rng(21).standard_normal((3, *grid.shape))
    spec = plan.to_spectral(batch)
    back = plan.to_physical(spec)
    assert spec.shape == (3, *plan.spectral_shape)
    for row, row_spec, row_back in zip(batch, spec, back):
        ref_spec, ref_back = _numpy_pair(row, grid)
        assert np.array_equal(row_spec, ref_spec)
        assert np.array_equal(row_back, ref_back)


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=lambda g: f"{g.dim}d")
def test_transforms_leave_their_inputs_unmodified(grid):
    plan = SemigroupPlan(grid)
    # a bound div_hat and imex.nonlinear_hat overwrite the arrays they are handed,
    # by contract; every other entry point leaves its input alone.
    rng = np.random.default_rng(22)
    values = rng.standard_normal(grid.shape)
    spec = plan.to_spectral(values)
    batched = np.stack([spec, -spec])
    kept = (values.copy(), spec.copy(), batched.copy())
    plan.to_spectral(values)
    plan.to_physical(spec)
    plan.grad(spec)
    plan.grad(batched)
    assert np.array_equal(values, kept[0])
    assert np.array_equal(spec, kept[1])
    assert np.array_equal(batched, kept[2])


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=lambda g: f"{g.dim}d")
def test_stacked_calls_equal_the_per_row_calls_bit_for_bit(grid):
    # The batched Duhamel oracle rests on this: a stack through grad, bind_div_hat
    # and nonlinear_hat gives each row exactly what the row alone gives.
    plan = SemigroupPlan(grid)
    p = Params(chi=1.3, a=1.1, b=0.7, lam=0.9, mu=1.2, dim=grid.dim)
    rng = np.random.default_rng(24)
    u = rng.uniform(0.1, 2.0, (3, *grid.shape))
    v_hat = plan.to_spectral(rng.uniform(0.1, 2.0, (3, *grid.shape)))
    vx = plan.grad(v_hat)
    div = bind_div_hat(plan.ik, plan.to_spectral(np.stack(vx)))()
    n_hat = nonlinear_hat(plan, p, np.stack((u, *vx)))[0]
    for row in range(3):
        row_vx = plan.grad(v_hat[row])
        assert all(np.array_equal(bits(c[row]), bits(r)) for c, r in zip(vx, row_vx))
        row_div = bind_div_hat(plan.ik, plan.to_spectral(np.stack(row_vx)))()
        assert np.array_equal(bits(div[row]), bits(row_div))
        row_n_hat = nonlinear_hat(plan, p, np.stack((u[row], *row_vx)))[0]
        assert np.array_equal(bits(n_hat[row]), bits(row_n_hat))


# The 2/3 band transforms: the band entries of the full transforms, bit for
# bit, from half the work (see chemotaxis_lab.spectral).
BAND_GRIDS = [
    pytest.param(Grid(dim=dim, extent=2 * np.pi, points=n), id=f"{dim}d-{n}")
    for dim, n in [(1, 64), (2, 32), (2, 64), (3, 16), (3, 32)]
]


def _band_index(grid):
    """Index of the band entries of a full spectrum, independent of the
    plan: |k index| <= floor(points/3) on every axis, in fftfreq order."""
    keep = grid.points // 3
    full = np.abs(np.fft.fftfreq(grid.points, 1.0 / grid.points)) <= keep
    half = np.arange(grid.points // 2 + 1) <= keep
    return (Ellipsis, *np.ix_(*[full] * (grid.dim - 1), half))


def _padded(plan, band_spec):
    """The full spectrum that is ``band_spec`` on the band and zero elsewhere."""
    lead = band_spec.shape[: -plan.grid.dim]
    full = np.zeros(lead + plan.spectral_shape, np.complex128)
    full[_band_index(plan.grid)] = band_spec
    return full


def _band_inputs(grid, rng):
    """Fields to transform: one field, a three-row stack, and non-contiguous
    layouts of each (transposed rows, every other element)."""
    values = rng.standard_normal(grid.shape)
    stack = rng.standard_normal((3, *grid.shape))
    axes = (0, *range(grid.dim, 0, -1))
    transposed = rng.standard_normal((2, *grid.shape)).transpose(axes)
    return [values, stack, values.T, transposed, _every_other(values), stack[1:]]


@pytest.mark.parametrize("grid", BAND_GRIDS)
def test_band_forward_is_the_full_forwards_band_bit_for_bit(grid):
    plan = SemigroupPlan(grid)
    index = _band_index(grid)
    for values in _band_inputs(grid, np.random.default_rng(40)):
        kept = values.copy()
        expected = plan.to_spectral(values)[index]
        lead = values.shape[: -grid.dim]
        assert expected.shape == lead + plan.band_shape
        out, work = plan.band_workspace(lead)
        for _ in range(2):  # a reused work buffer gives the same bits
            got = plan.to_spectral(values, band=True, out=out, work=work)
            _assert_bits(got, expected, np.complex128)
            assert got is out
            assert np.array_equal(bits(values), bits(kept))  # the input is left alone


@pytest.mark.parametrize("grid", BAND_GRIDS)
def test_band_inverse_is_the_padded_full_inverse_bit_for_bit(grid):
    plan = SemigroupPlan(grid)
    rng = np.random.default_rng(41)
    for values in _band_inputs(grid, rng):
        lead = values.shape[: -grid.dim]
        band_spec, work = plan.band_workspace(lead)
        plan.to_spectral(values, band=True, out=band_spec, work=work)
        band_spec[...] += 0.25 * rng.standard_normal(band_spec.shape)
        kept = band_spec.copy()
        expected = plan.to_physical(_padded(plan, band_spec))
        spec_buffer, work = plan.band_workspace(lead)
        out = np.empty(lead + grid.shape)
        for _ in range(2):  # a reused work buffer gives the same bits
            spec_buffer[...] = band_spec
            got = plan.to_physical(spec_buffer, band=True, out=out, work=work)
            assert got is out
            _assert_bits(got, expected, np.float64)
        # The band spectrum itself, and non-contiguous band spectra: Fortran
        # order and every other element.
        for layout in (np.asarray, np.asfortranarray, _every_other):
            _, work = plan.band_workspace(lead)
            got = plan.to_physical(layout(band_spec), band=True, out=out, work=work)
            _assert_bits(got, expected, np.float64)
        assert np.array_equal(bits(band_spec), bits(kept))


@pytest.mark.parametrize("grid", BAND_GRIDS)
def test_band_arrays_are_the_full_arrays_band_entries(grid):
    plan = SemigroupPlan(grid)
    index = _band_index(grid)
    # |index| <= 21 keeps 43 modes on each full axis of 64^3, 22 on the half axis.
    assert SemigroupPlan(Grid(dim=3, extent=2 * np.pi, points=64)).band_shape == (43, 43, 22)
    _assert_bits(plan.band_k2, plan.k2[index], np.float64)
    for ik, band_ik in zip(plan.ik, plan.band_ik):
        full = np.broadcast_to(ik, plan.spectral_shape)
        _assert_bits(np.broadcast_to(band_ik, plan.band_shape), full[index], np.complex128)
    spec = plan.to_spectral(np.random.default_rng(42).standard_normal((2, *grid.shape)))
    _assert_bits(plan.band_of(spec), spec[index], np.complex128)
    for t, sigma in [(1e-3, 0.7), (0.5, 1.3)]:
        for weight in (plan.multiplier, plan.phi1):
            _assert_bits(weight(t, sigma, band=True), weight(t, sigma)[index], np.float64)


GRID_32_3 = Grid(dim=3, extent=2 * np.pi, points=32)


def _two_thread_calls(monkeypatch):
    """A list that counts the band transforms that take a helper thread."""
    calls = []
    on_two_threads = spectral._on_two_threads

    def counted(*args):
        calls.append(args)
        return on_two_threads(*args)

    monkeypatch.setattr(spectral, "_on_two_threads", counted)
    return calls


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.fixture
def helper():
    """A helper thread for the band transforms, stopped after the test."""
    helper = spectral.Helper()
    yield helper
    helper.stop()


def _band_round_trip(plan, values, work, helper=None):
    """The band forward of ``values`` and the band inverse of a band
    spectrum made from it, through ``work`` (and ``helper``)."""
    lead = values.shape[: -plan.grid.dim]
    spec = np.empty(lead + plan.band_shape, np.complex128)
    plan.to_spectral(values, band=True, out=spec, work=work, helper=helper)
    rough = spec + 0.25
    field = np.empty(values.shape)
    plan.to_physical(rough, band=True, out=field, work=work, helper=helper)
    return spec, field


def _per_row_round_trip(plan, values):
    """:func:`_band_round_trip` a row at a time, each a one-row call."""
    spec = np.empty(values.shape[: -plan.grid.dim] + plan.band_shape, np.complex128)
    field = np.empty(values.shape)
    _, work = plan.band_workspace(())
    for row in np.ndindex(values.shape[: -plan.grid.dim]):
        spec[row], field[row] = _band_round_trip(plan, values[row], work[0])
    return spec, field


@pytest.mark.parametrize("lead", [(4,), (3,), (2, 4)], ids=["4-rows", "3-rows", "2x4-rows"])
def test_band_rows_on_two_threads_equal_the_per_row_calls_bit_for_bit(lead, helper, monkeypatch):
    # 32^3 rows hold 2^15 values, so from 2 CPUs on a stack's band
    # transforms share its rows between the caller and the helper thread;
    # each row gets the same kernel calls, so the same bits.  Three rows
    # split unevenly, and a (2, 4) lead is a block's stack.
    plan = SemigroupPlan(GRID_32_3)
    threads = min(2, _cpus())
    _, work = plan.band_workspace(lead)
    assert work.shape == (threads, *plan.spectral_shape)
    values = np.random.default_rng(43).standard_normal(lead + GRID_32_3.shape)
    calls = _two_thread_calls(monkeypatch)
    spec, field = _band_round_trip(plan, values, work, helper)
    assert len(calls) == (2 if threads == 2 else 0)  # the forward and the inverse
    expected_spec, expected_field = _per_row_round_trip(plan, values)
    _assert_bits(spec, expected_spec, np.complex128)
    _assert_bits(field, expected_field, np.float64)


def test_small_rows_and_one_row_calls_stay_on_one_thread(helper, monkeypatch):
    # 128^2 rows (2^14 values) cost more on two threads than on one, and a
    # one-row call has nothing to share, even given two work spectra and a
    # helper; nor does a call without a helper.
    calls = _two_thread_calls(monkeypatch)
    plan_2d = SemigroupPlan(Grid(dim=2, extent=2 * np.pi, points=128))
    _, work = plan_2d.band_workspace((4,))
    assert work.shape == (1, *plan_2d.spectral_shape)
    values = np.random.default_rng(44).standard_normal((4, *plan_2d.grid.shape))
    _band_round_trip(plan_2d, values, work, helper)
    plan = SemigroupPlan(GRID_32_3)
    assert plan.band_workspace((1,))[1].shape == (1, *plan.spectral_shape)
    _, work = plan.band_workspace((4,))
    one_row = np.random.default_rng(45).standard_normal(GRID_32_3.shape)
    for values in (one_row, one_row[np.newaxis]):
        _band_round_trip(plan, values, work, helper)
    _band_round_trip(plan, np.random.default_rng(45).standard_normal((4, *GRID_32_3.shape)), work)
    assert calls == []


def _stack_with_inf(plan):
    values = np.random.default_rng(46).standard_normal((4, *plan.grid.shape))
    values[:, 3, 5, 7] = np.inf
    return values


def test_helper_thread_keeps_the_callers_error_state(helper):
    # np.errstate is per context: the helper runs in a copy of the caller's,
    # so a transform the caller silences warns on neither thread.  inf
    # spreads as inf and NaN, the same bits as the per-row calls'.
    plan = SemigroupPlan(GRID_32_3)
    values = _stack_with_inf(plan)
    _, work = plan.band_workspace((4,))
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        spec, field = _band_round_trip(plan, values, work, helper)
        expected_spec, expected_field = _per_row_round_trip(plan, values)
    assert np.isnan(field).any() and not np.isfinite(spec).all()
    _assert_bits(spec, expected_spec, np.complex128)
    _assert_bits(field, expected_field, np.float64)


def test_a_warning_raised_as_an_error_reaches_the_caller(helper):
    plan = SemigroupPlan(GRID_32_3)
    values = _stack_with_inf(plan)
    _, work = plan.band_workspace((4,))
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning):
            _band_round_trip(plan, values, work, helper)


def test_the_helpers_exception_is_raised_in_the_caller_after_it_ends():
    # The caller waits, holding its row, until the helper has taken the
    # other row and failed (if the helper takes both rows, the caller has
    # none to wait on): the helper's error is raised in the caller, the
    # helper serves the next call, and once stopped no thread is left
    # running.
    helper_done = threading.Event()
    before = threading.active_count()

    def transform(row, out, work):
        if threading.current_thread() is threading.main_thread():
            assert helper_done.wait(10.0)
            return
        helper_done.set()
        raise ValueError(f"row {row}")

    helper = spectral.Helper()
    try:
        with pytest.raises(ValueError, match="row"):
            spectral._on_two_threads(helper, transform, [(0, None), (1, None)], [None, None])
        assert helper.run(abs, (-1,), abs, (-2,)) == (1, 2)
    finally:
        helper.stop()
    assert threading.active_count() == before


def test_shared_plan_under_frequent_thread_switches():
    # Three callers share one plan, each with its own buffers, so up to six
    # threads run on the box's cores at once, switching every 10 us: every
    # row is taken once and transformed as alone, so every caller's result
    # has the per-row calls' bits.
    plan = SemigroupPlan(GRID_32_3)
    values = np.random.default_rng(47).standard_normal((3, *GRID_32_3.shape))
    expected_spec, expected_field = _per_row_round_trip(plan, values)
    results = []

    def caller():
        _, work = plan.band_workspace((3,))
        helper = spectral.Helper()
        try:
            results.extend(_band_round_trip(plan, values, work, helper) for _ in range(3))
        finally:
            helper.stop()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(3)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 9
    for spec, field in results:
        _assert_bits(spec, expected_spec, np.complex128)
        _assert_bits(field, expected_field, np.float64)


def _gradient_kernels(plan, t):
    """d_i E(t) delta per axis, from the transform of a unit delta."""
    delta = np.zeros(plan.grid.shape)
    delta.flat[0] = 1.0
    return semigroup_grad(plan, delta, t, 0.0)


def _reflect(values):
    """values(-x) on the periodic grid."""
    return np.roll(np.flip(values), 1, axis=tuple(range(values.ndim)))


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=lambda g: f"{g.dim}d")
@pytest.mark.parametrize("sigma", [0.0, 0.7])
def test_gradient_constant_is_attained_and_never_exceeded(grid, sigma):
    # The constant is measured at sigma = 0 and bounds the sigma-weighted
    # norms: E(t, sigma) = exp(-sigma t) E(t, 0).
    plan = SemigroupPlan(grid)
    times = CALIBRATION_TIMES
    c = measure_gradient_constant(plan)
    # The sign pattern of the reflected kernel attains the l1 norm at the
    # origin, so the maximising time and axis reproduce the constant.
    norms = [(np.abs(k).sum() * np.sqrt(t), t, k) for t in times
             for k in _gradient_kernels(plan, t)]
    norm, t, kernel = max(norms, key=lambda entry: entry[0])
    assert norm == pytest.approx(c, rel=1e-12)
    extremal = np.sign(_reflect(kernel))
    g = semigroup_grad(plan, extremal, t, sigma)
    assert max(map(sup, g)) * np.sqrt(t) * np.exp(sigma * t) == pytest.approx(c, rel=1e-12)
    rng = np.random.default_rng(23)
    for _ in range(16):
        values = rng.uniform(-1.0, 1.0, grid.shape)
        f = values / np.abs(values).max()
        for t in times:
            g = semigroup_grad(plan, f, t, sigma)
            assert max(map(sup, g)) * np.sqrt(t) * np.exp(sigma * t) <= c * (1.0 + 1e-12)
    if grid.dim == 1:
        # 64 points over 2*pi: sqrt(1e-3) is below the spacing, so the exact
        # constant exceeds the continuum 1/sqrt(pi) by far.
        assert c > 1.8 / SQRT_PI


def test_gradient_calibration_allocates_less_than_a_field():
    # The constant is a product of 1D kernel norms: calibrating a 3D grid
    # transforms 1D kernels alone, no field-sized one.
    plan = SemigroupPlan(Grid(dim=3, extent=2 * np.pi, points=32))
    field_bytes = np.empty(plan.grid.shape).nbytes
    tracemalloc.start()
    try:
        measure_gradient_constant(plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < field_bytes / 2, (peak, field_bytes)


def test_derivative_multiplier_zeroes_only_the_mean_and_the_nyquist_mode():
    # The Nyquist mode is found by its index: from 2^18 points on, |k| within
    # a relative 1e-5 of pi/spacing also takes the modes just below it.
    points = 2**18
    (ik,) = SemigroupPlan(Grid(dim=1, extent=2 * np.pi, points=points)).ik
    assert np.flatnonzero(ik == 0).tolist() == [0, points // 2]


@pytest.mark.parametrize("sigma", [1.0, 0.37, 25.0])
def test_phi1_keeps_full_precision_for_small_rate_times_t(plan_1d, sigma):
    # (1 - exp(-x))/sigma loses about -log10(x) digits; the expm1 form none.
    for t in 10.0 ** -np.arange(0, 13):
        expected = -math.expm1(-sigma * t) / sigma
        assert abs(plan_1d.phi1(t, sigma)[0] - expected) <= np.spacing(expected)

