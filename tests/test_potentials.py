import numpy as np
import pytest

from critlab import (
    Ball,
    Interval,
    PotentialSpec,
    TailUnresolved,
    compute_lambda,
    eval_potential,
    limit_factor,
    validate_assumptions,
)
from frozen_values import GROUND_STATES


def test_eval_closed_forms():
    spec = PotentialSpec(p0=2.0)
    assert eval_potential(spec, 0.5) == pytest.approx(0.25)
    assert eval_potential(spec, 0.0) == 0.0
    multi = PotentialSpec(p0=2.0, zeros=((0.7, 1.0),))
    assert eval_potential(multi, 0.7) == 0.0
    assert eval_potential(multi, 0.35) == pytest.approx(0.35**2 * 0.35)


def test_lambda_from_oracle_moment(gs105):
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs105)
    expected = GROUND_STATES[(1, 0.5)]["moments"][2.0] ** 0.25
    assert lam.value == pytest.approx(expected, rel=1e-7)


@pytest.mark.parametrize("h0", [-50.0, 0.0])
def test_lambda_needs_positive_limit_factor(gs105, h0):
    # lambda^{p+2} is proportional to L0: no real lambda for L0 < 0, and
    # L0 = 0 would make predicted_eps divide by zero
    with pytest.raises(ValueError, match="L0"):
        compute_lambda(PotentialSpec(p0=2.0, h_params=(h0,)), gs105)


def test_lambda_homogeneity(gs105):
    base = compute_lambda(PotentialSpec(p0=2.0), gs105)
    scaled = compute_lambda(PotentialSpec(p0=2.0, h_params=(4.0,)), gs105)
    assert scaled.value == pytest.approx(base.value * 4.0 ** (1.0 / 4.0), rel=1e-13)


def test_limit_factor_with_zero():
    spec = PotentialSpec(p0=2.0, zeros=((0.7, 2.0),))
    assert limit_factor(spec) == pytest.approx(0.49, rel=1e-13)


def test_limit_factor_relabeling_and_collapse(gs105):
    z1 = ((0.7, 2.0), (-0.3, 1.0))
    z2 = ((-0.3, 1.0), (0.7, 2.0))
    a = compute_lambda(PotentialSpec(p0=2.0, zeros=z1), gs105)
    b = compute_lambda(PotentialSpec(p0=2.0, zeros=z2), gs105)
    assert a.value == pytest.approx(b.value, rel=1e-14)
    # n = 1, h = c: lambda^{p+2} = c (p/2) moment(p)
    c = 2.5
    lam = compute_lambda(PotentialSpec(p0=2.0, h_params=(c,)), gs105)
    assert lam.value**4 == pytest.approx(c * lam.moment_value, rel=1e-12)


def test_tabulated_h_limit():
    xs = np.linspace(-1.0, 1.0, 41)
    hv = 1.0 + 0.25 * np.abs(xs) + 0.1 * xs**2
    spec = PotentialSpec(p0=2.0, h_kind="tabulated", h_params=tuple(hv), h_nodes=tuple(xs),
                         zeros=((0.5, 1.0),))
    assert limit_factor(spec) == pytest.approx(1.0 * 0.5, rel=1e-15, abs=0.0)


def test_lambda_tail_unresolved(gs105):
    with pytest.raises(TailUnresolved):
        compute_lambda(PotentialSpec(p0=40.0), gs105)
    with pytest.raises(ValueError):
        compute_lambda(PotentialSpec(p0=0.0), gs105)


def test_validate_assumptions():
    dom = Interval(-1.0, 1.0)
    assert validate_assumptions(PotentialSpec(p0=2.0, zeros=((0.7, 1.0),)), dom) is None
    with pytest.raises(ValueError, match="outside"):
        validate_assumptions(PotentialSpec(p0=2.0, zeros=((1.5, 1.0),)), dom)
    with pytest.raises(ValueError, match="outside domain; h must be strictly positive"):
        validate_assumptions(PotentialSpec(p0=2.0, h_params=(-1.0,), zeros=((1.5, 1.0),)), dom)
    with pytest.raises(ValueError, match="origin exponent must be positive"):
        PotentialSpec(p0=0.0)
    with pytest.raises(ValueError, match="distinct and away from the origin"):
        PotentialSpec(p0=2.0, zeros=((0.0, 2.0),))
    with pytest.raises(ValueError, match="non-positive exponent"):
        PotentialSpec(p0=2.0, zeros=((0.5, -1.0),))
    with pytest.raises(ValueError, match="radial"):
        validate_assumptions(PotentialSpec(p0=2.0, zeros=((0.5, 1.0),)), Ball(2, 1.0))


def test_potential_continuity_sampled():
    spec = PotentialSpec(p0=2.0, zeros=((0.5, 0.5),))
    xs = np.linspace(-0.9, 0.9, 1801)
    for delta, bound in [(1e-3, 0.1), (1e-6, 3e-3)]:
        jump = np.max(np.abs(eval_potential(spec, xs + delta) - eval_potential(spec, xs)))
        assert jump < bound
