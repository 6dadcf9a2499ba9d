import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamflow.base_flow import (
    BasePoint,
    advance,
    grid_sample,
    make_flow,
    sample_orbit,
)
from hamflow.errors import SchemaError


def test_autonomous_flow_is_a_single_point():
    f = make_flow("autonomous")
    assert f.dim == 0
    om = f.origin()
    assert advance(f, om, 17.3) == om


def test_periodic_flow_wraps_at_the_period():
    f = make_flow({"kind": "periodic", "period": 2.0})
    om = f.origin()
    assert advance(f, om, 3.5).coordinates == (0.75,)
    assert advance(f, om, 2.0) == om


def test_torus_flow_moves_with_the_frequency_vector():
    f = make_flow({"kind": "torus", "nu": [1.0, 1.618]})
    om = advance(f, f.origin(), 2.5)
    np.testing.assert_allclose(om.as_array(), [0.5, 4.045 % 1.0], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(-50, 50, allow_nan=False),
    t=st.floats(-50, 50, allow_nan=False),
)
def test_advance_is_additive(s, t):
    f = make_flow({"kind": "torus", "nu": [1.0, (1 + 5 ** 0.5) / 2]})
    om = f.origin()
    a = advance(f, advance(f, om, s), t)
    b = advance(f, om, s + t)
    # angles live on the circle: 1 - 1e-14 and 0 are the same point
    gap = (a.as_array() - b.as_array() + 0.5) % 1.0 - 0.5
    np.testing.assert_allclose(gap, 0.0, atol=1e-9)


def test_grid_sample_is_deterministic_and_contains_origin():
    f = make_flow({"kind": "torus", "nu": [1.0, 1.618]})
    g1 = grid_sample(f, 8, seed=5)
    g2 = grid_sample(f, 8, seed=5)
    assert g1 == g2
    assert f.origin() in g1
    assert len(g1) <= 8


def test_sample_orbit_lands_on_the_flow():
    f = make_flow({"kind": "torus", "nu": [1.0, 1.618]})
    pts = sample_orbit(f, f.origin(), 6, 0.5)
    for k, p in enumerate(pts):
        np.testing.assert_allclose(
            p.as_array(), advance(f, f.origin(), 0.5 * k).as_array(), atol=1e-12
        )


def test_unknown_flow_kind_is_rejected():
    with pytest.raises(SchemaError):
        make_flow({"kind": "banana"})


def _has_relation_by_loop(nu, order):
    """The resonance search as one Python loop over every integer vector."""
    from itertools import product

    nu = np.asarray(nu, dtype=float)
    scale = np.max(np.abs(nu)) * order
    for k in product(range(-order, order + 1), repeat=len(nu)):
        if any(k) and abs(float(np.dot(k, nu))) <= 1e-12 * max(scale, 1.0):
            return True
    return False


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_incommensurability_matches_the_exhaustive_loop(d):
    rng = np.random.default_rng(40 + d)
    cases = [list(rng.uniform(-2.0, 2.0, d)) for _ in range(3)]
    if d > 1:
        # resonant: the last frequency a small integer combination of the others
        head = rng.uniform(0.3, 2.0, d - 1)
        cases.append(list(head) + [float(np.array([2, -1, 3][:d - 1]) @ head)])
        cases.append([1.0, 2.0, 0.5, 3.0][:d])
    for nu in cases:
        flow = make_flow({"kind": "torus", "nu": nu})
        assert flow.incommensurate == (not _has_relation_by_loop(nu, 10)), nu


def test_torus_dimension_above_the_search_bound_is_rejected():
    make_flow({"kind": "torus", "nu": list(np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0]))})
    with pytest.raises(SchemaError):
        make_flow({"kind": "torus", "nu": list(np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0]))})
