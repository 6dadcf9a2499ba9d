"""Each independent reference must reproduce a closed form before the
benchmark trusts it."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import references as ref
from workloads import rotated_pair_field

EX2 = {"H1": {(0, 0): (-1.0, 0.0)}, "H2": {(0, 0): (0.0, 0.0)}, "H3": {(0, 0): (1.0, 0.0)}}
EX3 = {"H1": {(0, 0): (0.0, 0.0)}, "H2": {(0, 0): (1.0, 0.0)}, "H3": {(0, 0): (1.0, 0.0)}}


@pytest.mark.parametrize("lam", [-3.0, -1.0, 0.0, 0.5, 0.5 + 1.0j])
def test_riccati_reference_on_a_constant_field(lam):
    # ex2: M+(lam) = 1 - sqrt(1 - lam); ex3: M-(lam) = sqrt(1 - lam)
    got = ref.riccati_scalar(EX2, (0.0, 0.0), lam, "plus")
    assert abs(got - (1.0 - np.sqrt(complex(1.0 - lam)))) <= 1e-11
    got = ref.riccati_scalar(EX3, (0.3, 0.1), lam, "minus")
    assert abs(got - np.sqrt(complex(1.0 - lam))) <= 1e-11


def test_floquet_reference_on_the_scalar_lq_problem():
    # A = 0, B = G = R = 1: H = [[0, 1], [1, 0]], M+ = -1, value 1/2
    def blocks(t):
        return np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]])
    M = ref.floquet_weyl_plus(blocks, 3.0, 1)
    assert abs(-0.5 * M[0, 0] - 0.5) <= 1e-12


def _terms_value(terms, theta):
    out = 0.0
    for term in terms:
        ph = 2.0 * math.pi * float(np.dot(term["k"], theta))
        out = out + np.asarray(term["cos"]) * math.cos(ph) + np.asarray(term["sin"]) * math.sin(ph)
    return out


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_rotated_pair_reference_is_the_rotated_direct_sum(side):
    # A 2 x 2 matrix Riccati integration of the problem-file field handed
    # to hamflow must agree with P diag(m1, m2) P^T.
    angle, omega, lam = 0.9, np.array([0.2, 0.7]), 0.5 + 1.0j
    data = rotated_pair_field(angle)
    nu = np.asarray(data["flow"]["nu"])

    def rhs(t, y):
        th = omega + t * nu
        H1, H2, H3 = (_terms_value(data[b], th) for b in ("H1", "H2", "H3"))
        M = y.reshape(2, 2)
        return (H2 - lam * np.eye(2) - H1.T @ M - M @ H1 - M @ H3 @ M).reshape(-1)

    start = 40.0 if side == "plus" else -40.0
    sol = solve_ivp(rhs, (start, 0.0), np.zeros(4, dtype=complex), method="DOP853",
                    rtol=1e-13, atol=1e-15)
    want = sol.y[:, -1].reshape(2, 2)
    got = ref.riccati_rotated_pair(angle, omega, lam, side)
    assert np.max(np.abs(got - want)) <= 1e-10
    m1 = ref.riccati_scalar(ref.TORUS_DEMO, omega, lam, side)
    m2 = ref.riccati_scalar(ref.SECOND_SCALAR, omega, lam, side)
    P = ref.rotation(angle)
    assert np.max(np.abs(got - P @ np.diag([m1, m2]) @ P.T)) <= 1e-14


def test_torus_demo_table_matches_the_preset():
    from hamflow import BasePoint
    from hamflow.presets import get_preset
    field = get_preset("torus-demo").field
    assert tuple(field.flow.nu) == ref.GOLDEN_NU
    omega = BasePoint((0.37, 0.81))
    for t in (0.0, 1.3, 7.9):
        th = np.asarray(omega.coordinates) + t * np.asarray(ref.GOLDEN_NU)
        for got, block in zip(field.eval_blocks(omega, t), ("H1", "H2", "H3")):
            assert abs(got[0, 0] - ref.trig_value(ref.TORUS_DEMO[block], th)) <= 1e-13


def test_rotation_identity_on_a_scalar():
    assert ref.rotation_identity(np.array([[1.0]])) == pytest.approx(-math.pi / 4)
