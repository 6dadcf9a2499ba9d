import numpy as np
import pytest

from hamflow.presets import get_preset


@pytest.fixture(scope="session")
def ex1():
    return get_preset("ex1").field


@pytest.fixture(scope="session")
def ex2():
    return get_preset("ex2").field


@pytest.fixture(scope="session")
def ex3():
    return get_preset("ex3").field


@pytest.fixture(scope="session")
def ex4():
    return get_preset("ex4").field


@pytest.fixture(scope="session")
def abnormal():
    return get_preset("abnormal").field


@pytest.fixture(scope="session")
def torus_demo():
    return get_preset("torus-demo").field


def random_spn_field(rng: np.random.Generator, n: int = 2,
                     h2_pos: bool = True, h3_pos: bool = True,
                     shift: float = 0.3):
    """A random constant field with optionally definite H2/H3 blocks."""
    from hamflow.hamiltonian import constant_field

    A = rng.standard_normal((n, n))

    def sym(definite):
        S = rng.standard_normal((n, n))
        if definite:
            return S @ S.T + shift * np.eye(n)
        return 0.5 * (S + S.T)

    return constant_field(A, sym(h2_pos), sym(h3_pos))


def random_periodic_field(rng: np.random.Generator, n: int, period: float):
    """A random hyperbolic field with one-harmonic periodic blocks
    (H1 near -0.8 I, H2 and H3 near positive definite) and Delta = I."""
    from hamflow.base_flow import make_flow
    from hamflow.hamiltonian import BlockMap, CoefficientField, TrigTerm

    def sym(scale):
        A = rng.standard_normal((n, n))
        return scale * 0.5 * (A + A.T)

    def periodic(const, harmonic):
        return BlockMap(n=n, const=const,
                        terms=(TrigTerm(k=(1,), cos=harmonic(), sin=harmonic()),))

    def definite():
        S = rng.standard_normal((n, n))
        return periodic(0.2 * S @ S.T + 0.5 * np.eye(n), lambda: sym(0.2))

    H1 = periodic(-0.8 * np.eye(n) + 0.2 * rng.standard_normal((n, n)),
                  lambda: 0.3 * rng.standard_normal((n, n)))
    return CoefficientField(
        n=n, flow=make_flow({"kind": "periodic", "period": period}),
        H1=H1, H2=definite(), H3=definite(),
        delta=BlockMap.constant(np.eye(n)), name="random-periodic",
    )
