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

    return random_trig_field(rng, n, make_flow({"kind": "periodic", "period": period}))


def random_trig_field(rng: np.random.Generator, n: int, flow):
    """A random hyperbolic field over a periodic or torus flow, with one
    harmonic per base frequency in every block (H1 near -0.8 I, H2 and H3
    near positive definite) and Delta = I."""
    from hamflow.hamiltonian import BlockMap, CoefficientField, TrigTerm

    units = [tuple(int(i == j) for i in range(flow.dim)) for j in range(flow.dim)]

    def sym(scale):
        A = rng.standard_normal((n, n))
        return scale * 0.5 * (A + A.T)

    def trig(const, harmonic):
        return BlockMap(n=n, const=const,
                        terms=tuple(TrigTerm(k=k, cos=harmonic(), sin=harmonic())
                                    for k in units))

    def definite():
        S = rng.standard_normal((n, n))
        return trig(0.2 * S @ S.T + 0.5 * np.eye(n), lambda: sym(0.2))

    H1 = trig(-0.8 * np.eye(n) + 0.2 * rng.standard_normal((n, n)),
              lambda: 0.3 * rng.standard_normal((n, n)))
    return CoefficientField(
        n=n, flow=flow, H1=H1, H2=definite(), H3=definite(),
        delta=BlockMap.constant(np.eye(n)), name="random-trig",
    )


def count_ode_solvers(monkeypatch) -> list:
    """Count the ODE solvers that scipy.integrate starts, however they are
    reached: the returned list grows by one entry per solver."""
    from scipy.integrate import OdeSolver

    starts: list = []

    def counting(self, *args, _orig=OdeSolver.__init__, **kwargs):
        starts.append(type(self).__name__)
        _orig(self, *args, **kwargs)

    monkeypatch.setattr(OdeSolver, "__init__", counting)
    return starts


def count_calls(monkeypatch, owner, name: str) -> list:
    """Count the calls of ``owner.name`` (a module function or a class
    attribute): the returned list grows by one entry per call."""
    calls: list = []
    original = getattr(owner, name)

    def counted(*args, _orig=original, **kwargs):
        calls.append(1)
        return _orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def near_jordan_field(n: int, betas, scales, shears):
    """A constant field with eigenvalues +-beta_i close to a Jordan block:
    per degree of freedom the generator [[0, s], [beta^2 / s, 0]] with
    s >> beta, conjugated by a shear and a diagonal scaling (both
    symplectic), the n = 2 case also by a symplectic mix of the two
    degrees of freedom."""
    from hamflow.hamiltonian import constant_field

    H = np.zeros((2 * n, 2 * n))
    for i, (beta, s, (a, b, c)) in enumerate(zip(betas, scales, shears)):
        P = (np.array([[a, 0.0], [0.0, 1.0 / a]]) @ np.array([[1.0, 0.0], [c, 1.0]])
             @ np.array([[1.0, b], [0.0, 1.0]]))
        B = P @ np.array([[0.0, s], [beta ** 2 / s, 0.0]]) @ np.linalg.inv(P)
        H[np.ix_([i, n + i], [i, n + i])] = B
    if n == 2:
        A = np.array([[1.0, 0.3], [-0.2, 1.1]])
        S = np.block([[A, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(A).T]])
        H = S @ H @ np.linalg.inv(S)
    sym = lambda M: 0.5 * (M + M.T)
    return constant_field(H[:n, :n], sym(H[n:, :n]), sym(H[:n, n:]))
