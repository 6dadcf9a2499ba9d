"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the questions of a round
are asked one after another, each after the previous answer returned.
A workload object builds its inputs from the seed (``setup``, timed as
part of ``setup_s``), computes its independent references (``references``,
untimed), asks one round of questions (``run_round``, timed) and checks
the answers (``check``, untimed).

Only the generated inputs reach hamflow: base points, the rotation angle
of the n = 2 field and the control perturbations.  The seed itself never
does.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import references as ref

OUT_DIR = Path(__file__).resolve().parent / "out"

# Nonreal spectral parameter of the Herglotz check on torus-orbit.
LAM_NONREAL = 0.5 + 1.0j
ROTATION_T = 64.0


@dataclass
class Op:
    """One question of a round: its label and what came back (the value,
    or the exception that was raised instead)."""

    label: str
    value: object = None
    error: BaseException | None = None


@dataclass
class Verdict:
    """Checks of one round: operations that raised, checks that failed on
    the answers that came back, and the relative deviations that enter
    ``accuracy_digits``."""

    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    deviations: list[float] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def ask(ops: list[Op], label: str, fn, *args, **kwargs):
    """Ask one question; a raised exception is recorded as a failed
    operation instead of ending the round."""
    op = Op(label)
    try:
        op.value = fn(*args, **kwargs)
    except Exception as exc:  # any fault of the program is a failed operation
        op.error = exc
    ops.append(op)
    return op


def tally(ops: list[Op], verdict: Verdict) -> dict[str, Op]:
    verdict.attempted += len(ops)
    for op in ops:
        if op.error is not None:
            verdict.errors.append(f"{op.label} raised {op.error!r}")
    return {op.label: op for op in ops if op.error is None}


# ---------------------------------------------------------------- autonomous-scan

class AutonomousScan:
    """`hamflow examples ex2` and `hamflow scan ex4`, called in process.

    ex2 runs its full examples pipeline.  ex4 (n = 2, so 4 x 4 QR steps)
    runs the scan: the same find_alpha_star and rho_curve bisections as
    its examples pipeline, at tol 1e-3, without the near-critical
    rho(0.995) golden, which alone took longer than the scan.  Default
    bracket: the bracket decides where the probes land, and with them
    whether one sits close enough to alpha* = 1 to come out inconclusive.
    """

    name = "autonomous-scan"
    COMMANDS = {"ex2": ["examples", "ex2"],
                "ex4": ["scan", "ex4", "--grid", "0.8,0.9", "--tol", "1e-3"]}

    def __init__(self, size: str):
        self.presets = ("ex2",) if size == "tiny" else ("ex2", "ex4")

    def setup(self, seed: int):
        from hamflow import cli  # noqa: F401  (import is part of set-up)
        return {"presets": self.presets}

    def references(self, inputs):
        # ex2 perturbed by alpha: H = [[-1, 1], [-alpha, 1]]
        def ex2_has_ed(alpha: float) -> bool:
            w = np.linalg.eigvals(np.array([[-1.0, 1.0], [-alpha, 1.0]]))
            return bool(np.all(np.abs(w.real) > 1e-12))
        return {
            "ex2_weyl": lambda lam: 1.0 - np.sqrt(complex(1.0 - lam)),
            "ex2_ed": ex2_has_ed,
            "rho": {"ex2": (lambda a: -1.0 + 1.0 / a, 1e-3),
                    "ex4": (lambda a: 1.0 / a, 1e-2)},
            "alpha_star": 1.0,
            "beta": 1.0,
        }

    def run_round(self, inputs) -> list[Op]:
        from hamflow import cli
        ops = []
        for preset in inputs["presets"]:
            out = str(OUT_DIR / f"cli-{preset}")
            ask(ops, preset, cli.main, self.COMMANDS[preset] + ["--out", out])
        return ops

    def check(self, inputs, refs, ops: list[Op]) -> Verdict:
        v = Verdict()
        done = tally(ops, v)
        for preset, op in done.items():
            v.expect(op.value == 0, f"{preset}: exit code {op.value}")
            if op.value == 0:
                self._check_files(preset, OUT_DIR / f"cli-{preset}", refs, v)
        for op in ops:
            shutil.rmtree(OUT_DIR / f"cli-{op.label}", ignore_errors=True)
        return v

    def _check_files(self, preset: str, out: Path, refs, v: Verdict) -> None:
        if preset == "ex2":
            payload = json.loads((out / "examples_ex2.json").read_text())
            scan = payload["alpha_star"]
            rho_csv = out / "examples_ex2_rho.csv"
            self._check_ex2(out, payload, refs, v)
        else:
            scan = json.loads((out / "scan.json").read_text())
            rho_csv = out / "scan_rho.csv"
        v.expect(abs(scan["alpha_star"] - refs["alpha_star"]) <= scan["alpha_uncertainty"],
                 f"{preset}: alpha* {scan['alpha_star']} +- {scan['alpha_uncertainty']}")
        law, tol = refs["rho"][preset]
        rows = _read_csv(rho_csv)
        v.expect(len(rows) > 0, f"{preset}: empty rho table")
        for row in rows:
            alpha, rho = float(row["alpha"]), float(row["rho"])
            v.expect(row["verdict"] == "ok" and abs(rho - law(alpha)) <= tol,
                     f"{preset}: rho({alpha}) = {rho}")

    def _check_ex2(self, out: Path, payload: dict, refs, v: Verdict) -> None:
        from hamflow.presets import get_preset
        beta = payload["ed"]["beta_hat"]
        v.expect(payload["ed"]["verdict"] == "ED", "ex2: base verdict")
        v.expect(abs(beta - refs["beta"]) <= 1e-3, f"ex2: beta_hat {beta} != 1")
        v.deviations.append(ref.rel_dev(beta, refs["beta"]))
        rows = _read_csv(out / "examples_ex2_weyl.csv")
        v.expect(len(rows) > 0, "ex2: empty Weyl table")
        for row in rows:
            lam = float(row["lambda"])
            got = complex(float(row["M_plus_re"]), float(row["M_plus_im"]))
            dev = ref.rel_dev(got, refs["ex2_weyl"](lam))
            v.deviations.append(dev)
            v.expect(dev <= 1e-9, f"ex2: M+({lam}) = {got}")
        # The JSON records only whether each ED(alpha) verdict matched the
        # preset's expectation; recover the verdict, then judge it by the
        # eigenvalues.
        expected = dict(get_preset("ex2").ed_verdicts)
        for d in payload["golden_diffs"]:
            if not d["label"].startswith("ED("):
                continue
            alpha = float(d["label"][3:-1])
            got_ed = expected[alpha] if d["deviation"] == 0.0 else not expected[alpha]
            v.expect(got_ed == refs["ex2_ed"](alpha), f"ex2: ED({alpha}) = {got_ed}")


def _read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------- torus-orbit

def rotated_pair_field(angle: float) -> dict:
    """Problem-file dict of the n = 2 torus field P (torus-demo (+)
    SECOND_SCALAR) P^T, P the rotation by ``angle``, with Delta = I."""
    P = ref.rotation(angle)
    data = {"name": "rotated-pair", "n": 2,
            "flow": {"kind": "torus", "nu": list(ref.GOLDEN_NU)},
            "Delta": np.eye(2).tolist()}
    for block in ("H1", "H2", "H3"):
        a, b = ref.TORUS_DEMO[block], ref.SECOND_SCALAR[block]
        terms = []
        for k in sorted(set(a) | set(b)):
            ca, sa = a.get(k, (0.0, 0.0))
            cb, sb = b.get(k, (0.0, 0.0))
            terms.append({"k": list(k),
                          "cos": (P @ np.diag([ca, cb]) @ P.T).tolist(),
                          "sin": (P @ np.diag([sa, sb]) @ P.T).tolist()})
        data[block] = terms
    return data


class TorusOrbit:
    """Dichotomy, Weyl functions and rotation number at a seeded base point
    of torus-demo and at one of a rotated n = 2 field.  One scalar point,
    not a few: with two, a round took up to 27 s on a slow machine, and
    the 92 runs of a comparison must fit within 3420 s."""

    name = "torus-orbit"

    def __init__(self, size: str):
        self.rotation_T = 16.0 if size == "tiny" else ROTATION_T

    def setup(self, seed: int):
        from hamflow import BasePoint, field_from_dict
        from hamflow.presets import get_preset
        rng = np.random.default_rng(seed)
        scalar = get_preset("torus-demo").field
        points = [("torus-demo", scalar, BasePoint(tuple(rng.uniform(0.0, 1.0, 2))))]
        angle = float(rng.uniform(0.0, math.pi))
        pair = field_from_dict(rotated_pair_field(angle))
        points.append(("rotated-pair", pair, BasePoint(tuple(rng.uniform(0.0, 1.0, 2)))))
        return {"points": points, "angle": angle}

    def references(self, inputs):
        cache = {}

        def weyl(i: int, lam: complex, side: str, t_at: float = 0.0):
            key = (i, lam, side, t_at)
            if key not in cache:
                kind, _, omega = inputs["points"][i]
                w = omega.coordinates
                if kind == "torus-demo":
                    cache[key] = np.array([[ref.riccati_scalar(
                        ref.TORUS_DEMO, w, lam, side, t_at)]])
                else:
                    cache[key] = ref.riccati_rotated_pair(
                        inputs["angle"], w, lam, side, t_at)
            return cache[key]
        return weyl

    def run_round(self, inputs) -> list[Op]:
        from hamflow import detect_ed, rotation_number, weyl_minus, weyl_plus
        ops = []
        for i, (_, fld, omega) in enumerate(inputs["points"]):
            ask(ops, f"{i}:detect_ed", detect_ed, fld, omega)
            ask(ops, f"{i}:M+", weyl_plus, fld, omega, lam=0.0)
            ask(ops, f"{i}:M-", weyl_minus, fld, omega, lam=0.0)
            ask(ops, f"{i}:M+nonreal", weyl_plus, fld, omega, lam=LAM_NONREAL)
            ask(ops, f"{i}:rotation", rotation_number, fld, omega, T=self.rotation_T)
        return ops

    def check(self, inputs, weyl, ops: list[Op]) -> Verdict:
        v = Verdict()
        done = tally(ops, v)
        for i in range(len(inputs["points"])):
            rep = done.get(f"{i}:detect_ed")
            if rep is not None:
                v.expect(rep.value.verdict == "ED", f"{i}: verdict {rep.value.verdict}")
            for label, lam, side in (("M+", 0.0, "plus"), ("M-", 0.0, "minus"),
                                     ("M+nonreal", LAM_NONREAL, "plus")):
                op = done.get(f"{i}:{label}")
                if op is None:
                    continue
                dev = ref.rel_dev(op.value.M, weyl(i, lam, side))
                v.deviations.append(dev)
                v.expect(dev <= 1e-7, f"{i}: {label} deviates by {dev:.3g}")
            op = done.get(f"{i}:M+nonreal")
            if op is not None:
                v.expect(op.value.imag_min_eig() > 0.0, f"{i}: Im M+ not positive")
            op = done.get(f"{i}:rotation")
            if op is not None:
                est = op.value
                want = ref.rotation_identity(weyl(i, 0.0, "minus", est.T_used))
                dev = abs(est.value * est.T_used - want) / est.T_used
                v.deviations.append(dev / max(1.0, abs(want) / est.T_used))
                v.expect(dev * est.T_used <= 1e-8,
                         f"{i}: rotation * T = {est.value * est.T_used}, want {want}")
        return v


# ---------------------------------------------------------------- periodic-lq

PERIOD = 4.0
N_PERTURBATIONS = 4


def lq_blocks(t: float):
    """Closed-form Hamiltonian blocks of the periodic LQ problem
    A = -0.5 + 0.3 cos(2 pi t / 4), B = G = R = 1: H1 = A, H2 = G,
    H3 = B R^-1 B^T."""
    a = -0.5 + 0.3 * math.cos(2.0 * math.pi * t / PERIOD)
    return np.array([[a]]), np.array([[1.0]]), np.array([[1.0]])


class PeriodicLQ:
    """`synthesize` on a periodic scalar LQ problem, then the cost of a
    few seeded perturbations of the synthesized control."""

    name = "periodic-lq"

    def __init__(self, size: str):
        self.T_report = 8.0 if size == "tiny" else 20.0
        self.n_perturbations = 1 if size == "tiny" else N_PERTURBATIONS

    def setup(self, seed: int):
        from hamflow import BlockMap, LQProblem, make_flow
        from hamflow.hamiltonian import TrigTerm
        flow = make_flow({"kind": "periodic", "period": PERIOD})
        A = BlockMap(n=1, const=np.array([[-0.5]]),
                     terms=(TrigTerm(k=(1,), cos=np.array([[0.3]]), sin=None),))
        problem = LQProblem.from_data(A, [[1.0]], [[1.0]], x0=[1.0], flow=flow)
        rng = np.random.default_rng(seed)
        perturbations = [(float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.3, 2.0)))
                         for _ in range(self.n_perturbations)]
        return {"problem": problem, "perturbations": perturbations}

    def references(self, inputs):
        M = ref.floquet_weyl_plus(lq_blocks, PERIOD, 1)
        x0 = inputs["problem"].x0
        return {"M_plus": M, "value": float(-0.5 * x0 @ M @ x0)}

    def run_round(self, inputs) -> list[Op]:
        from hamflow import compare_control, synthesize
        problem = inputs["problem"]
        ops = []
        sol = ask(ops, "synthesize", synthesize, problem, T_report=self.T_report)
        for j, (a, w) in enumerate(inputs["perturbations"]):
            def du(t, a=a, w=w):
                return a * math.sin(w * t) * math.exp(-0.3 * t)
            if sol.error is None:
                ask(ops, f"compare:{j}", compare_control, problem, sol.value, du)
            else:
                ops.append(Op(f"compare:{j}", error=sol.error))
        return ops

    def check(self, inputs, refs, ops: list[Op]) -> Verdict:
        v = Verdict()
        done = tally(ops, v)
        op = done.get("synthesize")
        if op is None:
            return v
        s = op.value
        v.expect(s.feasible, "synthesize: not feasible")
        v.expect(s.state_residual <= 1e-6, f"state residual {s.state_residual:.3g}")
        dev = ref.rel_dev(s.M_plus.M, refs["M_plus"])
        v.deviations.append(dev)
        v.expect(dev <= 1e-8, f"M+(0) deviates by {dev:.3g}")
        dev = ref.rel_dev(s.closed_form_value(), refs["value"])
        v.deviations.append(dev)
        v.expect(dev <= 1e-10, f"closed_form_value deviates by {dev:.3g}")
        # The quadrature value enters the accuracy but is not gated: its
        # M+ interpolation is known to be off in the 7th digit.
        v.deviations.append(ref.rel_dev(s.value, refs["value"]))
        for label, cop in done.items():
            if label.startswith("compare:"):
                v.expect(cop.value >= s.value - 1e-8,
                         f"{label}: perturbed cost {cop.value} below the optimum {s.value}")
        return v


# ---------------------------------------------------------------- classify

class Classify:
    """O1/O2 classification and the Atkinson check on `abnormal` and `ex3`."""

    name = "classify"

    def __init__(self, size: str):
        self.classify_abnormal = size != "tiny"

    def setup(self, seed: int):
        from hamflow.presets import get_preset
        return {"abnormal": get_preset("abnormal").field, "ex3": get_preset("ex3").field}

    def references(self, inputs):
        # ex3 under H3 -> H3 + lam: H = [[0, 1 + lam], [1, 0]], eig +-sqrt(1 + lam)
        def ex3_beta(lam: complex) -> float:
            w = np.linalg.eigvals(np.array([[0.0, 1.0 + lam], [1.0, 0.0]]))
            return float(np.min(np.abs(w.real)))
        return {"ex3_beta": ex3_beta}

    def run_round(self, inputs) -> list[Op]:
        from hamflow import atkinson_check, classify_family
        ops = []
        if self.classify_abnormal:
            ask(ops, "classify:abnormal", classify_family, inputs["abnormal"])
        ask(ops, "classify:ex3", classify_family, inputs["ex3"])
        ask(ops, "atkinson:abnormal", atkinson_check, inputs["abnormal"])
        ask(ops, "atkinson:ex3", atkinson_check, inputs["ex3"])
        return ops

    def check(self, inputs, refs, ops: list[Op]) -> Verdict:
        v = Verdict()
        done = tally(ops, v)
        op = done.get("classify:abnormal")
        if op is not None:
            rep = op.value
            v.expect(rep.alternative == "O2", f"abnormal: {rep.alternative}")
            v.expect(all(r["ed"] == "noED" for r in rep.probe_results),
                     "abnormal: a probe is not noED")
            w = rep.witness
            ok = (w is not None and w.z0 is not None
                  and abs(w.z0[1]) <= 1e-12 * np.linalg.norm(w.z0)
                  and w.shape_residual == 0.0)
            v.expect(ok, "abnormal: witness is not a multiple of (1, 0) "
                         "with zero shape residual")
        op = done.get("classify:ex3")
        if op is not None:
            rep = op.value
            v.expect(rep.alternative == "O1", f"ex3: {rep.alternative}")
            for r in rep.probe_results:
                v.expect(r["ed"] == "ED", f"ex3: probe {r['lam']} is {r['ed']}")
                dev = ref.rel_dev(r["beta_hat"], refs["ex3_beta"](r["lam"]))
                v.deviations.append(dev)
                v.expect(dev <= 1e-5, f"ex3: beta_hat at {r['lam']} deviates by {dev:.3g}")
        op = done.get("atkinson:abnormal")
        if op is not None:
            v.expect(op.value.satisfied is False,
                     f"atkinson(abnormal) = {op.value.satisfied}")
        op = done.get("atkinson:ex3")
        if op is not None:
            v.expect(op.value.satisfied is True, f"atkinson(ex3) = {op.value.satisfied}")
        return v


WORKLOADS = {w.name: w for w in (AutonomousScan, TorusOrbit, PeriodicLQ, Classify)}
