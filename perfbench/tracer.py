"""Per-module spans and counters for the traced run, from outside hamflow.

The tracer wraps hamflow's functions where their callers look them up:
``from .propagator import _positive_qr`` binds the name separately in
each importing module, so every module attribute that *is* the original
function is rebound to the wrapper.  Methods are wrapped on their class.
``solve_ivp`` gets one wrapper per importing module, which attributes
integrator time to the module that called it.

Every wrapped call adds to a call count, an inclusive time and the self
time of its layer (its duration minus the time spent in wrapped calls
beneath it).  Calls at layer boundaries also record a span (name, start,
end, parent, root); the hot leaves (coefficient evaluation, base-flow
steps, QR steps, chunk lookups) only count, since they run hundreds of
thousands of times per round.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("base_flow", "hamiltonian", "propagator", "riccati_weyl", "dichotomy",
          "rotation", "param_scan", "lq_control", "cli", "integrator", "bench")
INTEGRATOR_CALLERS = ("propagator", "dichotomy", "rotation", "riccati_weyl", "lq_control")


class Tracer:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        self.spans: list[tuple | None] = []
        # frames: [time in wrapped children, id of the innermost span, root id]
        self._stack: list[list] = []

    def reset(self) -> None:
        """Forget what was recorded; the wrappers stay installed."""
        for record in (self.calls, self.incl, self.self_s, self.extra, self.spans):
            record.clear()

    # ------------------------------------------------------------ recording

    def wrap(self, fn, key: str, layer: str, span: bool = True, after=None):
        """``fn`` counted and timed under ``key``, its self time charged to
        ``layer``; ``after(result, args, kwargs)`` may count more."""
        stack, spans = self._stack, self.spans
        calls, incl, self_s = self.calls, self.incl, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack:
                _, parent_sid, root = stack[-1]
            else:
                parent_sid = root = None
            sid = parent_sid
            if span:
                sid = len(spans)
                spans.append(None)
                if root is None:
                    root = sid
            frame = [0.0, sid, root]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                calls[key] += 1
                incl[key] += dt
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span:
                    spans[sid] = (sid, key, t0, t1, parent_sid, root)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ patching

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for mod in _hamflow_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _function(self, module, attr, key, layer, span=True, after=None):
        original = getattr(sys.modules[f"hamflow.{module}"], attr)
        self._rebind(original, self.wrap(original, key, layer, span, after))

    def _method(self, cls, attr, key, layer, span=True, after=None):
        self._set(cls, attr, self.wrap(cls.__dict__[attr], key, layer, span, after))

    def install(self) -> None:
        """Wrap hamflow's layer boundaries.  hamflow must be imported."""
        import hamflow.cli  # noqa: F401  (the CLI module is a traced layer)
        from hamflow.hamiltonian import CoefficientField
        from hamflow.propagator import ChunkedPropagator

        x = self.extra

        def add(name, value):
            def after(result, args, kwargs):
                x[name] += value(result, args)
            return after

        def detect_after(rep, args, kwargs):
            x["dichotomy.horizons"] += sum(len(s.margin_history) for s in rep.samples)
            x["dichotomy.inconclusive"] += rep.verdict == "inconclusive"

        def weyl_after(W, args, kwargs):
            if math.isfinite(W.T_used):
                x["riccati_weyl.T_used_sum"] += W.T_used

        def probe_after(result, args, kwargs):
            x["param_scan.probes_resolved"] += result is not None

        F = self._function
        F("base_flow", "advance", "base_flow.advance", "base_flow", span=False)
        F("base_flow", "make_flow", "base_flow.make_flow", "base_flow")
        F("propagator", "_positive_qr", "propagator.qr", "propagator", span=False)
        F("propagator", "transfer_matrix", "propagator.transfer_matrix", "propagator",
          span=False)
        self._set(sys.modules["hamflow.propagator"], "expm", self.wrap(
            sys.modules["hamflow.propagator"].expm, "propagator.expm", "propagator",
            span=False))
        F("riccati_weyl", "weyl_plus", "riccati_weyl.weyl", "riccati_weyl",
          after=weyl_after)
        F("riccati_weyl", "weyl_minus", "riccati_weyl.weyl", "riccati_weyl",
          after=weyl_after)
        F("riccati_weyl", "_limit_plane", "riccati_weyl.limit_plane", "riccati_weyl")
        F("dichotomy", "detect_ed", "dichotomy.detect_ed", "dichotomy", after=detect_after)
        F("dichotomy", "uwd_test", "dichotomy.uwd_test", "dichotomy")
        F("dichotomy", "atkinson_check", "dichotomy.atkinson_check", "dichotomy")
        F("dichotomy", "bounded_solution_witness", "dichotomy.witness", "dichotomy")
        F("dichotomy", "classify_family", "dichotomy.classify_family", "dichotomy")
        F("rotation", "rotation_number", "rotation.rotation_number", "rotation",
          after=add("rotation.unwrap_steps", lambda est, a: est.unwrap_steps))
        F("param_scan", "find_alpha_star", "param_scan.find_alpha_star", "param_scan")
        F("param_scan", "rho_curve", "param_scan.rho_curve", "param_scan")
        F("param_scan", "_ed_nc_predicate", "param_scan.probe", "param_scan",
          after=probe_after)
        F("param_scan", "_ed_uwd_predicate", "param_scan.probe", "param_scan",
          after=probe_after)
        F("lq_control", "synthesize", "lq_control.synthesize", "lq_control")
        F("lq_control", "solvability_check", "lq_control.solvability_check", "lq_control")
        F("lq_control", "compare_control", "lq_control.compare_control", "lq_control")
        F("cli", "main", "cli.command", "cli")
        F("cli", "_write_csv", "cli.write", "cli")
        F("cli", "_write_json", "cli.write", "cli")

        M = self._method
        M(CoefficientField, "eval_blocks", "hamiltonian.eval_blocks", "hamiltonian",
          span=False)
        wrap, original_H_of_t = self.wrap, CoefficientField.__dict__["H_of_t"]

        def H_of_t(field, omega):
            # H_of_t builds the closure t -> H(omega . t); the evaluations
            # are calls of that closure.
            return wrap(original_H_of_t(field, omega), "hamiltonian.H", "hamiltonian",
                        span=False)
        self._set(CoefficientField, "H_of_t", H_of_t)
        M(ChunkedPropagator, "frame_chain", "propagator.frame_chain", "propagator",
          after=add("propagator.frame_chain_chunks", lambda r, a: len(a[2])))
        M(ChunkedPropagator, "qr_exponents", "propagator.qr_exponents", "propagator",
          after=add("propagator.qr_exponents_chunks",
                      lambda r, a: max(1, int(round(a[1] / a[0].h)))))
        for attr, cache in (("forward", "_fwd"), ("backward", "_bwd")):
            self._chunk_lookup(ChunkedPropagator, attr, cache)

        for caller in INTEGRATOR_CALLERS:
            mod = sys.modules[f"hamflow.{caller}"]
            if hasattr(mod, "solve_ivp"):
                self._set(mod, "solve_ivp", self.wrap(
                    mod.solve_ivp, f"integrator.{caller}", "integrator",
                    after=add("integrator.rhs_evals", lambda sol, a: sol.nfev)))

    def _chunk_lookup(self, cls, attr: str, cache: str) -> None:
        """A chunk request is a miss when it had to compute the chunk."""
        inner = self.wrap(cls.__dict__[attr], "propagator.chunk", "propagator", span=False)
        x = self.extra

        def lookup(prop, k):
            x["propagator.chunk_misses"] += k not in getattr(prop, cache)
            return inner(prop, k)
        self._set(cls, attr, lookup)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ reporting

    def metrics(self) -> dict[str, float]:
        c, t, x = self.calls, self.incl, self.extra
        integ = [f"integrator.{m}" for m in INTEGRATOR_CALLERS]
        probes = c["param_scan.probe"]
        requests = c["propagator.chunk"]
        out = {
            "propagator.qr_calls": c["propagator.qr"],
            "propagator.qr_s": t["propagator.qr"],
            "propagator.qr_exponents_calls": c["propagator.qr_exponents"],
            "propagator.qr_exponents_chunks": x["propagator.qr_exponents_chunks"],
            "propagator.qr_exponents_s": t["propagator.qr_exponents"],
            "propagator.frame_chain_calls": c["propagator.frame_chain"],
            "propagator.frame_chain_chunks": x["propagator.frame_chain_chunks"],
            "propagator.frame_chain_s": t["propagator.frame_chain"],
            "param_scan.probes": probes,
            "param_scan.probes_resolved_ratio":
                x["param_scan.probes_resolved"] / probes if probes else 0.0,
            "param_scan.find_alpha_star_s": t["param_scan.find_alpha_star"],
            "param_scan.rho_curve_s": t["param_scan.rho_curve"],
            "dichotomy.detect_ed_calls": c["dichotomy.detect_ed"],
            "dichotomy.detect_ed_s": t["dichotomy.detect_ed"],
            "dichotomy.horizons": x["dichotomy.horizons"],
            "dichotomy.inconclusive": x["dichotomy.inconclusive"],
            "hamiltonian.H_evals": c["hamiltonian.H"],
            "hamiltonian.H_s": t["hamiltonian.H"],
            "hamiltonian.eval_blocks_calls": c["hamiltonian.eval_blocks"],
            "hamiltonian.eval_blocks_s": t["hamiltonian.eval_blocks"],
            "base_flow.advance_calls": c["base_flow.advance"],
            "base_flow.make_flow_s": t["base_flow.make_flow"],
            "integrator.calls": sum(c[k] for k in integ),
            "integrator.rhs_evals": x["integrator.rhs_evals"],
            "integrator.s": sum(t[k] for k in integ),
            **{f"integrator.s.{m}": t[f"integrator.{m}"] for m in INTEGRATOR_CALLERS},
            "propagator.transfer_matrix_calls": c["propagator.transfer_matrix"],
            "propagator.transfer_matrix_s": t["propagator.transfer_matrix"],
            "propagator.expm_calls": c["propagator.expm"],
            "propagator.chunk_requests": requests,
            "propagator.chunk_misses": x["propagator.chunk_misses"],
            "propagator.chunk_hit_ratio":
                1.0 - x["propagator.chunk_misses"] / requests if requests else 0.0,
            "riccati_weyl.weyl_calls": c["riccati_weyl.weyl"],
            "riccati_weyl.weyl_frame_calls": c["riccati_weyl.limit_plane"],
            "riccati_weyl.weyl_s": t["riccati_weyl.weyl"],
            "riccati_weyl.T_used_sum": x["riccati_weyl.T_used_sum"],
            "lq_control.synthesize_s": t["lq_control.synthesize"],
            "lq_control.solvability_check_s": t["lq_control.solvability_check"],
            "lq_control.compare_control_s": t["lq_control.compare_control"],
            "dichotomy.atkinson_check_s": t["dichotomy.atkinson_check"],
            "dichotomy.witness_s": t["dichotomy.witness"],
            "dichotomy.classify_family_s": t["dichotomy.classify_family"],
            "dichotomy.uwd_test_s": t["dichotomy.uwd_test"],
            "dichotomy.uwd_test_calls": c["dichotomy.uwd_test"],
            "rotation.rotation_number_calls": c["rotation.rotation_number"],
            "rotation.rotation_number_s": t["rotation.rotation_number"],
            "rotation.unwrap_steps": x["rotation.unwrap_steps"],
            "cli.command_s": t["cli.command"],
            "cli.write_s": t["cli.write"],
            **{f"{layer}.self_s": self.self_s[layer] for layer in LAYERS},
        }
        return {k: float(v) for k, v in out.items()}

    def dump(self, path, extra: dict) -> None:
        spans = [s for s in self.spans if s is not None]
        body = {**extra,
                "span_fields": ["id", "name", "start", "end", "parent", "root"],
                "spans": spans,
                "calls": dict(self.calls)}
        path.write_text(json.dumps(body) + "\n")


def _hamflow_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hamflow" or name.startswith("hamflow."))]
