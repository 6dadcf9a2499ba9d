"""Command-line front end.

Subcommands dispatch one toolkit operation each and write deterministic
CSV/JSON results: CSV bodies are byte-identical across runs with the
same config, timestamps live only in `#` header comments, and
every output embeds the run configuration and toolkit version.

Exit codes: 0 success, 2 mathematically inconclusive (detector or scan
could not decide at the configured tolerance), 1 error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._json import Encodable, jsonable
from .dichotomy import classify_family, detect_ed
from .base_flow import make_flow
from .errors import GoldenMismatch, SchemaError, ToolkitError, WeylNonexistence
from .hamiltonian import CoefficientField, _block_from_json, field_from_dict, perturb_h2
from .lq_control import LQProblem, synthesize
from .param_scan import (
    find_alpha_star,
    herglotz_fit,
    rho_curve,
    stieltjes_invert,
    weyl_sampler,
)
from .presets import PRESET_NAMES, get_preset, scalar_lq_problem
from .riccati_weyl import principal_functions, weyl_minus, weyl_plus
from .rotation import rotation_number, rotation_profile

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


@dataclass(frozen=True)
class RunConfig(Encodable):
    command: str
    input: str
    out: str
    tol: float
    grid: tuple[float, ...]
    T: float
    bracket: tuple[float, float]
    jobs: int

    def __post_init__(self):
        if not (0.0 < self.tol < np.inf and 0.0 < self.T < np.inf):
            raise ToolkitError("tolerances and horizons must be positive and finite")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip() != "")


def _load_field(spec: str) -> CoefficientField:
    if spec in PRESET_NAMES:
        return get_preset(spec).field
    with open(spec) as fh:
        return field_from_dict(json.load(fh))


def _load_lq(spec: str) -> LQProblem:
    if spec == "lq-scalar":
        return scalar_lq_problem()
    with open(spec) as fh:
        data = json.load(fh)
    missing = [key for key in ("A", "B", "G") if key not in data]
    if missing:
        raise SchemaError(f"LQ problem file missing {', '.join(missing)}")
    try:
        B = np.atleast_2d(np.asarray(data["B"], dtype=float))
    except (TypeError, ValueError) as e:
        raise SchemaError("LQ problem file: 'B' must be a numeric matrix") from e
    flow = make_flow(data.get("flow", "autonomous"))
    n = B.shape[0]
    A, G = (_block_from_json(data[key], n, flow.dim) for key in ("A", "G"))
    return LQProblem.from_data(
        A=A, B=B, G=G, g=data.get("g"), R=data.get("R"), x0=data.get("x0"),
        flow=flow,
    )


def _fmt(x) -> str:
    if isinstance(x, float) and not np.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return "%.12g" % x


def _write_csv(path: Path, cfg: RunConfig, columns: list[str], rows) -> None:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    lines = [
        f"# generated {stamp}",
        f"# version {__version__}",
        f"# config {json.dumps(cfg.to_dict(), sort_keys=True)}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float)) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    out = jsonable({"version": __version__, "config": cfg, **payload})
    path.write_text(json.dumps(out, sort_keys=True, indent=2) + "\n")


def _outdir(cfg: RunConfig) -> Path:
    d = Path(cfg.out)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _pmap(fn, items, jobs: int):
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _weyl_task(args):
    field, lam, tol = args
    try:
        Wp = weyl_plus(field, lam=lam, tol=tol)
        plus = (Wp.M, Wp.convergence_error)
    except WeylNonexistence:
        plus = None
    try:
        Wm = weyl_minus(field, lam=lam, tol=tol)
        minus = (Wm.M, Wm.convergence_error)
    except WeylNonexistence:
        minus = None
    return plus, minus


def _rho_task(args):
    field, alpha, bracket, tol = args
    res = rho_curve(field, alpha_grid=[alpha], eps_bracket=bracket, tol=tol,
                    T_max=1024.0)
    return res.rho_table[0]


def cmd_examples(cfg: RunConfig) -> int:
    """Full pipeline on a named preset, diffed against the frozen
    reference numbers."""
    preset = get_preset(cfg.input)
    field = preset.field
    checks: list[tuple[str, float, float, float]] = []
    inconclusive = False

    rep = detect_ed(field, T_max=2 * cfg.T)
    base_ed = {"verdict": rep.verdict, "beta_hat": rep.beta_hat,
               "eta_hat": rep.eta_hat}
    if rep.verdict == "inconclusive":
        inconclusive = True

    weyl_rows = []
    for lam in preset.weyl_lambdas:
        family = None if lam == 0.0 else "H2"
        W = weyl_plus(field, lam=lam, family=family)
        got = complex(W.M[0, 0]) if field.n == 1 else np.nan
        if preset.weyl_plus_law is not None and field.n == 1:
            want = complex(preset.weyl_plus_law(lam))
            checks.append((f"M_plus({lam:g})", abs(got - want), 0.0, 1e-6))
        if preset.weyl_minus_law is not None and field.n == 1:
            got_minus = complex(weyl_minus(field, lam=lam, family=family).M[0, 0])
            want = complex(preset.weyl_minus_law(lam))
            checks.append((f"M_minus({lam:g})", abs(got_minus - want), 0.0, 1e-6))
        weyl_rows.append((lam, got.real, got.imag, W.convergence_error))
    m_minus_note = ""
    if not preset.m_minus_exists:
        try:
            weyl_minus(field, lam=0.0, family=None)
            checks.append(("M_minus nonexistence", 1.0, 0.0, 0.5))
            m_minus_note = "unexpectedly exists"
        except WeylNonexistence:
            m_minus_note = "nonexistent as expected"

    rot_rows = []
    if preset.rotation_alphas:
        prof = rotation_profile(
            field, alpha_grid=list(preset.rotation_alphas), tol=min(cfg.tol, 1e-3)
        )
        for (a, v, eb, Tu) in prof.rows():
            rot_rows.append((a, v, eb, Tu))
            if preset.rotation_law is not None:
                checks.append((f"rotation({a:g})",
                               abs(v - preset.rotation_law(a)), 0.0, 1e-3))

    alpha_star_payload = None
    if preset.alpha_star is not None:
        res = find_alpha_star(field, alpha_bracket=cfg.bracket,
                              tol=preset.alpha_star_tol)
        alpha_star_payload = res.to_dict()
        if "widened_by_inconclusive" in res.flags:
            inconclusive = True
        if np.isinf(preset.alpha_star):
            ok = np.isinf(res.alpha_star) and "bracket_exhausted" in res.flags
            checks.append(("alpha_star capped +inf", 0.0 if ok else 1.0, 0.0, 0.5))
        else:
            checks.append(("alpha_star", abs(res.alpha_star - preset.alpha_star),
                           0.0, preset.alpha_star_tol))

    rho_table: tuple[dict, ...] = ()
    if preset.rho_alphas:
        rho_table = rho_curve(field, alpha_grid=list(preset.rho_alphas),
                              eps_bracket=(1e-4, cfg.bracket[1]), tol=2e-4,
                              T_max=1024.0).rho_table
        for row in rho_table:
            if row["verdict"] == "widened":
                inconclusive = True
            if preset.rho_law is not None:
                want = preset.rho_law(row["alpha"])
                if np.isinf(want):
                    ok = np.isinf(row["rho"])
                    checks.append((f"rho({row['alpha']:g}) capped", 0.0 if ok else 1.0,
                                   0.0, 0.5))
                else:
                    checks.append((f"rho({row['alpha']:g})",
                                   abs(row["rho"] - want), 0.0, preset.rho_tol))

    for (a, want_ed) in preset.ed_verdicts:
        r = detect_ed(perturb_h2(field, a), T_max=2 * cfg.T)
        got_ed = r.verdict == "ED"
        if r.verdict == "inconclusive":
            inconclusive = True
        checks.append((f"ED({a:g})", 0.0 if got_ed == want_ed else 1.0, 0.0, 0.5))

    for gv in preset.extra_golden:
        val = _extra_value(gv.label, field)
        checks.append((gv.label, abs(val - gv.want), 0.0, gv.tol))

    outdir = _outdir(cfg)
    _write_csv(outdir / f"examples_{preset.name}_weyl.csv", cfg,
               ["lambda", "M_plus_re", "M_plus_im", "convergence_error"],
               weyl_rows)
    if rot_rows:
        _write_csv(outdir / f"examples_{preset.name}_rotation.csv", cfg,
                   ["alpha", "value", "error_bar", "T_used"], rot_rows)
    if rho_table:
        _write_csv(outdir / f"examples_{preset.name}_rho.csv", cfg,
                   ["alpha", "rho", "verdict"],
                   [(r["alpha"], r["rho"], r["verdict"]) for r in rho_table])
    diff_table = [
        {"label": lbl, "deviation": dev, "tol": tol, "passed": dev <= tol}
        for (lbl, dev, _, tol) in checks
    ]
    payload = {
        "preset": preset.name,
        "ed": base_ed,
        "alpha_star": alpha_star_payload,
        "rho_table": rho_table,
        "m_minus": m_minus_note,
        "golden_diffs": diff_table,
        "all_passed": all(d["passed"] for d in diff_table),
    }
    _write_json(outdir / f"examples_{preset.name}.json", cfg, payload)
    failed = [d for d in diff_table if not d["passed"]]
    if failed:
        table = "\n".join(
            "  %-28s deviation %.3e tol %.1e" % (d["label"], d["deviation"], d["tol"])
            for d in failed
        )
        raise GoldenMismatch(
            f"{len(failed)} golden check(s) failed:\n{table}",
            [(d["label"], d["deviation"], 0.0, d["tol"]) for d in failed],
        )
    print(f"{preset.name}: {len(diff_table)} golden checks passed")
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def _extra_value(label: str, field: CoefficientField) -> float:
    if label.startswith("stieltjes_mass"):
        a1, a2 = (float(x) for x in label[len("stieltjes_mass("):-1].split(","))
        m = stieltjes_invert(weyl_sampler(field), a1, a2)
        return float(m.mass[0, 0])
    if label in ("N_plus", "N_minus"):
        Np, Nm = principal_functions(field)
        W = Np if label == "N_plus" else Nm
        return float(np.real(W.M[0, 0]))
    if label == "rho0":
        res = rho_curve(field, alpha_grid=[0.995], eps_bracket=(1e-4, 1e3),
                        tol=2e-4, T_max=1024.0)
        return float(res.rho_table[0]["rho"])
    raise ToolkitError(f"unknown golden label {label!r}")


def cmd_scan(cfg: RunConfig) -> int:
    field = _load_field(cfg.input)
    res = find_alpha_star(field, alpha_bracket=cfg.bracket, tol=cfg.tol)
    inconclusive = "widened_by_inconclusive" in res.flags
    rows = []
    if cfg.grid:
        tasks = [(field, a, (1e-4, cfg.bracket[1]), cfg.tol) for a in cfg.grid]
        rows = _pmap(_rho_task, tasks, cfg.jobs)
        rows.sort(key=lambda r: r["alpha"])
        inconclusive = inconclusive or any(r["verdict"] == "widened" for r in rows)
    outdir = _outdir(cfg)
    _write_json(outdir / "scan.json", cfg,
                {**res.to_dict(), "rho_table": rows})
    _write_csv(outdir / "scan_rho.csv", cfg, ["alpha", "rho", "verdict"],
               [(r["alpha"], r["rho"], r["verdict"]) for r in rows])
    print(f"alpha_star = {res.alpha_star:g} (flags: {', '.join(res.flags) or 'none'})"
          + (f"; rho at {len(rows)} points" if rows else ""))
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def cmd_weyl(cfg: RunConfig) -> int:
    field = _load_field(cfg.input)
    lams = cfg.grid or (0.0,)
    results = _pmap(_weyl_task, [(field, lam, cfg.tol) for lam in lams], cfg.jobs)
    rows = []
    for lam, (plus, minus) in zip(lams, results):
        for role, item in (("M+", plus), ("M-", minus)):
            if item is None:
                rows.append((lam, role, "nonexistent", "", ""))
            else:
                M, err = item
                rows.append((lam, role, _fmt(float(np.real(M[0, 0]))) if field.n == 1
                             else json.dumps(np.real(M).tolist()),
                             _fmt(float(np.imag(M[0, 0]))) if field.n == 1
                             else json.dumps(np.imag(M).tolist()),
                             _fmt(err)))
    outdir = _outdir(cfg)
    _write_csv(outdir / "weyl.csv", cfg,
               ["lambda", "role", "value_re", "value_im", "convergence_error"],
               rows)
    print(f"Weyl table at {len(lams)} spectral points written")
    return EXIT_OK


def cmd_rotation(cfg: RunConfig) -> int:
    field = _load_field(cfg.input)
    if cfg.grid:
        prof = rotation_profile(field, alpha_grid=list(cfg.grid), T=cfg.T,
                                tol=cfg.tol)
        rows = list(prof.rows())
        payload = {"monotonicity_defect": prof.monotonicity_defect,
                   "n_points": len(rows)}
    else:
        est = rotation_number(field, T=cfg.T, tol=cfg.tol)
        rows = [(0.0, est.value, est.error_bar, est.T_used)]
        payload = {"n_points": 1}
    outdir = _outdir(cfg)
    _write_csv(outdir / "rotation.csv", cfg,
               ["alpha", "value", "error_bar", "T_used"], rows)
    _write_json(outdir / "rotation.json", cfg, payload)
    print(f"rotation profile at {len(rows)} point(s) written")
    return EXIT_OK


def cmd_classify(cfg: RunConfig) -> int:
    field = _load_field(cfg.input)
    rep = classify_family(field, which="H3")
    outdir = _outdir(cfg)
    _write_json(outdir / "classify.json", cfg, rep.to_dict())
    print(f"alternative: {rep.alternative}")
    return EXIT_INCONCLUSIVE if rep.alternative == "undetermined" else EXIT_OK


def cmd_lq(cfg: RunConfig) -> int:
    problem = _load_lq(cfg.input)
    sol = synthesize(problem, T_report=cfg.T, tol=cfg.tol)
    outdir = _outdir(cfg)
    n, m = problem.n, problem.m
    cols = (["t"] + [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)]
            + [f"u{i+1}" for i in range(m)] + ["Q"])
    _write_csv(outdir / "lq_trajectory.csv", cfg, cols, sol.csv_rows())
    _write_json(outdir / "lq.json", cfg, sol.to_dict())
    print(f"J = {sol.value:.10g} (+/- {sol.truncation_bound:.2g} truncation)")
    return EXIT_OK


def cmd_herglotz(cfg: RunConfig) -> int:
    field = _load_field(cfg.input)
    sampler = weyl_sampler(field, tol=cfg.tol)
    window = cfg.bracket
    data = herglotz_fit(sampler, alpha_window=(window,))
    outdir = _outdir(cfg)
    _write_json(outdir / "herglotz.json", cfg, data.to_dict())
    mass = data.measure_samples[0].mass
    print(f"L = {_fmt(float(data.L[0, 0]))}, K = {_fmt(float(data.K[0, 0]))}, "
          f"mass{window} = {_fmt(float(np.real(mass[0, 0])))}")
    return EXIT_OK


_COMMANDS = {
    "examples": cmd_examples,
    "scan": cmd_scan,
    "weyl": cmd_weyl,
    "rotation": cmd_rotation,
    "classify": cmd_classify,
    "lq": cmd_lq,
    "herglotz": cmd_herglotz,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hamflow",
        description="Nonautonomous linear Hamiltonian systems: dichotomy "
                    "detection, Weyl functions, rotation numbers, parameter "
                    "scans, spectral measures, LQ synthesis.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="preset name or problem-file path")
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--grid", type=str, default="",
                       help="comma-separated parameter values")
        p.add_argument("--T", type=float, default=None,
                       help="time horizon / report horizon (default 64; 20 for lq)")
        p.add_argument("--bracket", type=str, default="0,1000",
                       help="lo,hi bracket (scan) or window (herglotz)")
        p.add_argument("--out", type=str, default="hamflow-out")
        p.add_argument("--jobs", type=int, default=1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    bracket = _parse_floats(args.bracket)
    if len(bracket) != 2:
        print("error: --bracket needs exactly two values", file=sys.stderr)
        return EXIT_ERROR
    if args.T is None:
        args.T = 20.0 if args.command == "lq" else 64.0
    try:
        cfg = RunConfig(
            command=args.command, input=args.input, out=args.out,
            tol=args.tol, grid=_parse_floats(args.grid), T=args.T,
            bracket=(bracket[0], bracket[1]), jobs=args.jobs,
        )
        return _COMMANDS[args.command](cfg)
    except GoldenMismatch as exc:
        print(f"golden mismatch: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
