import json
import subprocess
import sys

import numpy as np
import pytest

from hamflow.cli import main


def read_rows(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows


def body_of(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("# generated")]


def test_weyl_table_matches_closed_form(tmp_path):
    rc = main(["weyl", "ex2", "--grid=-3,0", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_rows(tmp_path / "weyl.csv")
    assert header == ["lambda", "role", "value_re", "value_im", "convergence_error"]
    table = {(r[0], r[1]): float(r[2]) for r in rows}
    assert abs(table[("-3", "M+")] - (-1.0)) <= 1e-8
    assert abs(table[("-3", "M-")] - 3.0) <= 1e-8
    assert abs(table[("0", "M+")] - 0.0) <= 1e-8
    assert abs(table[("0", "M-")] - 2.0) <= 1e-8


def test_weyl_reports_nonexistent_role(tmp_path):
    rc = main(["weyl", "ex1", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path / "weyl.csv")
    minus = [r for r in rows if r[1] == "M-"]
    assert minus and minus[0][2] == "nonexistent"


def test_rotation_point_above_the_gap(tmp_path):
    rc = main(["rotation", "ex3", "--grid", "2", "--tol", "1e-3",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path / "rotation.csv")
    assert abs(float(rows[0][1]) - 1.0) <= 1e-3


def test_scan_reports_bracket_capped_alpha_star(tmp_path):
    rc = main(["scan", "ex1", "--tol", "1e-2", "--bracket", "0,64",
               "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "scan.json").read_text())
    assert data["alpha_star"] == "inf" or data["alpha_star"] == float("inf") \
        or data["alpha_star"] is None or data["alpha_star"] == "Infinity"
    assert "bracket_exhausted" in data["flags"]


def test_lq_solution_files(tmp_path):
    rc = main(["lq", "lq-scalar", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "lq.json").read_text())
    assert abs(data["value"] - 0.5) <= 1e-6
    header, rows = read_rows(tmp_path / "lq_trajectory.csv")
    assert header[0] == "t"
    # u = -x along the optimal trajectory
    for r in rows[:: max(1, len(rows) // 7)]:
        t, x, u = float(r[0]), float(r[1]), float(r[3])
        assert abs(u + x) <= 1e-8


def test_lq_report_horizon_follows_the_t_flag(tmp_path):
    # --T 64 is the flag's value for lq too, not its default
    assert main(["lq", "lq-scalar", "--T", "64", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "lq.json").read_text())
    assert data["config"]["T"] == 64.0
    _, rows = read_rows(tmp_path / "lq_trajectory.csv")
    assert float(rows[-1][0]) == 64.0


def test_classify_reports_the_alternative(tmp_path):
    rc = main(["classify", "ex1", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "classify.json").read_text())
    assert data["alternative"] == "O1"


def test_herglotz_on_a_spectral_window(tmp_path):
    rc = main(["herglotz", "ex3", "--bracket", "1,2", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "herglotz.json").read_text())
    got = np.asarray(data["measure_samples"][0]["mass"])[0][0]
    assert abs(got - 2.0 / (3.0 * np.pi)) <= 1e-2


def test_csv_bodies_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["weyl", "ex2", "--grid", "0,0.5", "--out", str(a)]) == 0
    assert main(["weyl", "ex2", "--grid", "0,0.5", "--out", str(b)]) == 0
    body_a = [l.replace(str(a), "OUT") for l in body_of(a / "weyl.csv")]
    body_b = [l.replace(str(b), "OUT") for l in body_of(b / "weyl.csv")]
    assert body_a == body_b


def test_outputs_embed_config_and_version(tmp_path):
    assert main(["weyl", "ex2", "--out", str(tmp_path), "--tol", "1e-07"]) == 0
    text = (tmp_path / "weyl.csv").read_text()
    assert "# version" in text
    assert '"tol": 1e-07' in text


def test_parallel_jobs_match_serial(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["weyl", "ex2", "--grid", "0,0.25,0.5", "--jobs", "1",
                 "--out", str(a)]) == 0
    assert main(["weyl", "ex2", "--grid", "0,0.25,0.5", "--jobs", "3",
                 "--out", str(b)]) == 0
    # config header legitimately differs (it records the jobs count);
    # the data rows must not
    assert read_rows(a / "weyl.csv") == read_rows(b / "weyl.csv")


def test_missing_input_file_is_an_error(tmp_path):
    assert main(["weyl", "/no/such/file.json", "--out", str(tmp_path)]) == 1


def test_unknown_preset_is_an_error(tmp_path):
    assert main(["examples", "nosuch", "--out", str(tmp_path)]) == 1


def test_nonpositive_tolerance_is_an_error(tmp_path):
    assert main(["weyl", "ex2", "--tol=-1", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("args", [["--T", "inf"], ["--T", "nan"], ["--tol", "inf"]])
def test_horizon_or_tolerance_that_is_not_finite_is_an_error(tmp_path, args, capsys):
    assert main(["rotation", "ex3", *args, "--out", str(tmp_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_malformed_bracket_is_an_error(tmp_path):
    assert main(["scan", "ex2", "--bracket", "1", "--out", str(tmp_path)]) == 1


def test_schema_violation_is_an_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "flow": "autonomous",
                               "H1": {"oops": 1}, "H2": [[0]], "H3": [[0]]}))
    assert main(["weyl", str(bad), "--out", str(tmp_path)]) == 1


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hamflow.cli", "weyl", "ex2",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "weyl.csv").exists()


def test_examples_checks_the_m_minus_law(tmp_path):
    assert main(["examples", "ex3", "--out", str(tmp_path)]) == 0
    diffs = json.loads((tmp_path / "examples_ex3.json").read_text())["golden_diffs"]
    minus = {d["label"]: d for d in diffs if d["label"].startswith("M_minus")}
    assert sorted(minus) == ["M_minus(-4)", "M_minus(0)", "M_minus(0.9)"]
    assert all(d["passed"] and d["tol"] == 1e-6 for d in minus.values())


def test_scan_without_delta_is_an_error(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"n": 1, "H1": -1.0, "H2": 0.0, "H3": 1.0}))
    assert main(["scan", str(path), "--out", str(tmp_path)]) == 1


def test_problem_file_roundtrip_through_cli(tmp_path):
    problem = {
        "n": 1,
        "flow": {"kind": "periodic", "period": 6.0},
        "H1": [{"k": [0], "cos": [[-1.0]]}, {"k": [1], "cos": [[0.25]]}],
        "H2": [[0.0]],
        "H3": [[0.0]],
        "Delta": [[1.0]],
    }
    path = tmp_path / "field.json"
    path.write_text(json.dumps(problem))
    rc = main(["weyl", str(path), "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_rows(tmp_path / "weyl.csv")
    plus = [r for r in rows if r[1] == "M+"][0]
    assert abs(float(plus[2])) <= 1e-8


PERIODIC_LQ = {
    "A": [{"k": [0], "cos": [[-0.5]]}, {"k": [1], "cos": [[0.3]]}],
    "B": [[1.0]], "G": [[1.0]], "x0": [1.0],
    "flow": {"kind": "periodic", "period": 4.0},
}


def test_periodic_lq_file_loads_time_varying_blocks(tmp_path):
    from hamflow.base_flow import advance
    from hamflow.cli import _load_lq

    path = tmp_path / "lq.json"
    path.write_text(json.dumps(PERIODIC_LQ))
    p = _load_lq(str(path))
    assert p.flow.kind == "periodic" and p.flow.period == 4.0
    for t in (0.0, 0.7, 1.9, 3.3):
        theta = advance(p.flow, p.flow.origin(), t).as_array()
        want = -0.5 + 0.3 * np.cos(2.0 * np.pi * t / 4.0)
        assert abs(p.A(theta)[0, 0] - want) <= 1e-12


def test_periodic_lq_file_end_to_end(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PERIODIC_LQ))
    assert main(["lq", str(path), "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "lq.json").read_text())
    assert abs(data["value"] - data["closed_form_value"]) <= 1e-11


@pytest.mark.parametrize("A", [{"oops": 1}, [{"k": [0], "cos": [[-0.5]]}, {"cos": [[0.3]]}]])
def test_malformed_lq_block_is_an_error(tmp_path, capsys, A):
    path = tmp_path / "lq.json"
    path.write_text(json.dumps({**PERIODIC_LQ, "A": A}))
    assert main(["lq", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


EX2_FILE = {"n": 1, "H1": [[-1.0]], "H2": [[0.0]], "H3": [[1.0]], "Delta": [[1.0]]}
SCALAR_LQ = {"A": [[-0.5]], "B": [[1.0]], "G": [[1.0]], "x0": [1.0]}
INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("command, problem", [
    *[(command, {**EX2_FILE, "H1": [[bad]]})
      for command in ("weyl", "classify", "scan", "herglotz") for bad in (INF, NAN)],
    ("weyl", {**EX2_FILE, "flow": {"kind": "periodic", "period": 1.0},
              "H1": [{"k": [0], "cos": [[-1.0]]}, {"k": [1], "cos": [[INF]]}]}),
    ("lq", {**SCALAR_LQ, "R": [[NAN]]}),
    ("lq", {**SCALAR_LQ, "B": [[INF]]}),
    ("lq", {**SCALAR_LQ, "x0": [NAN]}),
])
def test_problem_file_entries_that_are_not_finite_are_an_error(tmp_path, capsys, command,
                                                               problem):
    # JSON readers take Infinity and NaN; they must end as an error
    # message, not in LAPACK or in a nan answer
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main([command, str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


PERIODIC_EX2 = {**EX2_FILE, "flow": {"kind": "periodic", "period": 1.0}}


@pytest.mark.parametrize("command, problem, args", [
    ("weyl", "{not json", []),
    ("lq", "{not json", []),
    ("weyl", {**EX2_FILE, "flow": {"kind": "periodic", "period": "x"}}, []),
    ("weyl", {**EX2_FILE, "flow": {"kind": "periodic", "period": None}}, []),
    ("weyl", {**EX2_FILE, "flow": {"kind": "torus", "nu": "ab"}}, []),
    ("weyl", {**EX2_FILE, "flow": {"kind": "torus", "nu": [1, "x"]}}, []),
    ("weyl", {**EX2_FILE, "flags": 5}, []),
    ("weyl", {**EX2_FILE, "flags": "H3_psd"}, []),
    ("weyl", {**PERIODIC_EX2, "H2": [{"k": [1], "cos": [[0.1, 0.2]]}]}, []),
    ("weyl", {**PERIODIC_EX2, "n": 2, "H1": (-np.eye(2)).tolist(), "H3": np.eye(2).tolist(),
              "H2": [{"k": [0], "cos": [[1.0]]}], "Delta": np.eye(2).tolist()}, []),
    ("lq", {**SCALAR_LQ, "g": [1, 2, 3]}, []),
    ("lq", {**SCALAR_LQ, "x0": [1, 2]}, []),
    ("lq", {**SCALAR_LQ, "R": "abc"}, []),
    ("weyl", "ex2", ["--grid", "abc"]),
    ("scan", "ex2", ["--bracket", "a,b"]),
    ("rotation", "ex3", ["--grid", "2,1"]),
    ("herglotz", "ex3", ["--bracket", "2,1"]),
    ("weyl", {**PERIODIC_EX2, "H2": [{"k": [1]}]}, []),
    ("lq", {**SCALAR_LQ, "A": (-np.eye(2)).tolist(), "B": [[1.0], [0.5]],
            "G": np.eye(2).tolist(), "x0": [1.0, 0.0], "g": [[0.1, 0.2]]}, []),
])
def test_malformed_input_is_an_error(tmp_path, capsys, command, problem, args):
    # a preset name, the text of a problem file, or its JSON
    if isinstance(problem, dict):
        problem = json.dumps(problem)
    if problem.startswith("{"):
        path = tmp_path / "problem.json"
        path.write_text(problem)
        problem = str(path)
    assert main([command, problem, "--out", str(tmp_path), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_every_exported_function_is_toured_or_called():
    """Every function that ``hamflow`` exports is named in the README's
    library tour or called inside the package: the public surface holds
    no function that neither documents nor serves anything."""
    import inspect
    import re
    from pathlib import Path

    import hamflow

    package = Path(hamflow.__file__).resolve().parent
    readme = (package.parents[1] / "README.md").read_text()
    tour = readme[readme.index("## Library tour"):readme.index("## CLI")]
    source = "\n".join(p.read_text() for p in sorted(package.glob("*.py")))
    unused = [name for name, obj in vars(hamflow).items()
              if inspect.isfunction(obj)
              and not re.search(rf"\b{name}\b", tour)
              and not re.search(rf"(?<!def )\b{name}\(", source)]
    assert unused == []


def test_every_float_option_of_an_exported_function_is_set_somewhere():
    """Every float-valued keyword option of a function that ``hamflow``
    exports is set, by keyword or by position, by some call in the
    package, the benchmark or the tests: an option that nothing sets is a
    constant."""
    import ast
    import inspect
    from pathlib import Path

    import hamflow

    root = Path(hamflow.__file__).resolve().parents[2]
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(p for d in ("src", "perfbench", "tests") for p in (root / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call: ast.Call, i: int, option: str) -> bool:
        return (any(k.arg in (option, None) for k in call.keywords)
                or len(call.args) > i
                or any(isinstance(a, ast.Starred) for a in call.args))

    unset = [f"{name}.{p.name}" for name, obj in vars(hamflow).items()
             if inspect.isfunction(obj)
             for i, p in enumerate(inspect.signature(obj).parameters.values())
             if type(p.default) is float
             and not any(sets(c, i, p.name) for c in calls.get(name, []))]
    assert unset == []
