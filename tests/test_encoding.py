"""The one JSON encoding of report values (hamflow._json), pinned on real
reports, and the to_dict/to_json agreement of every public report type."""

import json

import numpy as np
import pytest

from hamflow import (
    BasePoint,
    atkinson_check,
    bounded_solution_witness,
    classify_family,
    detect_ed,
    find_alpha_star,
    herglotz_fit,
    nonoscillation_check,
    rotation_number,
    synthesize,
    uwd_test,
    weyl_monotonicity_check,
)
from hamflow._json import jsonable
from hamflow.cli import main
from hamflow.hamiltonian import perturb_h2, perturb_h3, regularize
from hamflow.presets import scalar_lq_problem


def test_encodings_are_pinned(ex3, abnormal):
    report = detect_ed(perturb_h3(ex3, 1j))
    L1, L2 = report.samples[0].l_plus.L1, report.samples[0].l_plus.L2
    assert np.iscomplexobj(L1) and np.iscomplexobj(L2)
    rep = report.to_dict()
    probe = classify_family(abnormal).to_dict()["probe_results"][2]
    witness = atkinson_check(abnormal).to_dict()["witness"]
    cases = [
        # (encoded value, expected JSON form)
        (rep["samples"][0]["l_plus"],
         {"L1": {"re": L1.real.tolist(), "im": L1.imag.tolist()},
          "L2": {"re": L2.real.tolist(), "im": L2.imag.tolist()}}),
        (probe["lam"], [0.0, 1.0]),
        (witness["omega"], []),
        (jsonable(np.array([[1.0, 2.0]])), [[1.0, 2.0]]),
        (jsonable(np.array([1j, 2.0])), {"re": [0.0, 2.0], "im": [1.0, 0.0]}),
        (jsonable(np.complex128(3 - 4j)), [3.0, -4.0]),
        (jsonable((np.float64(0.5), np.int64(2), np.bool_(True))), [0.5, 2, True]),
        (jsonable(BasePoint((0.25, 0.5))), [0.25, 0.5]),
    ]
    for got, want in cases:
        assert got == want
    # numpy scalars come out as Python scalars
    assert [type(x) for x in jsonable((np.float64(0.5), np.int64(2), np.bool_(True)))] \
        == [float, int, bool]
    assert all(type(x) is float for x in rep["samples"][0]["exponents"])


def test_to_json_matches_to_dict_for_every_report(ex2, ex3, abnormal):
    rep = detect_ed(ex2)
    reports = [
        rep,
        rep.samples[0],
        rep.thresholds,
        detect_ed(perturb_h3(ex3, 1j)),
        nonoscillation_check(rep),
        uwd_test(regularize(perturb_h2(ex2, 0.5), 1.0), t_max=4.0),
        atkinson_check(abnormal),
        bounded_solution_witness(abnormal, abnormal.flow.origin()),
        classify_family(abnormal),
        classify_family(ex3),
        find_alpha_star(ex2, tol=0.05),
        weyl_monotonicity_check(ex2, alpha2=0.5),
        rotation_number(ex3, T=4.0),
        synthesize(scalar_lq_problem()),
    ]
    herglotz = herglotz_fit(lambda lam: np.array([[1.0 - np.sqrt(complex(1.0 - lam))]]),
                            alpha_window=(1.0, 2.0))
    reports += [herglotz, herglotz.measure_samples[0]]
    for r in reports:
        assert json.loads(r.to_json()) == r.to_dict(), type(r).__name__


@pytest.mark.parametrize("preset", ["abnormal", "ex3"])
def test_cli_classify_json_is_the_library_report(tmp_path, preset, request):
    assert main(["classify", preset, "--out", str(tmp_path)]) in (0, 2)
    payload = json.loads((tmp_path / "classify.json").read_text())
    del payload["version"], payload["config"]
    field = request.getfixturevalue(preset)
    assert payload == json.loads(classify_family(field).to_json())
