"""Command surface: exit codes, schemas, determinism."""

import json

import numpy as np
import pytest

import ccpkit.cli
from ccpkit import dump_instance, elliptical_to_doc, load_instance
from ccpkit.cli import generate_instance, main
from ccpkit.model import SeparableConvexPower

from conftest import (
    make_equality_pair,
    make_gaussian_plane,
    make_scalar_chain,
    make_split_direction_rows,
    make_tight_cover_family,
    make_two_var_cover,
)

REPORT_KEYS = {
    "method",
    "t_star",
    "x_star",
    "objective",
    "feasible",
    "violation_prob",
    "iterations",
    "lower_bound_used",
    "upper_bound_used",
    "wall_time",
    "config",
}


@pytest.fixture
def chain_path(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(dump_instance(make_scalar_chain()))
    return str(path)


@pytest.fixture
def cover_path(tmp_path):
    path = tmp_path / "cover.json"
    path.write_text(dump_instance(make_two_var_cover()))
    return str(path)


@pytest.fixture
def clash_path(tmp_path):
    path = tmp_path / "clash.json"
    path.write_text(dump_instance(make_split_direction_rows()))
    return str(path)


@pytest.fixture
def plane_path(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(elliptical_to_doc(make_gaussian_plane())))
    return str(path)


def run_json(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_solve_reports_known_value(chain_path, capsys):
    code, doc, _ = run_json(["solve", "--instance", chain_path, "--method", "alsox"], capsys)
    assert code == 0
    assert 2.0 - 1e-7 <= doc["objective"] <= 2.0 + 1e-2
    assert set(doc) == REPORT_KEYS
    assert doc["config"]["delta1"] == pytest.approx(1e-2)


def test_schema_is_stable_across_methods(chain_path, capsys):
    for method in ("alsox", "alsoxplus", "cvar", "dc", "oracle"):
        code, doc, _ = run_json(
            ["solve", "--instance", chain_path, "--method", method], capsys
        )
        assert code == 0, method
        assert set(doc) == REPORT_KEYS, method


def test_solve_infeasible_exit(clash_path, capsys):
    code, doc, err = run_json(
        ["solve", "--instance", clash_path, "--method", "alsox"], capsys
    )
    assert code == 2
    assert doc is None
    assert json.loads(err)["error"] == "NoFeasibleT"


def test_usage_errors_exit_one(chain_path, capsys):
    assert main(["solve", "--instance", chain_path, "--method", "nosuch"]) == 1
    capsys.readouterr()
    assert main(["solve", "--instance", chain_path, "--method", "alsox", "--seed", "1"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert main(["solve", "--instance", "/nonexistent.json", "--method", "alsox"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", [["solve", "--method", "oracle"], ["oracle"]])
def test_a_negative_subset_cap_exits_one(cover_path, capsys, command):
    code = main(command + ["--instance", cover_path, "--subset-cap", "-3"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and json.loads(err[0])["error"] == "ValidationError"


def test_cap_exit_three(tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(dump_instance(make_tight_cover_family()))
    code = main(["oracle", "--instance", str(path), "--subset-cap", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err)["error"] == "CapExceeded"


def test_solve_csv_single_row(chain_path, tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main(
        [
            "solve",
            "--instance",
            chain_path,
            "--method",
            "cvar",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["method"] == "cvar"
    assert float(cells["objective"]) == pytest.approx(8.0 / 3.0, abs=1e-5)


def test_compare_improvement_quarter(cover_path, capsys):
    code, doc, _ = run_json(
        [
            "compare",
            "--instance",
            cover_path,
            "--methods",
            "alsox,alsoxplus,cvar",
            "--delta1",
            "0.001",
            "--delta2",
            "0.001",
        ],
        capsys,
    )
    assert code == 0
    rows = {r["method"]: r for r in doc["results"]}
    assert rows["alsoxplus"]["improvement_pct"] == pytest.approx(25.0, abs=2.0)
    assert rows["alsox"]["improvement_pct"] == pytest.approx(0.0, abs=2.0)
    assert "improvement_pct" not in rows["cvar"]
    assert doc["consistency"]["holds"] is True


def test_compare_emits_error_rows(clash_path, capsys):
    code, doc, _ = run_json(
        ["compare", "--instance", clash_path, "--methods", "alsox,cvar"], capsys
    )
    assert code == 2
    rows = {r["method"]: r for r in doc["results"]}
    assert rows["alsox"]["error"] == "NoFeasibleT"
    assert rows["cvar"]["error"] == "Infeasible"
    assert all("improvement_pct" not in r for r in doc["results"])


def test_gen_documents_are_deterministic(tmp_path, capsys):
    argv = ["gen", "--family", "linear", "--n", "4", "--N", "12", "--epsilon", "0.1", "--seed", "7"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    inst = load_instance(a.read_text())
    mats = inst.constraints.mats
    assert mats.min() >= 1.0 and mats.max() <= 50.0
    assert np.all(inst.constraints.offsets == 100.0)
    assert np.all(inst.cost <= -1.0) and np.all(inst.cost >= -10.0)


def test_gen_families_match_their_shapes():
    lin = generate_instance("linear", 5, 20, 0.1, 3)
    assert lin.constraints.mats.shape == (20, 1, 5)
    non = generate_instance("nonlinear", 5, 20, 0.1, 3)
    assert isinstance(non.constraints, SeparableConvexPower)
    assert non.constraints.power == 2.0
    assert non.constraints.weights.min() >= 1.0
    assert non.constraints.weights.max() <= 99.0
    cov = generate_instance("covering", 5, 20, 0.1, 3)
    assert cov.constraints.mats.min() >= 1.0 / 40.0
    assert np.all(cov.cost >= 1.0)


def test_bench_deterministic_modulo_time(tmp_path, capsys):
    argv = [
        "bench",
        "--family",
        "linear",
        "--n",
        "4",
        "--N",
        "20",
        "--epsilon",
        "0.1",
        "--seeds",
        "1,2",
        "--methods",
        "alsox,cvar",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()

    def strip_time(text):
        lines = text.strip().splitlines()
        cols = lines[0].split(",")
        drop = cols.index("time")
        return [
            [c for i, c in enumerate(line.split(",")) if i != drop] for line in lines
        ]

    assert strip_time(a.read_text()) == strip_time(b.read_text())
    rows = strip_time(a.read_text())
    assert rows[0][:6] == ["family", "n", "N", "epsilon", "seed", "method"]
    assert len(rows) == 5


def test_bench_error_rows_carry_their_message(capsys):
    argv = ["bench", "--family", "covering", "--n", "2", "--N", "5", "--epsilon", "0.5",
            "--seeds", "1", "--methods", "cvar,oracle", "--format", "json"]
    code, doc, _ = run_json(argv, capsys)
    assert code == 0
    cvar, oracle = doc["rows"]
    assert cvar["error"] == "Infeasible"
    assert cvar["message"] == "cvar: the tail-constrained program is empty"
    assert "objective" not in cvar
    assert oracle["method"] == "oracle" and "error" not in oracle
    assert oracle["objective"] == pytest.approx(10.25, abs=1e-9)


def test_bench_oracle_solves_past_the_old_enumeration_cap(capsys):
    # C(60, 6) = 50,063,860 droppable sets, which no enumeration under the
    # default subset_cap reaches
    argv = ["bench", "--family", "covering", "--n", "3", "--N", "60", "--seeds", "1",
            "--methods", "oracle", "--format", "json"]
    code, doc, _ = run_json(argv, capsys)
    assert code == 0
    (oracle,) = doc["rows"]
    assert oracle["objective"] == pytest.approx(9.82609, abs=1e-5)


def test_elliptical_documents_route(plane_path, capsys):
    code, doc, _ = run_json(
        ["solve", "--instance", plane_path, "--method", "oracle"], capsys
    )
    assert code == 0
    assert doc["objective"] == pytest.approx(-1.55432057, abs=1e-4)
    code, doc, _ = run_json(
        ["solve", "--instance", plane_path, "--method", "alsox"], capsys
    )
    assert code == 0
    assert doc["objective"] >= -1.43


def test_compare_runs_every_method_on_a_gaussian_document(plane_path, capsys):
    code, doc, _ = run_json(
        ["compare", "--instance", plane_path, "--methods", "alsox,alsoxplus,cvar,dc,oracle"], capsys
    )
    assert code == 0
    rows = {r["method"]: r for r in doc["results"]}
    assert list(rows) == ["alsox", "alsoxplus", "cvar", "dc", "oracle"]
    assert rows["oracle"]["objective"] == pytest.approx(-1.55432057, abs=1e-4)
    assert rows["alsox"]["objective"] >= rows["oracle"]["objective"]
    for method in ("alsoxplus", "cvar", "dc"):
        assert rows[method]["error"] == "BackendUnavailable", method
        assert "needs finite scenarios" in rows[method]["message"], method


def test_elliptical_radius_requires_matching_norm(plane_path, capsys):
    code = main(
        [
            "solve",
            "--instance",
            plane_path,
            "--method",
            "alsox",
            "--theta",
            "0.05",
            "--norm",
            "l2",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "NormMismatch"


def test_finite_document_rejects_the_mahalanobis_flag(cover_path, capsys):
    code = main(
        [
            "solve",
            "--instance",
            cover_path,
            "--method",
            "alsox",
            "--theta",
            "0.05",
            "--norm",
            "mahalanobis",
        ]
    )
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"] == "NormMismatch" and "--norm mahalanobis" in err["message"]


@pytest.mark.parametrize("path, norm", [("cover_path", "mahalanobis"), ("plane_path", "l2")])
def test_compare_exits_once_on_a_norm_flag_no_method_can_use(path, norm, request, capsys):
    code = main(["compare", "--instance", request.getfixturevalue(path), "--theta", "0.05",
                 "--norm", norm])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NormMismatch"


def test_compare_robustifies_once_and_exits_once_on_a_shift_no_model_allows(
        cover_path, tmp_path, monkeypatch, capsys):
    calls = []
    real = ccpkit.cli.robustify

    def counted(spec):
        calls.append(spec.mode)
        return real(spec)

    monkeypatch.setattr(ccpkit.cli, "robustify", counted)
    shift = ["--theta", "0.05", "--norm", "linf", "--mode", "shift"]
    code, doc, _ = run_json(["compare", "--instance", cover_path] + shift, capsys)
    assert code == 0 and calls == ["shift"]
    assert [row["method"] for row in doc["results"]] == ["alsox", "alsoxplus", "cvar"]
    path = tmp_path / "equality.json"
    path.write_text(dump_instance(make_equality_pair()))
    code = main(["compare", "--instance", str(path)] + shift)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "ModeMismatch", "message": "shift reduction undefined for BiAffineEquality"}


def _two_var_cover_doc():
    return json.loads(dump_instance(make_two_var_cover()))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(x_set=5),
        lambda doc: doc.update(x_set="nonneg"),
        lambda doc: doc.update(constraints=[1, 2]),
        lambda doc: doc.update(x_set={"type": "intersection", "parts": 5}),
        lambda doc: doc.update(x_set={"type": "intersection", "parts": [doc["x_set"], 5]}),
    ],
    ids=[
        "x_set-number",
        "x_set-string",
        "constraints-list",
        "parts-number",
        "parts-member-number",
    ],
)
def test_malformed_nodes_exit_one_with_a_parse_error(mutate, tmp_path, capsys):
    doc = _two_var_cover_doc()
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_json(["solve", "--instance", str(path), "--method", "alsox"], capsys)
    assert code == 1
    assert out is None
    assert json.loads(err)["error"] == "ParseError"


def test_invalid_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2,')
    code, out, err = run_json(["solve", "--instance", str(path), "--method", "cvar"], capsys)
    assert code == 1
    assert out is None
    assert json.loads(err)["error"] == "ParseError"


def test_unknown_gaussian_generator_exits_three(tmp_path, capsys):
    doc = elliptical_to_doc(make_gaussian_plane())
    doc["generator"] = "student"
    path = tmp_path / "student.json"
    path.write_text(json.dumps(doc))
    for method in ("alsox", "oracle", "cvar"):
        code, out, err = run_json(["solve", "--instance", str(path), "--method", method], capsys)
        assert code == 3, method
        assert out is None, method
        error = json.loads(err)
        assert error["error"] == "BackendUnavailable", method
        assert "student" in error["message"], method
