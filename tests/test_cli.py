"""CLI surface: subcommands, exit codes, deterministic JSON."""

import json

import pytest

from prymlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_park_subcommand(capsys):
    code, out, err = run_cli(capsys, "park", "--genus", "9", "--k", "4")
    assert code == 0
    assert json.loads(out) == {"nu": 4, "p": 1, "regularity": 5}
    assert "nu=4" in err


def test_park_rejects_bad_k(capsys):
    code, _, err = run_cli(capsys, "park", "--genus", "9", "--k", "2")
    assert code == 2
    assert "error" in err


def test_curve_new_and_downstream(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "curve", "new", "--roots", "1,2,3,4,5")
    assert code == 0
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(out)

    code, out, _ = run_cli(capsys, "eta", "list", "--curve", str(curve_file))
    assert code == 0
    listing = json.loads(out)
    assert listing["count"] == 15
    assert listing["k_histogram"] == {"1": 15}

    code, out, _ = run_cli(
        capsys, "cliff", "--curve", str(curve_file), "--eta", "w1,w2", "--mode", "search"
    )
    assert code == 0
    report = json.loads(out)
    assert report["cliff_eta"] == 0
    assert report["cliff_dim"] == [0, 0]
    assert report["mode"] == "search"
    assert report["pool"] == "weierstrass"


def test_curve_new_rejects_duplicates(capsys):
    code, _, err = run_cli(capsys, "curve", "new", "--roots", "1,1,2,3,4")
    assert code == 2
    assert "squarefree" in err


def test_cliff_rejects_odd_eta(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "curve", "new", "--roots", "1,2,3,4,5")
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(out)
    code, _, err = run_cli(capsys, "cliff", "--curve", str(curve_file), "--eta", "w1")
    assert code == 2
    assert "even" in err


def test_cliff_rejects_trivial_eta(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "curve", "new", "--roots", "1,2,3,4,5")
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(out)
    # repeated labels collapse as a set, making the class trivial
    code, _, err = run_cli(capsys, "cliff", "--curve", str(curve_file), "--eta", "")
    assert code == 2
    assert "trivial" in err


def test_scroll_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "curve", "new", "--roots", "1,2,3,4,5,6,7,8,9,10,11")
    curve_file = tmp_path / "curve5.json"
    curve_file.write_text(out)
    code, out, _ = run_cli(
        capsys, "scroll", "--curve", str(curve_file), "--eta", "w1,w2,w3,w4,w5,w6"
    )
    assert code == 0
    data = json.loads(out)
    assert data["scroll"] == [1, 1]
    assert data["d_sequence"] == [2, 2]
    assert data["nu"] == 5


def test_scroll_rejects_k1(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "curve", "new", "--roots", "1,2,3,4,5,6,7")
    curve_file = tmp_path / "curve3.json"
    curve_file.write_text(out)
    code, _, err = run_cli(capsys, "scroll", "--curve", str(curve_file), "--eta", "w1,w2")
    assert code == 2
    assert "base points" in err


def test_h0_subcommand(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "curve", "new", "--roots", "1,2,3,4,5")
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(out)
    divisor_file = tmp_path / "div.json"
    divisor_file.write_text(json.dumps({"terms": [
        {"point": {"label": "w1"}, "mult": 1},
        {"point": {"label": "w2"}, "mult": 1},
        {"point": {"label": "w3"}, "mult": 1},
    ]}))
    code, out, _ = run_cli(capsys, "h0", "--curve", str(curve_file), "--divisor", str(divisor_file))
    assert code == 0
    assert json.loads(out) == {"degree": 3, "h0": 2}


def test_missing_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "eta", "list", "--curve", "/nonexistent.json")
    assert code == 2
    assert "no such file" in err


def test_verify_small_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "two-torsion", "--genus-max", "2")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    assert data["passed"] == len(data["checks"]) > 0
    assert all(c["status"] == "pass" for c in data["checks"])
    assert "suite two-torsion" in err


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_json_output_is_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "park", "--genus", "9", "--k", "4")
    _, out2, _ = run_cli(capsys, "park", "--genus", "9", "--k", "4")
    assert out1 == out2


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "park", "--genus", "9", "--k", "4", "--format", "table")
    assert code == 0
    assert "nu\t4" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def _h0_with_divisor(tmp_path, capsys, divisor_json):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({"roots": ["1", "2", "3", "4", "5"]}))
    divisor_file = tmp_path / "div.json"
    divisor_file.write_text(json.dumps(divisor_json))
    return run_cli(capsys, "h0", "--curve", str(curve_file), "--divisor", str(divisor_file))


@pytest.mark.parametrize("mult", [2.7, True, "2", None])
def test_h0_rejects_non_integer_multiplicity(tmp_path, capsys, mult):
    term = {"point": {"label": "w1"}, "mult": mult}
    code, out, err = _h0_with_divisor(tmp_path, capsys, {"terms": [term]})
    assert code == 2 and out == ""
    assert "not an integer" in err


def test_h0_rejects_term_without_point(tmp_path, capsys):
    code, out, err = _h0_with_divisor(tmp_path, capsys, {"terms": [{"mult": 1}]})
    assert code == 2 and out == ""
    assert "needs a 'point'" in err


@pytest.mark.parametrize("roots", [[0.1, 1, 2, 3, 4], [True, 2, 3, 4, 5]])
def test_curve_rejects_float_and_bool_rationals(tmp_path, capsys, roots):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({"roots": roots}))
    code, out, err = run_cli(capsys, "eta", "list", "--curve", str(curve_file))
    assert code == 2 and out == ""
    assert "not an exact rational" in err


def test_h0_rejects_float_point_coordinate(tmp_path, capsys):
    term = {"point": {"x": 0.5, "y": "0"}, "mult": 1}
    code, out, err = _h0_with_divisor(tmp_path, capsys, {"terms": [term]})
    assert code == 2 and out == ""
    assert "not an exact rational" in err


@pytest.mark.parametrize("roots", ["12345", {"1": 2}])
def test_curve_rejects_roots_that_are_not_a_list(tmp_path, capsys, roots):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({"roots": roots}))
    code, out, err = run_cli(capsys, "eta", "list", "--curve", str(curve_file))
    assert code == 2 and out == ""
    assert "'roots' list" in err


@pytest.mark.parametrize("pool", [[{"label": "w1"}], {"points": "w1"}, {"points": [[1, 2]]}])
def test_cliff_rejects_malformed_pool(tmp_path, capsys, pool):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({"roots": ["1", "2", "3", "4", "5"]}))
    pool_file = tmp_path / "pool.json"
    pool_file.write_text(json.dumps(pool))
    code, out, err = run_cli(
        capsys, "cliff", "--curve", str(curve_file), "--eta", "w1,w2", "--mode", "search",
        "--pool", str(pool_file),
    )
    assert code == 2 and out == ""
    assert "error" in err
