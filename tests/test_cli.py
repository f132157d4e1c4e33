"""CLI surface: subcommands, exit codes, deterministic JSON."""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from prymlab import curve_with_marked_point
from prymlab.cli import main
from prymlab.serialize import curve_to_dict
from support import shifted_marked_curve


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


def test_curve_new_rejects_zero_denominator(capsys):
    code, out, err = run_cli(capsys, "curve", "new", "--roots", "1/0,1,2,3,4")
    assert code == 2 and out == ""
    assert "zero denominator in '1/0'" in err


@pytest.mark.parametrize("error", [TypeError("engine bug"), ArithmeticError("engine bug")])
def test_engine_errors_are_not_input_errors(monkeypatch, capsys, error):
    # only a ValueError means malformed input; anything else escapes main,
    # so the command exits 1 with a traceback
    def broken(genus, k):
        raise error

    monkeypatch.setattr("prymlab.cli.park_parameters", broken)
    with pytest.raises(type(error)):
        main(["park", "--genus", "9", "--k", "4"])


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "roots, message",
    [
        ("1e5000,1,2,3,4", "rational too large"),
        ("1e999999999,1,2,3,4", "rational too large"),
        # each root fits, but f's coefficients pass the digit bound
        ("1e1000,2e1000,3e1000,4e1000,5e1000", "f(x) has a coefficient of more than"),
    ],
)
def test_curve_new_rejects_roots_too_large_to_print(capsys, fmt, roots, message):
    code, out, err = run_cli(capsys, "curve", "new", "--roots", roots, "--format", fmt)
    assert code == 2 and out == ""
    assert message in err


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
    code, _, err = run_cli(capsys, "cliff", "--curve", str(curve_file), "--eta", "")
    assert code == 2
    assert "trivial" in err


@pytest.mark.parametrize(
    "eta, message",
    [
        ("w1,w1,w2,w2", "repeated Weierstrass label 'w1'"),
        ("w1,w2,w2,w3", "repeated Weierstrass label 'w2'"),
        ("w01,w2", "bad Weierstrass label 'w01'"),
        ("w1_0,w2", "bad Weierstrass label 'w1_0'"),
    ],
)
def test_cliff_rejects_repeated_and_non_canonical_labels(tmp_path, capsys, eta, message):
    code, out, _ = run_cli(capsys, "curve", "new", "--roots", "1,2,3,4,5,6,7,8,9,10,11")
    curve_file = tmp_path / "curve5.json"
    curve_file.write_text(out)
    code, out, err = run_cli(capsys, "cliff", "--curve", str(curve_file), "--eta", eta)
    assert code == 2
    assert out == ""
    assert message in err


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


NON_CANONICAL_RATIONALS = ["\u0663", "\uff11\uff12", "1_0"]  # Arabic-Indic 3, fullwidth 12


@pytest.mark.parametrize("text", NON_CANONICAL_RATIONALS)
@pytest.mark.parametrize("where", ["roots-flag", "roots-json", "point-json"])
def test_rationals_must_be_ascii_without_underscores(tmp_path, capsys, where, text):
    if where == "roots-flag":
        code, out, err = run_cli(capsys, "curve", "new", "--roots", f"1,{text},2,4,5")
    elif where == "roots-json":
        curve_file = tmp_path / "curve.json"
        curve_file.write_text(json.dumps({"roots": [text, "1", "2", "4", "5"]}))
        code, out, err = run_cli(capsys, "eta", "list", "--curve", str(curve_file))
    else:
        term = {"point": {"x": text, "y": "1"}, "mult": 1}
        code, out, err = _h0_with_divisor(tmp_path, capsys, {"terms": [term]})
    assert code == 2 and out == ""
    assert repr(text) in err


@pytest.mark.parametrize("text, stored", [("1/2", "1/2"), ("-3", "-3"), ("0.5", "1/2")])
def test_plain_rationals_still_accepted(capsys, text, stored):
    code, out, _ = run_cli(capsys, "curve", "new", "--roots", f"1,{text},2,4,5")
    assert code == 0
    assert stored in json.loads(out)["roots"]


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


def test_h0_rejects_point_off_the_curve(tmp_path, capsys):
    term = {"point": {"x": "1/3", "y": "5"}, "mult": 1}
    code, out, err = _h0_with_divisor(tmp_path, capsys, {"terms": [term]})
    assert code == 2 and out == ""
    assert err == "error: point (1/3, 5) is not on the curve y^2 = f(x)\n"


@pytest.mark.parametrize("label", [2.0, [1], None, True])
def test_h0_rejects_label_of_wrong_type(tmp_path, capsys, label):
    term = {"point": {"label": label}, "mult": 1}
    code, out, err = _h0_with_divisor(tmp_path, capsys, {"terms": [term]})
    assert code == 2 and out == ""
    assert "bad Weierstrass label" in err


@pytest.mark.parametrize("flag", [1, 2.0, "yes", [0], 0, None])
def test_h0_rejects_at_infinity_that_is_not_a_bool(tmp_path, capsys, flag):
    term = {"point": {"at_infinity": flag, "label": "w1"}, "mult": 1}
    code, out, err = _h0_with_divisor(tmp_path, capsys, {"terms": [term]})
    assert code == 2 and out == ""
    assert err.startswith("error: 'at_infinity' must be true or false")


def test_h0_reads_other_keys_when_at_infinity_is_false(tmp_path, capsys):
    # w1 - oo has h0 = 0; read as oo - oo it would have h0 = 1
    terms = [
        {"point": {"at_infinity": False, "label": "w1"}, "mult": 1},
        {"point": {"at_infinity": True}, "mult": -1},
    ]
    code, out, _ = _h0_with_divisor(tmp_path, capsys, {"terms": terms})
    assert code == 0
    assert json.loads(out) == {"degree": 0, "h0": 0}


@pytest.mark.parametrize("genus, shown", [(2.0, "2.0"), ("2", "'2'"), (True, "True")])
def test_curve_rejects_genus_that_is_not_an_integer(tmp_path, capsys, genus, shown):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({"roots": ["1", "2", "3", "4", "5"], "genus": genus}))
    code, out, err = run_cli(capsys, "eta", "list", "--curve", str(curve_file))
    assert code == 2 and out == ""
    assert err.startswith(f"error: curve JSON 'genus' must be an integer, not {shown}")


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


@pytest.mark.parametrize("options", [["--max-degree", "99"], ["--max-degree", "1"],
                                     ["--pool", "/nonexistent"], ["--pool", ""]])
def test_cliff_closed_mode_refuses_search_options(tmp_path, capsys, options):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(json.dumps({"roots": ["1", "2", "3", "4", "5"]}))
    cliff = ["cliff", "--curve", str(curve_file), "--eta", "w1,w2"]
    code, out, err = run_cli(capsys, *cliff, "--mode", "closed", *options)
    assert code == 2 and out == ""
    assert "--mode search" in err
    # the default pool, spelled out, stays accepted
    code, out, _ = run_cli(capsys, *cliff, "--pool", "weierstrass")
    assert code == 0 and json.loads(out)["mode"] == "closed_form"


def _fuzz_replacement(rng, value):
    """A value of another JSON type, or the string cut short."""
    choices = [0.5, 2.0, True, False, None, 7, -1, "w9", "", [], {}, [value], {"x": value}, [[1, 2]]]
    if isinstance(value, str) and value:
        choices.append(value[: rng.randrange(len(value))])
    return rng.choice(choices)


def _fuzz_mutate(rng, value):
    """`value` with one random mutation somewhere inside it: a key or an item
    removed, or a value replaced by `_fuzz_replacement`."""
    if isinstance(value, (dict, list)) and value and rng.random() < 0.9:
        value = dict(value) if isinstance(value, dict) else list(value)
        key = rng.choice(list(value) if isinstance(value, dict) else range(len(value)))
        if rng.random() < 0.25:
            del value[key]
        else:
            value[key] = _fuzz_mutate(rng, value[key])
        return value
    return _fuzz_replacement(rng, value)


def test_cli_fuzzed_json_exits_0_or_2(tmp_path):
    # Seeded mutations of valid curve, divisor and pool JSON: every run ends
    # with exit code 0 or 2, and no exception escapes the command.
    curve, marked = curve_with_marked_point(2)
    y = str(marked.y)
    valid = {
        "curve": curve_to_dict(curve),
        "divisor": {"terms": [
            {"point": {"label": "w1"}, "mult": 3},
            {"point": {"x": "0", "y": y}, "mult": -1},
            {"point": {"at_infinity": True}, "mult": 1},
        ]},
        "pool": {"points": [{"x": "0", "y": y}, {"x": "0", "y": "-" + y}, {"label": "w2"}, "w3"]},
    }
    files = {name: tmp_path / f"{name}.json" for name in valid}
    commands = [
        ["h0", "--curve", str(files["curve"]), "--divisor", str(files["divisor"])],
        ["eta", "list", "--curve", str(files["curve"])],
        ["cliff", "--curve", str(files["curve"]), "--eta", "w1,w2", "--mode", "search",
         "--pool", str(files["pool"]), "--no-probes"],
    ]
    rng = random.Random("cli-fuzz")
    codes = []
    for trial in range(240):
        target = rng.choice(list(valid))
        data = valid[target]
        for _ in range(rng.randint(1, 3)):
            data = _fuzz_mutate(rng, data)
        for name, path in files.items():
            path.write_text(json.dumps(data if name == target else valid[name]))
        argv = rng.choice([c for c in commands if str(files[target]) in c])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 - report the input that crashed
                pytest.fail(f"{argv[0]} on {target} {json.dumps(data)} raised {exc!r}")
        assert code in (0, 2), (argv[0], target, data, err.getvalue())
        assert "Traceback" not in err.getvalue()
        codes.append(code)
    assert codes.count(0) > 10 and codes.count(2) > 100


# Golden outputs: the stdout sha256 and exit code of a fixed corpus, recorded
# from a known-good build.  The CLI's JSON must stay byte-identical, so a
# digest changes only with an intended output change, recorded with it.
GOLDEN = json.loads(Path(__file__).with_name("golden_outputs.json").read_text())
# (n, m, c) of n*P + m*conj(P) + w1 + c*oo on the shifted marked curve, whose
# ordinary point P = (1/3, 9/64) has an x with denominator 3
SHIFTED_DIVISORS = ((2, 2, -4), (2, 1, -2), (3, 2, -4), (3, -2, 2), (4, -3, 2), (4, 1, -5))
GOLDEN_CORPUS = (
    [("verify-all-g3", ["verify", "all", "--genus-max", "3"])]
    + [
        (f"cliff-{mode}-g{g}-{eta}", ["cliff", "--curve", f"{{curve{g}}}", "--eta", eta, "--mode", mode]
         + (["--pool", f"{{pool{g}}}"] if mode == "search" else []))
        for g in (3, 4) for mode in ("search", "closed") for eta in ("w1,w2", "w1,w2,w3,w4")
    ]
    + [(f"h0-g3-mult{n}", ["h0", "--curve", "{curve3}", "--divisor", f"{{divisor{n}}}"])
       for n in range(-3, 4)]
    + [(f"h0-shifted-{n}P{m:+d}P'{c:+d}oo", ["h0", "--curve", "{shifted}", "--divisor", f"{{shifted{n}{m}{c}}}"])
       for n, m, c in SHIFTED_DIVISORS]
    + [
        ("scroll-g4", ["scroll", "--curve", "{curve4}", "--eta", "w1,w2,w3,w4"]),
        ("eta-list-g4", ["eta", "list", "--curve", "{curve4}"]),
    ]
)


def _golden_files(tmp_path) -> dict[str, str]:
    """Curve and pool files for the genus-3 and genus-4 marked curves, whose
    marked points are (0, 18) and (0, 72), the h0 divisors
    n*(0, 18) + (0, -18) + w1 + oo for n in -3..3, and the shifted marked
    curve with its SHIFTED_DIVISORS."""
    files = {}
    for g in (3, 4):
        curve, marked = curve_with_marked_point(g)
        y = str(marked.y)
        pool = {"points": [{"x": "0", "y": y}, {"x": "0", "y": "-" + y}, "w1", "w2", "w3"]}
        for name, data in ((f"curve{g}", curve_to_dict(curve)), (f"pool{g}", pool)):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(data))
    def divisor_file(name, x, y, n, m, c):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({"terms": [
            {"point": {"x": x, "y": y}, "mult": n},
            {"point": {"x": x, "y": "-" + y}, "mult": m},
            {"point": {"label": "w1"}, "mult": 1},
            {"point": {"at_infinity": True}, "mult": c},
        ]}))

    for n in range(-3, 4):
        divisor_file(f"divisor{n}", "0", "18", n, 1, 1)
    shifted, point = shifted_marked_curve()
    files["shifted"] = tmp_path / "shifted.json"
    files["shifted"].write_text(json.dumps(curve_to_dict(shifted)))
    for n, m, c in SHIFTED_DIVISORS:
        divisor_file(f"shifted{n}{m}{c}", str(point.x), str(point.y), n, m, c)
    return {name: str(path) for name, path in files.items()}


@pytest.mark.parametrize("case, argv", GOLDEN_CORPUS, ids=[case for case, _ in GOLDEN_CORPUS])
def test_cli_output_matches_golden_digest(tmp_path, capsys, case, argv):
    files = _golden_files(tmp_path)
    code, out, _ = run_cli(capsys, *(arg.format(**files) for arg in argv))
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert {"sha256": digest, "exit": code} == GOLDEN["cli"][case]
