"""JSON round trips and canonical encoding."""

import json
from fractions import Fraction

import pytest

from prymlab import Divisor, curve_with_marked_point, standard_curve, two_torsion_from_subset
from prymlab import cli
from prymlab.prym import closed_form_report, search_report
from prymlab.scroll import scroll_report
from prymlab.serialize import (
    curve_from_dict,
    curve_to_dict,
    divisor_from_dict,
    divisor_to_dict,
    dumps_canonical,
    eta_from_labels,
    eta_to_dict,
    point_from_dict,
    point_to_dict,
    prym_report_to_dict,
    rational_from_str,
    rational_to_str,
    scroll_report_to_dict,
)


def test_rational_strings():
    assert rational_to_str(Fraction(0)) == "0"
    assert rational_to_str(Fraction(-7)) == "-7"
    assert rational_to_str(Fraction(3, 4)) == "3/4"
    assert rational_from_str("3/4") == Fraction(3, 4)
    assert rational_from_str("-7") == Fraction(-7)


def test_curve_round_trip():
    c = standard_curve(2)
    data = curve_to_dict(c)
    assert data["genus"] == 2
    assert data["roots"] == ["1", "2", "3", "4", "5"]
    assert data["weierstrass"][0] == {"label": "w1", "x": "1", "y": "0"}
    assert data["weierstrass"][-1] == {"label": "w6", "at_infinity": True}
    assert curve_from_dict(data) == c


def test_curve_dict_validation():
    with pytest.raises(ValueError):
        curve_from_dict({"genus": 2})
    with pytest.raises(ValueError):
        curve_from_dict({"roots": ["1", "2", "3", "4", "5"], "genus": 3})


def test_point_round_trip():
    c, marked = curve_with_marked_point(2)
    w1 = c.weierstrass_points[0]
    assert point_to_dict(w1, c) == {"label": "w1"}
    assert point_from_dict({"label": "w1"}, c) == w1
    inline = point_to_dict(marked, c)
    assert inline == {"x": "0", "y": "6"}
    assert point_from_dict(inline, c) == marked
    oo = point_from_dict({"at_infinity": True}, c)
    assert oo.is_infinity
    with pytest.raises(ValueError):
        point_from_dict({"x": "1", "y": "1"}, c)  # not on the curve


def test_divisor_round_trip():
    c, marked = curve_with_marked_point(2)
    d = Divisor(((c.weierstrass_points[0], 2), (marked, -1), (c.infinity, 3)))
    data = divisor_to_dict(d, c)
    assert divisor_from_dict(data, c) == d
    # label shorthand accepted
    short = {"terms": [{"point": "w1", "mult": 1}]}
    assert divisor_from_dict(short, c) == Divisor.of_point(c.weierstrass_points[0])


def test_eta_round_trip():
    c = standard_curve(3)
    eta = two_torsion_from_subset(c, ["w1", "w2", "w3", "w4"])
    data = eta_to_dict(eta)
    assert data == {"subset": ["w1", "w2", "w3", "w4"], "k": 2}
    assert two_torsion_from_subset(c, data["subset"]) == eta
    assert eta_from_labels(c, "w1, w2,w3,w4") == eta


def test_prym_report_shape():
    c = standard_curve(2)
    eta = two_torsion_from_subset(c, ["w1", "w2"])
    report = closed_form_report(c, eta, include_probes=True)
    data = prym_report_to_dict(report, c)
    assert set(data) == {
        "genus", "eta", "k", "cliff_eta", "cliff_dim", "witnesses",
        "mode", "pool", "iota_cliff", "probes",
    }
    assert data["cliff_eta"] == 0
    assert data["cliff_dim"] == [0, 0]
    assert data["witnesses"] == [{"terms": [{"point": {"label": "w1"}, "mult": 1}]}]
    assert data["probes"]["base_points"] == [{"label": "w1"}, {"label": "w2"}]


def test_prym_report_refuses_another_curve():
    # w10 of the genus-4 curve is the base point at infinity of the genus-3
    # class: labelled by the wrong curve, the report would contradict itself
    c3 = standard_curve(3)
    report = closed_form_report(c3, two_torsion_from_subset(c3, ["w1", "w8"]), include_probes=True)
    with pytest.raises(ValueError, match="another curve"):
        prym_report_to_dict(report, standard_curve(4))


def test_scroll_report_shape():
    c = standard_curve(5)
    eta = two_torsion_from_subset(c, [f"w{i}" for i in range(1, 7)])
    data = scroll_report_to_dict(scroll_report(c, eta))
    assert data == {
        "genus": 5,
        "k": 3,
        "d_sequence": [2, 2],
        "scroll": [1, 1],
        "factorization_type": [1, 6],
        "nu": 5,
        "p": 0,
        "regularity": 6,
    }


def test_dumps_canonical_is_deterministic():
    c = standard_curve(2)
    eta = two_torsion_from_subset(c, ["w1", "w2"])
    a = dumps_canonical(prym_report_to_dict(closed_form_report(c, eta), c))
    b = dumps_canonical(prym_report_to_dict(closed_form_report(c, eta), c))
    assert a == b
    assert a.endswith("\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


AWKWARD_STRINGS = [
    "",
    'a "quoted" word',
    "back\\slash",
    "".join(map(chr, range(32))) + "\x7f",
    "caf\u00e9 \u03b7-twist \u4e2d",
    "line\u2028separator\u2029",
    "astral \U0001d4aa \U0001f600",
]


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {"empty": {}, "none": [], "nested": [{}, []]},
        {"a": {"b": [{"c": [[{"d": [1, {"e": None}]}]]}]}},
        AWKWARD_STRINGS,
        {text: text for text in AWKWARD_STRINGS},
        [-1, 0, 7, -(10**40), True, False, None],
        {"z": 1, "a": 2, "M": 3, "\u00e9": 4, "aa": [True, {"b": False, "a": None}]},
        "top-level string",
        -3,
        None,
    ],
)
def test_dumps_canonical_is_byte_identical_to_json_dumps(obj):
    assert dumps_canonical(obj) == _json_dumps(obj)


def test_dumps_canonical_is_byte_identical_on_reports():
    curve, marked = curve_with_marked_point(4)
    eta = two_torsion_from_subset(curve, ["w1", "w2", "w3", "w4"])
    pool = list(curve.weierstrass_points) + [marked, marked.conjugate()]
    search = prym_report_to_dict(search_report(curve, eta, pool=pool, include_probes=True), curve)
    assert search["probes"] is not None and search["witnesses"]
    c5 = standard_curve(5)
    scroll = scroll_report_to_dict(scroll_report(c5, two_torsion_from_subset(c5, ["w1", "w2", "w3", "w4"])))
    for payload in (search, scroll, curve_to_dict(curve)):
        assert dumps_canonical(payload) == _json_dumps(payload)


def test_dumps_canonical_is_byte_identical_on_the_verify_payload(capsys):
    assert cli.main(["verify", "all", "--genus-max", "3"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["checks"] and payload["failed"] == 0
    assert dumps_canonical(payload) == _json_dumps(payload) == out


@pytest.mark.parametrize(
    "obj", [1.5, {"x": 0.0}, (1, 2), [[1], (2,)], {1, 2}, {1: "a"}, {"a": {2: "b"}}, Fraction(1, 2)]
)
def test_dumps_canonical_refuses_what_the_package_never_emits(obj):
    with pytest.raises(TypeError):
        dumps_canonical(obj)
