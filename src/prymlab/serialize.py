"""JSON persistence for curves, divisors, 2-torsion classes and reports.

JSON is the single on-disk format.  Exact rationals travel as strings,
plain decimal for integers and "num/den" otherwise, so nothing is ever
rounded.  All emitters order keys and list entries canonically: re-encoding
the same object is byte-identical.

`dumps_canonical` writes that JSON itself.  Its bytes are, and must stay,
those of `json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True)`
plus a newline; `json` is not called for them because any `indent` makes
it fall back from its C encoder to its pure-Python one, which cost about a
quarter of a `cliff --mode search` run.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Union

from .curves import INFINITY, CurvePoint, Divisor, HyperellipticCurve
from .jacobian import TwoTorsionClass, two_torsion_from_subset
from .polynomials import as_fraction
from .prym import GeometryProbes, PrymReport
from .scroll import ScrollReport


def rational_to_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rational_from_str(text: str | int) -> Fraction:
    """A "num/den" or decimal string, or a JSON integer; a float or a bool
    is refused rather than read as its binary expansion, and a string by the
    rules of `as_fraction` (ASCII only, no '_')."""
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ValueError(f"not an exact rational: {text!r} (write it as a string, e.g. \"1/10\")")
    return as_fraction(text)


# -- curves -----------------------------------------------------------------


def curve_to_dict(curve: HyperellipticCurve) -> dict:
    weierstrass: list[dict] = []
    for i, p in enumerate(curve.weierstrass_points, start=1):
        if p.is_infinity:
            weierstrass.append({"label": f"w{i}", "at_infinity": True})
        else:
            weierstrass.append(
                {"label": f"w{i}", "x": rational_to_str(p.x), "y": rational_to_str(p.y)}
            )
    return {
        "roots": [rational_to_str(r) for r in curve.roots],
        "genus": curve.genus,
        "weierstrass": weierstrass,
    }


def curve_from_dict(data: dict) -> HyperellipticCurve:
    if not isinstance(data, dict) or not isinstance(data.get("roots"), list):
        raise ValueError("curve JSON needs a 'roots' list")
    roots = [rational_from_str(r) for r in data["roots"]]
    curve = HyperellipticCurve(roots)
    if "genus" in data and data["genus"] != curve.genus:
        raise ValueError(
            f"curve JSON claims genus {data['genus']} but the roots give {curve.genus}"
        )
    return curve


# -- points and divisors ------------------------------------------------------


def point_to_dict(point: CurvePoint, curve: HyperellipticCurve) -> dict:
    label = curve.label_of(point)
    if label is not None:
        return {"label": label}
    if point.is_infinity:
        return {"at_infinity": True}
    return {"x": rational_to_str(point.x), "y": rational_to_str(point.y)}


def point_from_dict(data: Union[dict, str], curve: HyperellipticCurve) -> CurvePoint:
    if isinstance(data, str):
        return curve.weierstrass_point(data)
    if not isinstance(data, dict):
        raise ValueError(f"cannot read a point from {data!r}")
    if data.get("at_infinity"):
        return INFINITY
    if "label" in data:
        return curve.weierstrass_point(data["label"])
    if "x" in data and "y" in data:
        point = CurvePoint.affine(rational_from_str(data["x"]), rational_from_str(data["y"]))
        if not curve.contains(point):
            raise ValueError(f"point {point} is not on the curve")
        return point
    raise ValueError(f"cannot read a point from {data!r}")


def divisor_to_dict(divisor: Divisor, curve: HyperellipticCurve) -> dict:
    return {
        "terms": [
            {"point": point_to_dict(p, curve), "mult": n} for p, n in divisor
        ]
    }


def divisor_from_dict(data: dict, curve: HyperellipticCurve) -> Divisor:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise ValueError("divisor JSON needs a 'terms' list")
    terms = []
    for item in data["terms"]:
        if not isinstance(item, dict) or "point" not in item:
            raise ValueError(f"divisor term {item!r} needs a 'point'")
        mult = item.get("mult")
        if isinstance(mult, bool) or not isinstance(mult, int):
            raise ValueError(f"divisor multiplicity {mult!r} is not an integer")
        terms.append((point_from_dict(item["point"], curve), mult))
    return Divisor(terms)


# -- 2-torsion ----------------------------------------------------------------


def eta_to_dict(eta: TwoTorsionClass) -> dict:
    return {
        "subset": list(eta.labels),
        "k": 0 if eta.is_trivial else eta.k,
    }


def eta_from_labels(curve: HyperellipticCurve, labels: Iterable[str] | str) -> TwoTorsionClass:
    """Accepts 'w1,w2' or an iterable of labels."""
    if isinstance(labels, str):
        labels = [part.strip() for part in labels.split(",") if part.strip()]
    return two_torsion_from_subset(curve, labels)


# -- reports --------------------------------------------------------------------


def probes_to_dict(probes: GeometryProbes, curve: HyperellipticCurve) -> dict:
    return {
        "base_points": [point_to_dict(p, curve) for p in probes.base_points],
        "unseparated_pairs": [
            [point_to_dict(p, curve), point_to_dict(q, curve)]
            for p, q in probes.unseparated_pairs
        ],
        "trisecant_witnesses": [
            divisor_to_dict(d, curve) for d in probes.trisecant_witnesses
        ],
    }


def prym_report_to_dict(report: PrymReport, curve: HyperellipticCurve) -> dict:
    """The report's JSON, labelling points by `curve`, which must be the
    curve of the report's class: another curve would label them wrongly."""
    if curve != report.eta.curve:
        raise ValueError(f"the report is of a class of another curve: {report.eta.curve!r}")
    return {
        "genus": report.genus,
        "eta": eta_to_dict(report.eta),
        "k": report.k,
        "cliff_eta": report.cliff_eta,
        "cliff_dim": list(report.cliff_dim) if report.cliff_dim is not None else None,
        "witnesses": [divisor_to_dict(d, curve) for d in report.witnesses],
        "mode": report.mode,
        "pool": report.pool_description,
        "iota_cliff": report.iota_cliff,
        "probes": probes_to_dict(report.probes, curve) if report.probes else None,
    }


def scroll_report_to_dict(report: ScrollReport) -> dict:
    return {
        "genus": report.genus,
        "k": report.k,
        "d_sequence": list(report.d_sequence),
        "scroll": [report.e1, report.e2],
        "factorization_type": list(report.factorization_type),
        "nu": report.nu,
        "p": report.p,
        "regularity": report.regularity,
    }


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline,
    byte for byte `json.dumps(obj, indent=2, sort_keys=True,
    ensure_ascii=True) + "\\n"` (see the module docstring); strings are
    quoted by json's C `encode_basestring_ascii`.  Only what the package
    emits is written: dicts with str keys, lists, str, int, bool and None.
    Anything else (a float, a tuple, a set, a non-str key) is a TypeError."""
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj: Any, out: list[str], newline: str) -> None:
    """Append the JSON of obj to out, its lines indented as `newline`'s."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"a JSON key must be a str, not {key!r}")
            out += (sep, encode_basestring_ascii(key), ": ")
            _write(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"not written as canonical JSON: {obj!r}")
