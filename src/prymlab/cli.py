"""Command-line interface.

Canonical JSON goes to stdout (byte-identical across re-runs with the same
inputs), a short human summary goes to stderr.  `--format table` switches
stdout to an aligned text rendering.  Exit codes: 0 success, 1 verification
failure, 2 malformed input.  `main` maps every ValueError to exit 2 with its
message; any other exception is an engine bug and exits 1 with a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .curves import HyperellipticCurve
from .polynomials import MAX_STRING_DIGITS
from .prym import closed_form_report, search_report
from .riemann_roch import h0
from .scroll import park_parameters, scroll_report
from .serialize import (
    curve_from_dict,
    curve_to_dict,
    divisor_from_dict,
    dumps_canonical,
    eta_from_labels,
    eta_to_dict,
    point_from_dict,
    prym_report_to_dict,
    scroll_report_to_dict,
)
from .verify import SUITE_NAMES, run_suite


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _load_curve(path: str) -> HyperellipticCurve:
    return curve_from_dict(_load_json(path))


def _emit(payload, fmt: str, table_lines) -> None:
    if fmt == "table":
        sys.stdout.write("\n".join(table_lines) + "\n")
    else:
        sys.stdout.write(dumps_canonical(payload))


def _say(message: str) -> None:
    print(message, file=sys.stderr)


# -- subcommands ---------------------------------------------------------------


def _cmd_curve_new(args) -> int:
    curve = HyperellipticCurve([part.strip() for part in args.roots.split(",") if part.strip()])
    try:
        payload = curve_to_dict(curve)
        lines = [f"genus\t{curve.genus}", f"f(x)\t{curve.f}"] + [
            f"{lab}\t{p}" for lab, p in zip(curve.weierstrass_labels, curve.weierstrass_points)
        ]
    except ValueError:  # Python refuses to print an integer this long
        raise ValueError(
            f"f(x) has a coefficient of more than {MAX_STRING_DIGITS} digits; use smaller roots"
        ) from None
    _emit(payload, args.format, lines)
    _say(f"genus {curve.genus} curve with {2 * curve.genus + 2} Weierstrass points")
    return 0


def _cmd_eta_list(args) -> int:
    from .jacobian import enumerate_two_torsion

    curve = _load_curve(args.curve)
    classes = enumerate_two_torsion(curve)
    histogram = Counter(str(c.k) for c in classes)
    payload = {
        "count": len(classes),
        "k_histogram": histogram,
        "classes": [eta_to_dict(c) for c in classes],
    }
    lines = [f"count\t{len(classes)}"] + [
        f"k={k}\t{n}" for k, n in sorted(histogram.items())
    ]
    _emit(payload, args.format, lines)
    _say(f"{len(classes)} nontrivial 2-torsion classes")
    return 0


def _cmd_cliff(args) -> int:
    curve = _load_curve(args.curve)
    eta = eta_from_labels(curve, args.eta)
    if args.mode == "closed":
        if args.pool != "weierstrass" or args.max_degree is not None:
            raise ValueError("--pool and --max-degree apply only to --mode search")
        report = closed_form_report(curve, eta, include_probes=not args.no_probes)
    else:
        pool = None
        if args.pool != "weierstrass":
            data = _load_json(args.pool)
            points = data.get("points", []) if isinstance(data, dict) else None
            if not isinstance(points, list):
                raise ValueError("pool JSON needs a 'points' list")
            pool = [point_from_dict(p, curve) for p in points]
        report = search_report(
            curve, eta, pool=pool, max_degree=args.max_degree,
            include_probes=not args.no_probes,
        )
    payload = prym_report_to_dict(report, curve)
    lines = [
        f"genus\t{report.genus}",
        f"eta\t{','.join(report.eta.labels)} (k={report.k})",
        f"cliff_eta\t{report.cliff_eta}",
        f"cliff_dim\t{report.cliff_dim}",
        f"mode\t{report.mode}",
        f"pool\t{report.pool_description}",
        f"iota_cliff\t{report.iota_cliff}",
        f"witnesses\t{len(report.witnesses)}",
    ]
    _emit(payload, args.format, lines)
    _say(
        f"index {report.cliff_eta} with dimension pair {report.cliff_dim} "
        f"({report.mode}, pool: {report.pool_description})"
    )
    return 0


def _cmd_scroll(args) -> int:
    curve = _load_curve(args.curve)
    report = scroll_report(curve, eta_from_labels(curve, args.eta))
    payload = scroll_report_to_dict(report)
    lines = [
        f"genus\t{report.genus}",
        f"k\t{report.k}",
        f"d_sequence\t{list(report.d_sequence)}",
        f"scroll\tS({report.e1}, {report.e2})",
        f"factorization_type\t{list(report.factorization_type)}",
        f"nu\t{report.nu}",
        f"p\t{report.p}",
        f"regularity\t{report.regularity}",
    ]
    _emit(payload, args.format, lines)
    summary = f"scroll S({report.e1}, {report.e2}), drops {list(report.d_sequence)}"
    if report.nu is not None:
        summary += f", nu={report.nu}, p={report.p}, regularity={report.regularity}"
        if report.p < 1:
            summary += " (p < 1: below the syzygy-property range, reported uninterpreted)"
    _say(summary)
    return 0


def _cmd_park(args) -> int:
    nu, p, regularity = park_parameters(args.genus, args.k)
    payload = {"nu": nu, "p": p, "regularity": regularity}
    _emit(payload, args.format, [f"nu\t{nu}", f"p\t{p}", f"regularity\t{regularity}"])
    note = " (p < 1: below the syzygy-property range)" if p < 1 else ""
    _say(f"nu={nu} p={p} regularity={regularity}{note}")
    return 0


def _cmd_h0(args) -> int:
    curve = _load_curve(args.curve)
    divisor = divisor_from_dict(_load_json(args.divisor), curve)
    value = h0(curve, divisor)
    payload = {"degree": divisor.degree, "h0": value}
    _emit(payload, args.format, [f"degree\t{divisor.degree}", f"h0\t{value}"])
    _say(f"h0 = {value} (degree {divisor.degree})")
    return 0


def _cmd_verify(args) -> int:
    suite = run_suite(args.suite, args.genus_max)
    payload = {
        "suite": suite.name,
        "genus_max": suite.genus_max,
        "checks": [
            {"claim": c.claim, "status": c.status, "detail": c.detail} for c in suite.checks
        ],
        "passed": suite.passed,
        "failed": suite.failed,
    }
    lines = [f"{c.status.upper()}\t{c.claim}\t{c.detail}" for c in suite.checks]
    lines.append(f"passed\t{suite.passed}")
    lines.append(f"failed\t{suite.failed}")
    _emit(payload, args.format, lines)
    for c in suite.checks:
        _say(f"[{c.status}] {c.claim}: {c.detail}")
    _say(
        f"suite {suite.name}: {suite.passed} passed, {suite.failed} failed "
        f"in {suite.elapsed_seconds:.1f}s"
    )
    return 0 if suite.ok else 1


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prymlab",
        description=(
            "Exact invariants of split hyperelliptic curves with a 2-torsion twist: "
            "Riemann-Roch dimensions, twisted Clifford indices, scroll types and "
            "verification suites."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table"), default="json",
        help="stdout rendering (default: json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curve = sub.add_parser("curve", help="curve constructors")
    curve_sub = p_curve.add_subparsers(dest="curve_command", required=True)
    p_new = curve_sub.add_parser("new", parents=[common], help="build a curve from rational roots")
    p_new.add_argument("--roots", required=True, help="comma-separated exact rationals")
    p_new.set_defaults(fn=_cmd_curve_new)

    p_eta = sub.add_parser("eta", help="2-torsion classes")
    eta_sub = p_eta.add_subparsers(dest="eta_command", required=True)
    p_list = eta_sub.add_parser("list", parents=[common], help="enumerate all nontrivial classes")
    p_list.add_argument("--curve", required=True, help="curve JSON file")
    p_list.set_defaults(fn=_cmd_eta_list)

    p_cliff = sub.add_parser("cliff", parents=[common], help="twisted Clifford index report")
    p_cliff.add_argument("--curve", required=True)
    p_cliff.add_argument("--eta", required=True, help="comma-separated labels, e.g. w1,w2")
    p_cliff.add_argument("--mode", choices=("closed", "search"), default="closed")
    p_cliff.add_argument(
        "--pool", default="weierstrass",
        help="'weierstrass' or a JSON file with a 'points' list (search mode)",
    )
    p_cliff.add_argument("--max-degree", type=int, default=None)
    p_cliff.add_argument("--no-probes", action="store_true", help="skip geometry probes")
    p_cliff.set_defaults(fn=_cmd_cliff)

    p_scroll = sub.add_parser("scroll", parents=[common], help="scroll type and drop sequence")
    p_scroll.add_argument("--curve", required=True)
    p_scroll.add_argument("--eta", required=True)
    p_scroll.set_defaults(fn=_cmd_scroll)

    p_park = sub.add_parser("park", parents=[common], help="resolution-shape parameters (nu, p, regularity)")
    p_park.add_argument("--genus", type=int, required=True)
    p_park.add_argument("--k", type=int, required=True)
    p_park.set_defaults(fn=_cmd_park)

    p_h0 = sub.add_parser("h0", parents=[common], help="dimension of a Riemann-Roch space")
    p_h0.add_argument("--curve", required=True)
    p_h0.add_argument("--divisor", required=True, help="divisor JSON file")
    p_h0.set_defaults(fn=_cmd_h0)

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITE_NAMES)}")
    p_verify.add_argument("--genus-max", type=int, default=6)
    p_verify.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on malformed input; --help and --version exit 0
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.fn(args)
    except ValueError as exc:  # malformed input; engine bugs are not ValueErrors
        _say(f"error: {exc}")
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
