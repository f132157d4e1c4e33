"""Seeded inputs and checked ops for the three benchmark workloads.

Every workload builds a fresh `HyperellipticCurve` from seeded roots, so its
h0 memo starts empty whatever ran before in the process.  Ops draw their
inputs from one seeded `random.Random`, in a fixed order, so a seed fixes the
whole op stream however long a run lasts.

All calls into the package go through module attributes (`prym.search_report`,
`riemann_roch.h0`, ...), never through names bound at import time, so the
tracer in `tracing.py` sees every call it wraps.

An op returns `(ok, text)`: `ok` is the result of explicit comparisons (no
`assert`, so `python -O` keeps the gate) and `text` is the op's canonical
JSON, which feeds the output digest.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time

from prymlab import curves, jacobian, prym, riemann_roch, scroll, serialize


def _seeded_roots(rng: random.Random, genus: int) -> list[int]:
    """2g+1 distinct integer roots in [-3g, 3g]."""
    return rng.sample(range(-3 * genus, 3 * genus + 1), 2 * genus + 1)


class Workload:
    """Inputs spread over several fresh curves.

    The cost of exact arithmetic differs from curve to curve by up to a fifth,
    so each run averages over `n_curves` seeded curves instead of one:
    op i runs on curve (i // block) % n_curves, where a block is one turn of
    the workload's cycle of op kinds.
    """

    name: str
    genus: int
    batch_ops: int  # ops in one round: a fresh, cold copy of the workload
    n_curves: int
    block = 1

    def curve_of(self, i: int) -> int:
        return (i // self.block) % self.n_curves

    def memo_entries(self) -> int:
        # read-only look at the package's private per-curve h0 memo
        return sum(len(curve._h0_cache) for curve in self.curves)


class Classify(Workload):
    """`prymlab cliff --mode search` with probes, on fresh genus-4 curves.

    Each curve runs its own seeded ordering of all 255 nontrivial 2-torsion
    classes, so consecutive classes on a curve share most of their h0 memo
    entries.
    """

    name = "classify"
    genus = 4
    batch_ops = 8
    n_curves = 4

    def __init__(self, seed: int):
        rng = random.Random(f"classify:{seed}")
        g = self.genus
        self.curves = [curves.HyperellipticCurve(_seeded_roots(rng, g)) for _ in range(self.n_curves)]
        n = 2 * g + 2
        subsets = [
            combo
            for k in range(1, (g + 1) // 2 + 1)
            for combo in itertools.combinations(range(1, n + 1), 2 * k)
        ]
        # 2k <= g+1 < n/2, so every subset is already canonical and distinct
        self.etas = []
        for curve in self.curves:
            rng.shuffle(subsets)
            self.etas.append([jacobian.two_torsion_from_subset(curve, s) for s in subsets])

    def next_input(self, i: int):
        etas = self.etas[self.curve_of(i)]
        return etas[(i // self.n_curves) % len(etas)]

    def run(self, eta) -> tuple[bool, str]:
        curve = eta.curve
        found = prym.search_report(curve, eta, include_probes=True)
        closed = prym.closed_form_report(curve, eta)
        text = serialize.dumps_canonical(serialize.prym_report_to_dict(found, curve))
        k = eta.k
        ok = found.cliff_eta == closed.cliff_eta == k - 1
        ok = ok and found.cliff_dim == closed.cliff_dim == (0, 0)
        probes = found.probes
        if k == 1:
            subset_points = tuple(curve.weierstrass_point(i) for i in sorted(eta.subset))
            ok = ok and probes.base_points == subset_points
        else:
            ok = ok and probes.base_points == ()
        if k == 2:
            ok = ok and len(probes.unseparated_pairs) >= 1
        return ok, text


class _MarkedCurve:
    """A translate of `curve_with_marked_point(4)` with its marked point."""

    def __init__(self, genus: int, shift: int):
        marked_curve, marked = curves.curve_with_marked_point(genus)
        self.curve = curves.HyperellipticCurve([r + shift for r in marked_curve.roots])
        self.point = self.curve.point(marked.x + shift, marked.y)
        self.affine_w = self.curve.weierstrass_points[:-1]
        self.canonical = self.curve.canonical_divisor()

    def __repr__(self) -> str:
        return f"_MarkedCurve({self.curve!r}, {self.point})"


class Engine(Workload):
    """Riemann-Roch identity, bases with valuations, and Cantor cross-checks
    on random divisors over the ramification points plus an ordinary pair.

    The curves are `curve_with_marked_point(4)` translated by seeded shifts
    x -> x + t, rebuilt as new instances so their memos are empty; the
    translation keeps the marked rational point off the ramification locus.
    Inputs rarely repeat.
    """

    name = "engine"
    genus = 4
    batch_ops = 500
    n_curves = 8
    block = 4
    KINDS = ("identity", "basis", "cantor", "identity")

    def __init__(self, seed: int):
        self.rng = random.Random(f"engine:{seed}")
        shifts = self.rng.sample(range(-8, 9), self.n_curves)
        self.marked = [_MarkedCurve(self.genus, t) for t in shifts]
        self.curves = [m.curve for m in self.marked]

    def _random_divisor(self, m: _MarkedCurve, degree: int) -> curves.Divisor:
        """Random multiplicities on a few ramification points and on the
        marked point and its conjugate; infinity fixes the degree."""
        rng = self.rng
        terms = [(w, rng.choice((-2, -1, 1, 2))) for w in rng.sample(m.affine_w, rng.randint(1, 3))]
        terms.append((m.point, rng.randint(-3, 3)))
        terms.append((m.point.conjugate(), rng.randint(-3, 3)))
        affine = sum(n for _, n in terms)
        terms.append((curves.INFINITY, degree - affine))
        return curves.Divisor(terms)

    def next_input(self, i: int):
        rng = self.rng
        m = self.marked[self.curve_of(i)]
        kind = self.KINDS[i % self.block]
        if kind != "cantor":
            return m, kind, self._random_divisor(m, rng.randint(0, 2 * self.genus - 2)), None, None
        d1 = self._random_divisor(m, 0)
        inf2 = curves.Divisor.of_point(curves.INFINITY, 2)
        choice = rng.randrange(3)
        if choice == 0:  # div(x - r_w) = 2w - 2oo
            diff = curves.Divisor.of_point(rng.choice(m.affine_w), 2) - inf2
            equivalent = True
        elif choice == 1:  # div(x - x_P) = P + conj(P) - 2oo
            diff = curves.Divisor.of_points((m.point, m.point.conjugate())) - inf2
            equivalent = True
        else:  # w1 - w2 is a nontrivial 2-torsion class
            w1, w2 = rng.sample(m.affine_w, 2)
            diff = curves.Divisor(((w1, 1), (w2, -1)))
            equivalent = False
        return m, kind, d1, d1 + diff, equivalent

    def run(self, inp) -> tuple[bool, str]:
        m, kind, d, d2, equivalent = inp
        curve = m.curve
        sections = riemann_roch.h0(curve, d)
        residual = riemann_roch.h0(curve, m.canonical - d)
        ok = sections - residual == d.degree - self.genus + 1
        out = {
            "divisor": serialize.divisor_to_dict(d, curve),
            "h0": sections,
            "h0_residual": residual,
        }
        if kind == "basis":
            space = riemann_roch.riemann_roch_space(curve, d)
            ok = ok and len(space.basis) == sections
            for fn in space.basis:
                for p, n in d:
                    ok = ok and riemann_roch.valuation(curve, fn, p) >= -n
            out["basis"] = [str(fn) for fn in space.basis]
        elif kind == "cantor":
            by_cantor = jacobian.mumford_of_divisor(curve, d) == jacobian.mumford_of_divisor(curve, d2)
            by_h0 = riemann_roch.is_linearly_equivalent(curve, d, d2)
            ok = ok and by_cantor == by_h0 == equivalent
            out["other"] = serialize.divisor_to_dict(d2, curve)
            out["equivalent"] = by_h0
        return ok, serialize.dumps_canonical(out)


class Scroll(Workload):
    """`prymlab scroll` on fresh genus-13 curves, k cycling over 2..7.

    Classes are drawn as seeded label subsets, never by enumerating all
    C(2g+2, 2k) subsets, which alone would take longer than a run.
    """

    name = "scroll"
    genus = 13
    batch_ops = 48
    n_curves = 8
    KS = range(2, (genus + 1) // 2 + 1)
    block = len(KS)

    def __init__(self, seed: int):
        self.rng = random.Random(f"scroll:{seed}")
        self.curves = [
            curves.HyperellipticCurve(_seeded_roots(self.rng, self.genus)) for _ in range(self.n_curves)
        ]

    def next_input(self, i: int):
        k = self.KS[i % self.block]
        subset = self.rng.sample(range(1, 2 * self.genus + 3), 2 * k)
        return jacobian.two_torsion_from_subset(self.curves[self.curve_of(i)], subset)

    def run(self, eta) -> tuple[bool, str]:
        report = scroll.scroll_report(eta.curve, eta)
        text = serialize.dumps_canonical(serialize.scroll_report_to_dict(report))
        g, k = self.genus, eta.k
        ok = (report.genus, report.k) == (g, k)
        ok = ok and (report.e1, report.e2) == (g - 1 - k, k - 2)
        ok = ok and sum(report.d_sequence) == g - 1
        return ok, text


WORKLOADS = {w.name: w for w in (Classify, Engine, Scroll)}


class LoopResult:
    """Per-op latencies, failures and the digest of one round's output."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)


def run_loop(work, n_ops: int, tracer=None) -> LoopResult:
    """One round: a closed loop of exactly `n_ops` ops, each timed alone."""
    result = LoopResult()
    clock = time.perf_counter_ns
    for i in range(n_ops):
        inp = work.next_input(i)
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        try:
            ok, text = work.run(inp)
        except Exception as exc:  # any exception is a failed op, counted
            ok, text = False, f"error: {type(exc).__name__}\n"
            note = f"{type(exc).__name__}: {exc}"
        else:
            note = "exactness check failed"
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        result.latencies_ns.append(t1 - t0)
        if not ok:
            result.failed += 1
            if len(result.errors) < 5:
                result.errors.append(f"op {i}: {note}")
        result.digest.update(text.encode())
    return result
