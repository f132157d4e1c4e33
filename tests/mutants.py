"""Named single-edit mutants of the kernel engine.

Each entry names a file under src/prymlab, an exact text that occurs there
once, the text that replaces it, and a note: the first test that kills
the mutant in a `-x` run, or why the mutant is equivalent and cannot be
killed.  To run one, apply the edit to a copy of the repository and run
the tier-1 suite there with `-x --ignore=tests/test_mutants.py`; a killed
mutant fails it.  `tests/test_mutants.py` checks that every old text still
occurs exactly once, so an edit of the source that moves a mutant's site
shows up as a failing test, not as a silent no-op; every mutant fails that
check, which is why a mutant run leaves it out.  The list only grows: a
routine that is replaced gets mutants of its replacement.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    note: str


MUTANTS = (
    Mutant(
        "branch-unscaled",
        "riemann_roch.py",
        "branch = [c / q**s for s, c in enumerate(_branch(curve, place, t))]",
        "branch = [c for s, c in enumerate(_branch(curve, place, t))]",
        "killed: tests/test_riemann_roch.py::"
        "test_fractional_roots_riemann_roch_with_ordinary_points",
    ),
    Mutant(
        "pencil-pivot-count",
        "riemann_roch.py",
        "bisect_right(pivots, top))",
        "bisect_right(pivots, top + 1))",
        "killed: tests/test_riemann_roch.py::"
        "test_pencil_h0s_match_class_h0_with_ordinary_terms",
    ),
    Mutant(
        "bareiss-zero-entry-unscaled",
        "linalg.py",
        "rows[i] = [piv * a // prev for a in row]",
        "rows[i] = row",
        "killed: perfbench/test_perfbench.py::test_timed_run_prints_every_end_to_end_metric",
    ),
    Mutant(
        "search-last-tie",
        "prym.py",
        "if best_key is None or key < best_key:",
        "if best_key is None or key <= best_key:",
        "killed: tests/test_cli.py::test_cli_output_matches_golden_digest[cliff-search-g3-w1,w2]",
    ),
    Mutant(
        "conjugate-branch-unnegated",
        "riemann_roch.py",
        "return tuple([-c for c in cached[:precision]])",
        "return tuple(cached[:precision])",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[engine]",
    ),
    Mutant(
        "cantor-reduce-sign",
        "jacobian.py",
        "v = (-v) % u if u.degree > 0 else Poly()",
        "v = v % u if u.degree > 0 else Poly()",
        "killed: tests/test_acceptance.py::test_criterion_9_engine_soundness",
    ),
    Mutant(
        "memo-never-clears",
        "curves.py",
        "memo.clear()",
        "pass",
        "killed: tests/test_riemann_roch.py::test_point_memos_stay_under_the_cap",
    ),
    Mutant(
        "valuation-short-norm-bound",
        "riemann_roch.py",
        "prec = norm.multiplicity_at(x0) + 1",
        "prec = norm.multiplicity_at(x0)",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[engine]",
    ),
    Mutant(
        "dj-first-drop-unchecked",
        "scroll.py",
        " or drops[0] != 2",
        "",
        "killed: tests/test_scroll.py::test_dj_rejects_a_zero_drop (the 4, 3, 2, 1, 0 profile)",
    ),
    Mutant(
        "closed-form-witness-tail",
        "prym.py",
        "sorted(eta.subset)[:k]",
        "sorted(eta.subset)[k:]",
        "killed: tests/test_cli.py::test_cli_output_matches_golden_digest[cliff-closed-g3-w1,w2]",
    ),
    Mutant(
        "twist-minus-beta",
        "jacobian.py",
        "return divisor + self.beta_divisor()",
        "return divisor - self.beta_divisor()",
        "equivalent: 2 * beta is principal, so d - beta and d + beta are one class, "
        "of one degree and with the same odd ramification coefficients",
    ),
)
