"""Named single-edit mutants of the kernel engine.

Each entry names a file under src/prymlab, an exact text that occurs there
once, the text that replaces it, and a note: the first test that kills
the mutant in a `-x` run, or why the mutant is equivalent and cannot be
killed.  `python tests/run_mutants.py` applies each edit to a copy of the
repository and runs the tier-1 suite there with `-x
--ignore=tests/test_mutants.py`; a killed mutant fails it.
`tests/test_mutants.py` checks that every old text still
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
    Mutant(
        "poly-unreduced",
        "polynomials.py",
        "g = gcd(den, *nums)",
        "g = 1",
        "killed: tests/test_acceptance.py::test_criterion_9_engine_soundness",
    ),
    Mutant(
        "json-keys-unsorted",
        "serialize.py",
        "for key in sorted(obj):",
        "for key in obj:",
        "killed: tests/test_cli.py::test_cli_output_matches_golden_digest[verify-all-g3]",
    ),
    Mutant(
        "xgcd-cofactor-sign",
        "polynomials.py",
        "(g - s * a).exact_div(b)",
        "(s * a - g).exact_div(b)",
        "killed: tests/test_jacobian.py::test_mumford_of_divisor_matches_point_by_point_oracle[genus2]",
    ),
    Mutant(
        "rank-fallback-cut-rows",
        "linalg.py",
        "return len(_eliminate(rows, cols, reduce=False)[0])",
        "return len(_eliminate([r[:w] for r in rows], w, reduce=False)[0])",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[engine]",
    ),
    Mutant(
        "checked-never-refuses",
        "curves.py",
        "if not self.contains(point):",
        "if False:",
        "killed: tests/test_cli.py::test_h0_rejects_point_off_the_curve",
    ),
    Mutant(
        "search-skips-sectionless-combination",
        "prym.py",
        'raise ArithmeticError(f"h0 {sections} of an effective divisor: engine bug")',
        "continue",
        "killed: tests/test_prym.py::test_search_refuses_an_effective_combination_without_sections",
    ),
)
