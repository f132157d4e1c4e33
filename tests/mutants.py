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


# A mutant that breaks the collection of a test file is killed by the file as
# a whole, not by one test in it: its note reads "killed: FILE::(collection)".
COLLECTION = "(collection)"


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
        "branch = [c / q**s for s, c in enumerate(curve_branch(curve, place, t))]",
        "branch = [c for s, c in enumerate(curve_branch(curve, place, t))]",
        "killed: tests/test_riemann_roch.py::"
        "test_fractional_roots_riemann_roch_with_ordinary_points",
    ),
    Mutant(
        "bareiss-zero-entry-unscaled",
        "linalg.py",
        "return [piv * a // prev for a in row]",
        "return row",
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
        "series.py",
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
        "killed: tests/test_riemann_roch.py::test_chains_survive_a_store_cleared_mid_build"
        " (tests/test_riemann_roch.py::test_point_memos_stay_under_the_cap kills it too)",
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
        "killed: tests/test_jacobian.py::test_twist_is_the_sum_with_the_beta_divisor "
        "(d - beta and d + beta are one class, since 2 * beta is principal, but not one divisor)",
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
        "return _eliminate(rows, cols, reduce=False)[0]",
        "return _eliminate([r[:w] for r in rows], w, reduce=False)[0]",
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
    Mutant(
        "rank-certificate-one-short",
        "linalg.py",
        "reduce=False)[0]) == w:",
        "reduce=False)[0]) >= w - 1:",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[engine]",
    ),
    Mutant(
        "space-matrix-ordinary-dropped",
        "riemann_roch.py",
        "if not ordinary:",
        "if True:",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[engine]",
    ),
    Mutant(
        "pencil-key-untwisted",
        "scroll.py",
        "(0, (), 2 * g - 2), eta.mask)",
        "(0, (), 2 * g - 2), 0)",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[scroll]",
    ),
    Mutant(
        "rr-certificate-zero-divisor",
        "scroll.py",
        "h0(curve, eta.beta_divisor())",
        "h0(curve, eta.beta_divisor() * 0)",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[scroll]",
    ),
    Mutant(
        "rr-certificate-minus-beta",
        "scroll.py",
        "+ h0(curve, eta.beta_divisor())",
        "+ h0(curve, -eta.beta_divisor())",
        "equivalent: -beta ~ beta, since 2 beta is principal, so the two have one class key"
        " and one h0",
    ),
    Mutant(
        "conjugate-links-to-itself",
        "curves.py",
        'object.__setattr__(conj, "_conjugate", self)',
        'object.__setattr__(conj, "_conjugate", conj)',
        "killed: perfbench/test_perfbench.py::"
        "test_tracer_restores_originals_and_accounts_for_op_time",
    ),
    Mutant(
        "pencil-stop-rule",
        "riemann_roch.py",
        "len(values) < curve.genus and ",
        "",
        "killed: tests/test_riemann_roch.py::test_pencil_h0s_match_the_matrix_route_on_shifted_curves[3]"
        " (tests/test_riemann_roch.py::test_pencil_h0s_stop_after_g_values_when_h0_never_reaches_zero"
        " kills it too)",
    ),
    Mutant(
        "once-per-run-recomputes",
        "verify.py",
        "cache(search_report)",
        "search_report",
        "killed: tests/test_verify.py::test_each_class_is_searched_once_per_run",
    ),
    Mutant(
        "cap-off-by-one",
        "riemann_roch.py",
        "cap = 2 * sum(m for _, m in den) + n_inf",
        "cap = 2 * sum(m for _, m in den) + n_inf + 1",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[engine]"
        " (the matrix route counts the extra column; the chain route, which never"
        " builds a matrix, does not)",
    ),
    Mutant(
        "no-mod-2-fold",
        "jacobian.py",
        "for i, n in ramification if n % 2]",
        "for i, n in ramification if n]",
        "killed: perfbench/test_perfbench.py::test_timed_run_prints_every_end_to_end_metric",
    ),
    Mutant(
        "valuation-convolution-short",
        "riemann_roch.py",
        "sum(tb[l - s] * y[s] for s in range(l + 1))",
        "sum(tb[l - s] * y[s] for s in range(l))",
        "killed: perfbench/test_perfbench.py::test_timed_run_prints_every_end_to_end_metric",
    ),
    Mutant(
        "poly-quotient-unscaled",
        "polynomials.py",
        "_poly([x * db for x in quot], s * da)",
        "_poly(quot, s * da)",
        "killed: perfbench/test_perfbench.py::test_timed_run_prints_every_end_to_end_metric",
    ),
    Mutant(
        "unrank-pair-range-short",
        "verify.py",
        "bisect_right(range(n - 1), index, key=before)",
        "bisect_right(range(n - 2), index, key=before)",
        "killed: tests/test_verify.py::test_unrank_pair_lists_the_pairs_of_combinations"
        " (only the last pair, (n - 2, n - 1), is unranked wrong)",
    ),
    Mutant(
        "mumford-second-fibre-replaces-first",
        "jacobian.py",
        "u, v = _compose(curve, u, v, *pair)",
        "u, v = pair",
        "killed: tests/test_jacobian.py::test_mumford_of_divisor_joins_two_ordinary_fibres",
    ),
    Mutant(
        "poly-product-drops-a-denominator",
        "polynomials.py",
        "return _poly(out, self.denominator * other.denominator)",
        "return _poly(out, self.denominator)",
        "killed: tests/test_jacobian.py::(collection) (its parameters build the shifted"
        " marked curve, and with f wrong its marked point fails `curve.contains`)",
    ),
    Mutant(
        "poly-difference-adds",
        "polynomials.py",
        "sign * (den // db)",
        "den // db",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[engine]",
    ),
    Mutant(
        "pseudo-division-step-adds",
        "polynomials.py",
        "[r - q * d for r, d in zip(rem[base:i], low)]",
        "[r + q * d for r, d in zip(rem[base:i], low)]",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[engine]",
    ),
    Mutant(
        "taylor-denominator-power-high",
        "polynomials.py",
        "den * q ** (n - 1 - l)",
        "den * q ** (n - l)",
        "killed: tests/test_cli.py::test_cli_output_matches_golden_digest[h0-shifted-2P+2P'-4oo]"
        " (only an x0 with denominator q > 1 is scaled wrong)",
    ),
    Mutant(
        "trisecant-at-least-one",
        "prym.py",
        "if twisted_h0(cls) == 1",
        "if twisted_h0(cls) >= 1",
        "killed: tests/test_cli.py::test_cli_output_matches_golden_digest[cliff-search-g3-w1,w2]"
        " (tests/test_prym.py::test_trisecant_witnesses_match_the_residual_oracle kills it too)",
    ),
    Mutant(
        "reduce-row-divides-by-new-pivot",
        "linalg.py",
        "return [(piv * a - f * b) // prev for a, b in zip(row, prow)]",
        "return [(piv * a - f * b) // piv for a, b in zip(row, prow)]",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[engine]"
        " (tests/test_linalg.py::test_reduce_row_steps_give_the_leading_minors kills it too)",
    ),
    Mutant(
        "chain-prefix-drops-low-bit",
        "riemann_roch.py",
        "prefix = _mask_chain(curve, mask ^ 1 << top)",
        "prefix = _mask_chain(curve, mask & mask - 1)",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[classify]"
        " (the top root's row is reduced against itself, so every chain of two or more bits"
        " reads a zero pivot and raises, and the ops fail)",
    ),
    Mutant(
        "chain-takes-degree-zero",
        "riemann_roch.py",
        "degree < 1 or",
        "degree < 0 or",
        "killed: tests/test_linalg.py::test_matches_oracle_on_genus_13_scroll_matrices"
        " (beta's 8 x 5 matrix is no longer eliminated; the [5] pin of"
        " tests/test_scroll.py::test_genus13_report_runs_two_eliminations_and_one_h0_call"
        " fails too)",
    ),
    Mutant(
        "chain-store-unbounded",
        "riemann_roch.py",
        "memo_put(curve._chain_cache, mask, rows)",
        "curve._chain_cache[mask] = rows",
        "killed: tests/test_riemann_roch.py::test_chains_survive_a_store_cleared_mid_build",
    ),
    Mutant(
        "chain-row-untrimmed",
        "riemann_roch.py",
        "reduce_row(row, prow, 0, prev)[1:]",
        "reduce_row(row, prow, 0, prev)",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[classify]"
        " (each reduced row keeps its zero column, so every chain of two or more bits reads"
        " a zero pivot and raises, and the ops fail)",
    ),
    Mutant(
        "fill-top-one-short",
        "riemann_roch.py",
        "max(degree, curve.genus - 1)",
        "max(degree, curve.genus - 2)",
        "killed: tests/test_riemann_roch.py::test_a_chain_miss_fills_every_degree_up_to_g_minus_1"
        " (every value stays right; only the memo entries written per miss change)",
    ),
    Mutant(
        "fill-top-one-past",
        "riemann_roch.py",
        "curve.genus - 1), degree",
        "curve.genus), degree",
        "killed: tests/test_riemann_roch.py::test_a_chain_miss_fills_every_degree_up_to_g_minus_1"
        " (every value stays right; each miss writes degree g too)",
    ),
    Mutant(
        "fill-off",
        "riemann_roch.py",
        "range(max(degree, curve.genus - 1), ",
        "range(degree, ",
        "killed: tests/test_riemann_roch.py::test_a_chain_miss_fills_every_degree_up_to_g_minus_1"
        " (every value stays right; each miss writes its own key alone)",
    ),
    Mutant(
        "fill-skips-asked-degree",
        "riemann_roch.py",
        "degree - 1, -1)",
        "degree, -1)",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[classify]"
        " (a miss at degree g-1 or above writes nothing and returns None)",
    ),
    Mutant(
        "chain-cap-one-high",
        "riemann_roch.py",
        "_monomial_counts(curve, r + degree)",
        "_monomial_counts(curve, r + degree + 1)",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[classify]",
    ),
    Mutant(
        "chain-count-unclamped",
        "riemann_roch.py",
        "max(0, na + nb - r)",
        "na + nb - r",
        "killed: tests/test_riemann_roch.py::test_pencil_h0s_match_the_matrix_route_on_shifted_curves[3]"
        " (a mask of more bits than columns reads a negative h0;"
        " tests/test_riemann_roch.py::test_a_chain_with_more_pivots_than_columns_reads_zero"
        " kills it too)",
    ),
    Mutant(
        "route-ordinary-on-chain",
        "riemann_roch.py",
        "if ordinary or degree < 1",
        "if degree < 1",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[engine]",
    ),
    Mutant(
        "route-g-bit-mask-on-matrix",
        "riemann_roch.py",
        "mask.bit_count() > curve.genus",
        "mask.bit_count() >= curve.genus",
        "killed: tests/test_riemann_roch.py::"
        "test_widened_misses_match_own_degree_profiles_on_a_genus5_search"
        " (every value stays right; masks of g bits are eliminated as matrices)",
    ),
    Mutant(
        "chain-zero-minor-stored",
        "riemann_roch.py",
        'raise ArithmeticError(f"zero leading minor of mask {mask:#b}: engine bug")',
        "pass",
        "killed: tests/test_riemann_roch.py::test_a_vanishing_leading_minor_raises_and_stores_nothing"
        " (distinct roots never give a zero minor, so only the planted one shows it)",
    ),
    Mutant(
        "pencil-step-by-one",
        "riemann_roch.py",
        "degree - 2 * len(values)",
        "degree - len(values)",
        "killed: perfbench/test_perfbench.py::test_same_seed_same_inputs_and_digest[scroll]",
    ),
    Mutant(
        "pencil-takes-ordinary-terms",
        "riemann_roch.py",
        "if ordinary:",
        "if False:",
        "killed: tests/test_riemann_roch.py::test_pencil_h0s_refuse_ordinary_terms",
    ),
)
