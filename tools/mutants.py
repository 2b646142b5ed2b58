"""Run the committed mutants of ``src/charclass`` against the tests that must
catch them, and list the survivors.

    python tools/mutants.py

Each mutant is one exact source snippet in one file of ``src/charclass``, its
replacement, and the pytest node ids that must fail once it is applied.  The
tool first runs all those tests on an unchanged copy of ``src/``: a test
that fails already, or a node id that names no test, would make any kill
meaningless.  Then, one mutant at a time, it copies ``src/`` to a temporary
directory, applies the replacement there and runs the mutant's tests from
the repository root with ``PYTHONPATH`` pointing at the copy; the tree
itself is never edited.  The mutant is killed when pytest exits non-zero
(or runs past ``TIMEOUT_S``) and survives when every listed test passes.
Tests run under the hypothesis profile "mutants" (``tests/conftest.py``),
which skips shrinking: a kill needs one failing example, not the smallest.
A test that starts ``charclass`` in a subprocess with the repository's own
``src`` on its path cannot see the copy, so no mutant lists one.

Prints one line per mutant, then the survivors; exits 1 if any mutant
survives, 2 if the unchanged copy fails a test or a snippet does not occur
exactly once.  A full run takes one to two minutes on two cores;
``tests/test_mutants.py`` checks only the table on every test run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "charclass")
TIMEOUT_S = 600  # per pytest run; a mutant that hangs its tests is killed


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/charclass
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # node ids, at least one of which must fail


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "w-series-two-terms", "bott.py",
        "return _class_product(M, 1, M.n)",
        "return _class_product(M, 2, M.n)",
        (
            "tests/test_bott.py::test_total_sw_main_five_frozen",
            "tests/test_bott.py::test_total_sw_matches_scalar_expansion",
        ),
    ),
    Mutant(
        "wbar-series-one-term-short", "bott.py",
        "return _class_product(M, up_to, up_to)",
        "return _class_product(M, up_to - 1, up_to)",
        (
            "tests/test_bott.py::test_dual_sw_main_twelve_grade_nine_vanishes",
        ),
    ),
    Mutant(
        "steenrod-read-inverted", "bott.py",
        "steenrod = not _permsum(M).is_zero()",
        "steenrod = _permsum(M).is_zero()",
        (
            "tests/test_bott.py::test_verify_main_five",
            "tests/test_bott.py::test_verify_main_methods_agree",
        ),
    ),
    Mutant(
        "placements-room-off-by-one", "bott.py",
        "room = v - prefix\n",
        "room = v - prefix + 1\n",
        (
            "tests/test_bott.py::test_placements_match_brute_force",
            "tests/test_qring.py::test_verify_key_frozen_small",
        ),
    ),
    Mutant(
        "placements-filter-drops-the-exact-fit", "bott.py",
        "bisect_right(weight, room)",
        "bisect_left(weight, room)",
        (
            "tests/test_bott.py::test_placements_match_brute_force",
            "tests/test_bott.py::test_placements_match_submask_walk",
            "tests/test_bott.py::test_top_class_bit_exhaustive_degree_five",
        ),
    ),
    Mutant(
        "superset-sum-skips-the-last-digit", "bott.py",
        "for shift, mask in passes:",
        "for shift, mask in passes[:-1]:",
        (
            "tests/test_bott.py::test_placements_match_brute_force",
            "tests/test_bott.py::test_placements_match_submask_walk",
            "tests/test_qring.py::test_verify_key_frozen_small",
        ),
    ),
    Mutant(
        "lane-width-without-the-digit-count", "bott.py",
        "return q.bit_count() * length.bit_length() + 1",
        "return length.bit_length() + 1",
        (
            "tests/test_qring.py::test_counted_ledger_pinned_invariants",
            "tests/test_bott.py::test_verify_main_steenrod_far_above_the_direct_cap",
        ),
    ),
    Mutant(
        "dense-price-without-the-plus-one", "bott.py",
        "(sweeps + 1) << shift > DENSE_BUDGET",
        "sweeps << shift > DENSE_BUDGET",
        (
            "tests/test_bott.py::test_dense_engine_is_priced_before_any_allocation",
        ),
    ),
    Mutant(
        "class-ring-one-row-short", "bott.py",
        "_DenseRing(h, M._cols,",
        "_DenseRing(h - 1, M._cols,",
        (
            "tests/test_bott.py::test_classes_in_the_ring_their_columns_span_match_the_scalar_route",
            "tests/test_bott.py::test_class_products_sweep_the_ring_up_to_the_highest_row",
        ),
    ),
    Mutant(
        "grade-window-starts-past-the-grade-read", "bott.py",
        "_grade_window(v, span, k, self._uncut - 1)",
        "_grade_window(v, span, k + 1, self._uncut - 1)",
        (
            "tests/test_bott.py::test_classes_in_the_ring_their_columns_span_match_the_scalar_route",
            "tests/test_bott.py::test_a_class_reader_cuts_its_grades_in_one_window",
        ),
    ),
    Mutant(
        "graded-span-one-variable-short", "bott.py",
        "span = (v.bit_length() - 1).bit_length()",
        "span = (v.bit_length() - 1).bit_length() - 1",
        (
            "tests/test_bott.py::test_classes_in_the_ring_their_columns_span_match_the_scalar_route",
            "tests/test_bott.py::test_a_class_reader_cuts_its_grades_in_one_window",
        ),
    ),
    Mutant(
        "dense-low-block-half-period", "bott.py",
        "mask, period = (1 << ones) - 1, period or 2 * ones",
        "mask, period = (1 << ones) - 1, period or ones",
        (
            "tests/test_bott.py::test_total_sw_main_five_frozen",
            "tests/test_bott.py::test_dual_sw_main_five_frozen",
            "tests/test_bott.py::test_placements_match_submask_walk",
        ),
    ),
    Mutant(
        "normal-form-drops-degree-n", "bott.py",
        "sum(t for _, t in extra) > M.n:",
        "sum(t for _, t in extra) >= M.n:",
        (
            "tests/test_bott.py::test_normal_form_matches_bucket_rewriting",
            "tests/test_bott.py::test_top_coefficient_examples",
        ),
    ),
    Mutant(
        "main-report-methods-reordered", "bott.py",
        'for key in ("direct", "steenrod")',
        'for key in ("steenrod", "direct")',
        (
            "tests/test_bott.py::test_main_report_json_round_trip",
        ),
    ),
    Mutant(
        "input-json-field-unchecked", "bott.py",
        'or "n" not in data or field not in data:',
        'or "n" not in data:',
        (
            "tests/test_bott.py::test_matrix_json_malformed",
            "tests/test_dold.py::test_spec_json_round_trip",
        ),
    ),
    Mutant(
        "to-poly-blocks-ascending", "poly2.py",
        "sorted(blocks, key=_reversed_binary, reverse=True)",
        "sorted(blocks, key=_reversed_binary, reverse=False)",
        (
            "tests/test_bott.py::test_to_poly_matches_the_mask_oracle",
            "tests/test_poly2.py::test_rendering_of_dense_grade_pieces_matches_the_per_term_oracle",
        ),
    ),
    Mutant(
        "to-poly-low-byte-buckets-ascending", "poly2.py",
        "range(256), key=_reversed_binary, reverse=True",
        "range(256), key=_reversed_binary, reverse=False",
        (
            "tests/test_bott.py::test_to_poly_matches_the_mask_oracle",
            "tests/test_poly2.py::test_rendering_of_dense_grade_pieces_matches_the_per_term_oracle",
        ),
    ),
    Mutant(
        "to-poly-key-unreversed", "poly2.py",
        'return f"{x:b}"[::-1]',
        'return f"{x:b}"',
        (
            "tests/test_bott.py::test_to_poly_matches_the_mask_oracle",
        ),
    ),
    Mutant(
        "format-poly-ignores-the-kept-text", "poly2.py",
        "if type(p) is _PackedPoly:",
        "if False:",
        (
            "tests/test_bott.py::test_class_table_pieces_render_without_a_sort",
        ),
    ),
    Mutant(
        "to-poly-text-without-the-star", "poly2.py",
        '[t + "*" for t in alone[1:]]',
        "alone[1:]",
        (
            "tests/test_poly2.py::test_rendering_of_dense_grade_pieces_matches_the_per_term_oracle",
        ),
    ),
    Mutant(
        "packed-terms-skip-block-0", "poly2.py",
        "for h, bs in _nonzero_blocks(v).items():",
        "for h, bs in _nonzero_blocks(v >> 256 << 256).items():",
        (
            "tests/test_bott.py::test_to_poly_matches_the_mask_oracle",
            "tests/test_poly2.py::test_a_dense_grade_piece_builds_its_terms_on_first_read",
        ),
    ),
    Mutant(
        "block-walk-drops-the-last-byte", "poly2.py",
        "data[s : s + 32]",
        "data[s : s + 31]",
        (
            "tests/test_poly2.py::test_rendering_of_dense_grade_pieces_matches_the_per_term_oracle",
            "tests/test_poly2.py::test_a_dense_grade_piece_builds_its_terms_on_first_read",
        ),
    ),
    Mutant(
        "packed-len-bit-length", "poly2.py",
        "self._bits.bit_count()",
        "self._bits.bit_length()",
        (
            "tests/test_poly2.py::test_a_dense_grade_piece_builds_its_terms_on_first_read",
            "tests/test_bott.py::test_class_table_grades_build_no_monomial_until_read",
        ),
    ),
    Mutant(
        "packed-is-zero-builds-the-terms", "poly2.py",
        "return not self._bits",
        "return not self.terms",
        (
            "tests/test_bott.py::test_class_table_grades_build_no_monomial_until_read",
        ),
    ),
    Mutant(
        "poly-getattr-answers-any-name", "poly2.py",
        'if name != "terms":',
        "if False:",
        (
            "tests/test_bott.py::test_getattr_of_a_grade_refuses_every_other_name",
        ),
    ),
    Mutant(
        "poly-sum-without-cancellation", "poly2.py",
        "acc.symmetric_difference_update({m})",
        "acc.add(m)",
        (
            "tests/test_poly2.py::TestPolyArithmetic::test_ring_laws",
            "tests/test_poly2.py::TestTextGrammar::test_parse_examples",
        ),
    ),
    Mutant(
        "poly-terms-unchecked", "poly2.py",
        "if not isinstance(t, Monomial):",
        "if False:",
        (
            "tests/test_poly2.py::TestPolyArithmetic::test_terms_must_be_monomials",
        ),
    ),
    Mutant(
        "top-class-parity-as-or", "steenrod.py",
        "bit ^= top_class_bit(M, exps)",
        "bit |= top_class_bit(M, exps)",
        (
            "tests/test_steenrod.py::test_act_matches_rewriting_per_assignment",
            "tests/test_steenrod.py::test_kronecker_duality_on_random_orientable_matrices",
        ),
    ),
    Mutant(
        "chi-sq-drops-sq0", "steenrod.py",
        "for t in enumerate_tuples(k, len(variables)):",
        "for t in enumerate_tuples(k, len(variables))[not k:]:",
        (
            "tests/test_steenrod.py::test_chi_sq_degree_zero_is_identity",
        ),
    ),
    Mutant(
        "chi-sq-power-sum-at-every-step", "steenrod.py",
        "if not e & (e - 1):",
        "if e:",
        (
            "tests/test_steenrod.py::test_chi_sq_product_matches_the_milnor_sum",
            "tests/test_steenrod.py::test_chi_sq_dense_and_set_routes_agree",
        ),
    ),
    Mutant(
        "chi-sq-power-sum-unfiltered", "steenrod.py",
        "joined = {g for g in state if _reaches(target - g.bit_count(), left)}",
        "joined = set(state)",
        (
            "tests/test_steenrod.py::test_chi_sq_product_matches_the_milnor_sum",
            "tests/test_steenrod.py::test_chi_sq_dense_and_set_routes_agree",
        ),
    ),
    Mutant(
        "chi-sq-xor-as-union", "steenrod.py",
        "    a ^= b\n",
        "    a |= b\n",
        (
            "tests/test_steenrod.py::test_chi_sq_product_matches_the_milnor_sum",
            "tests/test_steenrod.py::test_chi_sq_additive_in_z",
        ),
    ),
    Mutant(
        "chi-sq-start-unchecked", "steenrod.py",
        "state = {0} if _reaches(target, len(variables)) else set()",
        "state = {0}",
        (
            "tests/test_steenrod.py::test_chi_sq_product_sweeps_only_masks_that_can_reach_the_target",
        ),
    ),
    Mutant(
        "chi-sq-cap-one-short", "steenrod.py",
        "cap = target - left\n",
        "cap = target - left - 1\n",
        (
            "tests/test_steenrod.py::test_chi_sq_product_matches_the_milnor_sum",
            "tests/test_steenrod.py::test_chi_sq_dense_and_set_routes_agree",
        ),
    ),
    Mutant(
        "chi-sq-cap-one-long", "steenrod.py",
        "cap = target - left\n",
        "cap = target - left + 1\n",
        (
            "tests/test_steenrod.py::test_chi_sq_product_sweeps_only_masks_that_can_reach_the_target",
        ),
    ),
    Mutant(
        "chi-sq-dense-steps-one-short", "steenrod.py",
        "for step in range(1, last + 1):",
        "for step in range(1, last):",
        (
            "tests/test_steenrod.py::test_chi_sq_product_matches_the_milnor_sum",
            "tests/test_steenrod.py::test_chi_sq_dense_and_set_routes_agree",
        ),
    ),
    Mutant(
        "chi-sq-dense-power-sum-at-every-step", "steenrod.py",
        "if not step & (step - 1):",
        "if step:",
        (
            "tests/test_steenrod.py::test_chi_sq_product_matches_the_milnor_sum",
            "tests/test_steenrod.py::test_chi_sq_dense_and_set_routes_agree",
        ),
    ),
    Mutant(
        "chi-sq-dense-without-the-early-zero", "steenrod.py",
        "if target > a or not _reaches(target, len(variables)):",
        "if target > a:",
        (
            "tests/test_steenrod.py::test_chi_sq_dense_route_rings_span_the_sub_tower_only",
        ),
    ),
    Mutant(
        "chi-sq-dense-cutoff-one-low", "steenrod.py",
        "variables[-1] > _DENSE_CHI_SQ_MAX",
        "variables[-1] >= _DENSE_CHI_SQ_MAX",
        (
            "tests/test_steenrod.py::test_chi_sq_dense_route_rings_span_the_sub_tower_only",
        ),
    ),
    Mutant(
        "chi-sq-dense-ring-over-the-whole-matrix", "steenrod.py",
        "_DenseRing(a, M._cols,",
        "_DenseRing(M.n, M._cols,",
        (
            "tests/test_steenrod.py::test_chi_sq_dense_route_rings_span_the_sub_tower_only",
        ),
    ),
    Mutant(
        "chi-sq-dense-sum-assigned", "steenrod.py",
        "packed ^= _chi_sq_dense(",
        "packed = _chi_sq_dense(",
        (
            "tests/test_steenrod.py::test_chi_sq_sums_its_three_routes_in_one_call",
        ),
    ),
    Mutant(
        "chi-sq-dense-sum-as-union", "steenrod.py",
        "packed ^= _chi_sq_dense(",
        "packed |= _chi_sq_dense(",
        (
            "tests/test_steenrod.py::test_chi_sq_sums_its_three_routes_in_one_call",
        ),
    ),
    Mutant(
        "permsum-price-one-summand-per-exponent", "steenrod.py",
        "{1 << p: 1 << j for j, p in enumerate(parts)}",
        "{1 << p: 1 for j, p in enumerate(parts)}",
        (
            "tests/test_steenrod.py::test_permsum_price_is_read_from_the_two_adic_parts",
        ),
    ),
    Mutant(
        "dense-sweep-skips-the-top-seed", "bott.py",
        "for l in range(max(pend, default=0), 0, -1):",
        "for l in range(max(pend, default=0) - 1, 0, -1):",
        (
            "tests/test_bott.py::test_total_sw_main_five_frozen",
            "tests/test_steenrod.py::test_chi_sq_product_matches_the_milnor_sum",
        ),
    ),
    Mutant(
        "in-box-top-cell-dropped", "dold.py",
        "0 <= b <= m for b, m in zip",
        "0 <= b < m for b, m in zip",
        (
            "tests/test_dold.py::test_total_sw_p12_frozen",
            "tests/test_dold.py::test_trunc_poly_str",
        ),
    ),
    Mutant(
        "in-box-integer-check-on-a-only", "dold.py",
        "if not (_is_int(a) and all(map(_is_int, bs))):",
        "if not _is_int(a):",
        (
            "tests/test_dold.py::test_dold_readers_reject_non_integer_exponents",
        ),
    ),
    Mutant(
        "d-weight-one", "dold.py",
        "weight = 2  # of each d_i",
        "weight = 1  # of each d_i",
        (
            "tests/test_dold.py::test_grade_mask_matches_the_grade_of_every_cell",
            "tests/test_dold.py::test_verify_dold_p12",
        ),
    ),
    Mutant(
        "keep-mask-one-cell-too-wide", "dold.py",
        "_block_mask((extent - k) * s, shape[0]",
        "_block_mask((extent - k) * s + 1, shape[0]",
        (
            "tests/test_dold.py::test_total_sw_p12_frozen",
            "tests/test_dold.py::test_dual_coefficients_are_lucas_products",
        ),
    ),
    Mutant(
        "period-one-power-too-small", "dold.py",
        "return 1 << max(n, *ms).bit_length()",
        "return 1 << max(n, *ms).bit_length() - 1",
        (
            "tests/test_dold.py::test_dual_matches_stabilized_power_oracle",
            "tests/test_dold.py::test_dual_coefficients_are_lucas_products",
        ),
    ),
    Mutant(
        "times-digit-without-copy", "dold.py",
        "reduce(xor, [(grid & keep) << offset for keep, offset in moves], grid)",
        "reduce(lambda out, move: out ^ (out & move[0]) << move[1], moves, grid)",
        (
            "tests/test_dold.py::test_total_sw_p12_frozen",
            "tests/test_dold.py::test_class_grid_matches_general_product",
        ),
    ),
    Mutant(
        "graded-piece-at-or-below", "dold.py",
        "p.grid & _grade_mask(p.spec.shape, k)",
        "p.grid & _grade_mask(p.spec.shape, k, at_most=True)",
        (
            "tests/test_dold.py::test_graded_pieces_partition",
            "tests/test_dold.py::test_dual_sw_p12_frozen",
        ),
    ),
    Mutant(
        "scan-islice-to-the-budget", "dold.py",
        "islice(specs, SCAN_BUDGET + 1)",
        "islice(specs, SCAN_BUDGET)",
        (
            "tests/test_dold.py::test_scan_dold_price_refuses_before_verifying",
        ),
    ),
    Mutant(
        "lucas-walk-drops-largest-z", "dold.py",
        "for z in range(min(m, rest // 2) + 1)",
        "for z in range(min(m, rest // 2))",
        (
            "tests/test_dold.py::test_lucas_verdict_matches_grids_exhaustively",
            "tests/test_dold.py::test_lucas_verdict_matches_grids_past_the_exhaustive_range",
        ),
    ),
    Mutant(
        "lucas-walk-acc-off-by-one", "dold.py",
        "_period(n, ms) - (N + 1)",
        "_period(n, ms) - N",
        (
            "tests/test_dold.py::test_lucas_verdict_matches_grids_exhaustively",
            "tests/test_dold.py::test_lucas_verdict_matches_grids_past_the_exhaustive_range",
        ),
    ),
    Mutant(
        "lucas-orientability-without-the-one", "dold.py",
        "(n + 1 + sum(ms)) % 2 == 0",
        "(n + sum(ms)) % 2 == 0",
        (
            "tests/test_dold.py::test_lucas_verdict_matches_grids_exhaustively",
            "tests/test_dold.py::test_verify_dold_p12",
        ),
    ),
    Mutant(
        "fold-over-full-at-equality", "qring.py",
        'over = 0  # S_d > d',
        'over = full  # S_d > d',
        (
            "tests/test_qring.py::test_bit_sliced_fold_ties_numpy_and_scalar_oracles",
            "tests/test_qring.py::test_fold_window_matches_oracles",
        ),
    ),
    Mutant(
        "fold-comparator-and-or-swapped", "qring.py",
        'planes[k] & over if d >> k & 1 else planes[k] | over',
        'planes[k] | over if d >> k & 1 else planes[k] & over',
        (
            "tests/test_qring.py::test_bit_sliced_fold_ties_numpy_and_scalar_oracles",
            "tests/test_qring.py::test_fold_window_matches_oracles",
        ),
    ),
    Mutant(
        "fold-gap-at-d", "qring.py",
        'gap_hist[d + 1] = first.bit_count()',
        'gap_hist[d] = first.bit_count()',
        (
            "tests/test_qring.py::test_bit_sliced_fold_ties_numpy_and_scalar_oracles",
            "tests/test_qring.py::test_fold_window_matches_oracles",
        ),
    ),
    Mutant(
        "fold-window-ignores-start", "qring.py",
        'unseen = full >> start << start',
        'unseen = full',
        (
            "tests/test_qring.py::test_fold_window_matches_oracles",
        ),
    ),
    Mutant(
        "fold-first-row-never-leaves", "qring.py",
        'if j >= 0:',
        'if j > 0:',
        (
            "tests/test_qring.py::test_bit_sliced_fold_ties_numpy_and_scalar_oracles",
            "tests/test_qring.py::test_fold_window_matches_oracles",
        ),
    ),
    Mutant(
        "fold-range-unchecked-past-the-end", "qring.py",
        '<= stop <= total:',
        '<= stop:',
        (
            "tests/test_qring.py::test_fold_refuses_a_range_past_the_stream",
        ),
    ),
)


def snippet_count(mutant: Mutant) -> int:
    """How often the mutant's snippet occurs in its file."""
    return (ROOT / PACKAGE / mutant.file).read_text().count(mutant.old)


def _copy_source(tmp: Path, mutant: Mutant | None) -> Path:
    """A copy of ``src/`` under ``tmp``, with ``mutant`` applied; its path."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / PACKAGE.name / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new, 1))
    return src


def _pytest(mutant: Mutant | None, tests: tuple[str, ...]) -> tuple[str, float]:
    """Run ``tests`` on a fresh copy of ``src/`` with ``mutant`` applied.

    Returns pytest's exit code as text, or "timeout", and the seconds taken.
    """
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        env = dict(os.environ, PYTHONPATH=str(_copy_source(Path(tmp), mutant)),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            code = str(subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "--hypothesis-profile=mutants", *tests],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
            ).returncode)
        except subprocess.TimeoutExpired:
            code = "timeout"
        return code, time.perf_counter() - start


def main() -> int:
    misplaced = [m.name for m in MUTANTS if snippet_count(m) != 1]
    if misplaced:
        print(f"snippet not found exactly once: {', '.join(misplaced)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    code, seconds = _pytest(None, tests)
    if code != "0":
        print(f"the unchanged source fails its tests (pytest exit {code})",
              file=sys.stderr)
        return 2
    print(f"baseline  {len(tests)} tests pass on the unchanged source ({seconds:.1f} s)")
    survivors = []
    for m in MUTANTS:
        code, seconds = _pytest(m, m.tests)
        # the baseline ran these tests, so any failing exit is the mutant's
        verdict = "SURVIVED" if code == "0" else f"killed (pytest exit {code})"
        print(f"{verdict:<24} {m.name}  ({seconds:.1f} s)")
        if code == "0":
            survivors.append(m.name)
    print(
        f"{len(MUTANTS)} mutants, {len(MUTANTS) - len(survivors)} killed, "
        f"{len(survivors)} survived in {time.perf_counter() - start:.0f} s"
    )
    for name in survivors:
        print(f"survivor: {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
