"""Mutation gate: each known bug, put back into a copy of the code, must
make its named test fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each row of ``MUTANTS`` is (file, old text, new text, test node id).
For each row the script copies ``src/``, ``tests/``, ``pyproject.toml``
and ``benchmarks/oracle.py``, the tests' reference samplers, to a
temporary directory, checks that the old text occurs exactly once in
the file, substitutes the new text, and runs
``python -m pytest -x -q -p no:cacheprovider <node>`` there with
``PYTHONPATH`` set to the copy's ``src``.  The mutant is killed only
when pytest exits 1, with a failed test.  Exit 0 (every test passed),
2, 4 or 5 (interrupted, usage error, nothing collected) or a run past
``TIMEOUT`` seconds fails the gate, as does old text that is missing or
not unique: a refactor that moves the code must re-aim its mutants.
Before the rows, the script checks once that a copy imports its own
``fastdice``, not an installed one.  It exits 1 if any row fails.

The rows are curated, not random: some mutations of the kernels are
equivalent (they draw the same values from the same flips), and a gate
over those could never pass.  Standard library only; pytest does not
collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds per row

FDR = "tests/test_fdr.py::"
PERM = "tests/test_permutation.py::"
MUTANTS = [
    # The flip cap: raise one step early, through next_bits or in
    # place, or far too soon.
    ("src/fastdice/core.py",
     "if bits > _MAX_FLIPS:\n            raise",
     "if bits >= _MAX_FLIPS:\n            raise",
     FDR + "test_a_stuck_generator_raises_instead_of_hanging"),
    ("src/fastdice/core.py",
     "if bits > _MAX_FLIPS:\n                source._pos = pos",
     "if bits >= _MAX_FLIPS:\n                source._pos = pos",
     FDR + "test_a_stuck_generator_raises_instead_of_hanging"),
    ("src/fastdice/core.py", "_MAX_FLIPS = 1024", "_MAX_FLIPS = 96",
     FDR + "test_a_stuck_generator_raises_instead_of_hanging"),
    # The first read's accept mirrored, n - 1 - c: still uniform on the
    # same flips, so only a reference that draws apart from ``_fdr``
    # sees it, or a trace.  In place, and through next_bits.
    ("src/fastdice/core.py", "return c, width\n        buf",
     "return n - 1 - c, width\n        buf",
     "tests/test_differential.py::test_permutation_routes_match_reference"
     "[unranked]"),
    ("src/fastdice/core.py", "return c, width\n    bits",
     "return n - 1 - c, width\n    bits",
     FDR + "test_kernels_read_width_then_each_recycle_step"),
    # The first read one flip too wide, which a power of two shows.
    ("src/fastdice/core.py",
     "width = (n - 1).bit_length()\n    except",
     "width = n.bit_length()\n    except",
     FDR + "test_trace_n4_binary_digits"),
    # A recycle step that reads one flip too many, through next_bits or
    # in place.
    ("src/fastdice/core.py", "j = width - v.bit_length()\n        if",
     "j = width - v.bit_length() + 1\n        if",
     FDR + "test_kernels_read_width_then_each_recycle_step"),
    ("src/fastdice/core.py", "j = width - v.bit_length()\n            if",
     "j = width - v.bit_length() + 1\n            if",
     FDR + "test_in_place_draws_have_the_tree_of_next_bits"),
    # The single draw reading a subclass's buffer in place, past its own
    # next_bits.
    ("src/fastdice/core.py", "if type(source) is BufferedWordSource:",
     "if isinstance(source, BufferedWordSource):",
     FDR + "test_a_subclass_sees_every_read_of_fdr"),
    # The single draw's buffer position left unstored: at the return,
    # before a refill in a recycle step, or before the cap's raise.
    ("src/fastdice/core.py", "source._pos = pos\n        return c, bits",
     "return c, bits", FDR + "test_in_place_draws_have_the_tree_of_next_bits"),
    ("src/fastdice/core.py",
     "source._pos = pos\n                c = c << j | source.next_bits(j)",
     "c = c << j | source.next_bits(j)",
     FDR + "test_in_place_draws_have_the_tree_of_next_bits"),
    ("src/fastdice/core.py", "source._pos = pos\n                raise",
     "raise", FDR + "test_a_capped_draw_raises_as_next_bits"),
    # A batch taking a look-alike plan, whose fields were never checked.
    ("src/fastdice/batch.py", "    _need(BatchPlan, plan)\n", "",
     "tests/test_batch.py::test_batch_refuses_lookalike_plans"),
    # A batch's digit loop one step short, or its leading digit put last.
    ("src/fastdice/batch.py", "range(plan.j - 1, 0, -1)",
     "range(plan.j - 1, 1, -1)",
     "tests/test_differential.py::test_batch_matches_reference"),
    ("src/fastdice/batch.py", "digits[0] = y", "digits[-1] = y",
     "tests/test_differential.py::test_batch_matches_reference"),
    # A fill read past the generator's 32 bits.
    ("src/fastdice/bitsource.py", "buf = fill() & mask", "buf = fill()",
     "tests/test_bitsource.py::"
     "test_a_fill_past_its_width_reads_as_its_low_bits_on_every_read"),
    # The in-buffer read without its lower bound: a negative k indexes
    # the mask table from its end instead of raising.
    ("src/fastdice/bitsource.py", "if 0 <= k <= pos:", "if k <= pos:",
     "tests/test_bitsource.py::"
     "test_negative_width_raises_and_changes_nothing"),
    # Every mask in the table one bit too wide.
    ("src/fastdice/bitsource.py", "(1 << i) - 1", "(1 << i + 1) - 1",
     "tests/test_bitsource.py::test_every_in_buffer_read_matches_next_bit"),
    # A geometric read that miscounts the flips after a refill.
    ("src/fastdice/bitsource.py", "return t + width - left + 1",
     "return t + width - left + 2",
     "tests/test_bitsource.py::test_geometric_counts_through_zero_words"),
    # The word counter off by one at a word boundary.
    ("src/fastdice/bitsource.py", "(self._filled - self._pos + 31) // 32",
     "(self._filled - self._pos + 32) // 32",
     "tests/test_bitsource.py::test_next_bits_exact_word_fetches_one_word"),
    # The bit meter one bit off.
    ("src/fastdice/bitsource.py", "return self._filled - self._pos\n",
     "return self._filled - self._pos + 1\n",
     "tests/test_bitsource.py::test_word_economy"),
    # A denominator below 1 let through its check, and the degenerate
    # branch answering a look-alike of Rational instead of refusing it.
    ("src/fastdice/bernoulli.py", 'den = _at_least("den", den, 1)',
     "den = index(den)",
     "tests/test_bernoulli.py::test_check_denominator_refuses_below_one"),
    ("src/fastdice/bernoulli.py", "        _need(Rational, p)\n", "",
     "tests/test_bernoulli.py::test_degenerate_branch_refuses_lookalikes"),
    # nu reading a look-alike's fields: 5/3 answers as 2/3.
    ("src/fastdice/cost.py",
     "    _need(Rational, p)\n    r, den = _lowest_terms(p)\n    if",
     "    r, den = _lowest_terms(p)\n    if",
     "tests/test_bernoulli.py::test_degenerate_branch_refuses_lookalikes"),
    # Bernoulli answering with expansion bit t - 1 instead of bit t.
    ("src/fastdice/bernoulli.py", "(num << source.next_geometric()) // den",
     "(num << source.next_geometric() - 1) // den",
     "tests/test_bernoulli.py::test_decision_bit_is_expansion_bit"),
    # Fisher-Yates one digit short, read by single draws or in place:
    # the swap with 2 values never drawn.
    ("src/fastdice/core.py", "for i in range(len(t) - 1):",
     "for i in range(len(t) - 2):",
     PERM + "test_fisher_yates_trace_three"),
    ("src/fastdice/core.py", "for i in range(n - 1):",
     "for i in range(n - 2):",
     FDR + "test_the_in_place_shuffle_has_the_tree_of_its_single_draws"),
    # The in-place width stepping down one size late: a power of two
    # read one flip too wide.
    ("src/fastdice/core.py", "if m <= half:", "if m < half:",
     FDR + "test_the_in_place_shuffle_has_the_tree_of_its_single_draws"),
    # The in-place recycle step: one flip too many, and its cap one
    # step early or its raise leaving the buffer position unstored.
    ("src/fastdice/core.py", "j = width - v.bit_length()\n                if",
     "j = width - v.bit_length() + 1\n                if",
     FDR + "test_the_in_place_shuffle_has_the_tree_of_its_single_draws"),
    ("src/fastdice/core.py",
     "if bits > _MAX_FLIPS:\n                    source._pos = pos",
     "if bits >= _MAX_FLIPS:\n                    source._pos = pos",
     FDR + "test_a_stuck_generator_raises_instead_of_hanging"),
    ("src/fastdice/core.py", "source._pos = pos\n                    raise",
     "raise", FDR + "test_a_capped_shuffle_raises_as_single_draws"),
    # The shuffle reading a subclass's buffer in place, past its own
    # next_bits.
    ("src/fastdice/core.py", "if type(source) is not BufferedWordSource:",
     "if not isinstance(source, BufferedWordSource):",
     FDR + "test_a_subclass_sees_every_read_of_the_shuffle"),
    # The shuffle's buffer position left unstored: at the return, or
    # before a refill on the first read or in a recycle step.
    ("src/fastdice/core.py", "source._pos = pos\n    return t", "return t",
     FDR + "test_the_in_place_shuffle_has_the_tree_of_its_single_draws"),
    ("src/fastdice/core.py",
     "source._pos = pos\n            c = source.next_bits(width)",
     "c = source.next_bits(width)",
     "tests/test_differential.py::test_fdr_shuffle_matches_reference"),
    ("src/fastdice/core.py",
     "source._pos = pos\n                    c = c << j | source.next_bits(j)",
     "c = c << j | source.next_bits(j)",
     "tests/test_differential.py::test_fdr_shuffle_matches_reference"),
    # A period search stepping by 4: for m = 3 it never returns.
    ("src/fastdice/cost.py", "x = (x << 1) % m", "x = (x << 2) % m",
     "tests/test_cost.py::test_known_rational_values"),
    # The cost series off by one past 200 terms.
    ("src/fastdice/cost.py", "f = (r << shift) // mod",
     "f = (r << shift) // mod + (terms > 200)",
     "tests/test_differential.py::test_horner_matches_reference"),
    # The weighted bit sum dropping position levels from 16 up.
    ("src/fastdice/cost.py", "for t, m in build(levels):",
     "for t, m in build(min(levels, 16)):",
     "tests/test_differential.py::test_weighted_bit_sum_matches_reference"),
    # The remainder bound's Pochhammer product one factor short.
    ("src/fastdice/cost.py", "for i in range(two_r + 1))",
     "for i in range(two_r))",
     "tests/test_cost_golden.py::"
     "test_cost_layer_matches_golden_bit_for_bit"),
    # The small Bernoulli factor taken before the Pochhammer product,
    # which keeps the bound finite past |s| of 1e24.
    ("src/fastdice/cost.py",
     "poch_abs = math.prod(abs(s + i) for i in range(two_r + 1))\n"
     "    omitted = (float(abs(_BERNOULLI_EVEN[_EM_CORRECTIONS]))\n"
     "               / math.factorial(two_r + 2)) * poch_abs\n",
     "omitted = float(abs(_BERNOULLI_EVEN[_EM_CORRECTIONS])) \\\n"
     "        / math.factorial(two_r + 2)\n"
     "    for i in range(two_r + 1):\n"
     "        omitted *= abs(s + i)\n",
     "tests/test_cost.py::test_zeta_domain_errors"),
    # A fluctuation table entry with Im c_k left undoubled.
    ("src/fastdice/cost.py", "2.0 * c.imag))", "c.imag))",
     "tests/test_differential.py::"
     "test_periodic_fluctuation_matches_reference_bit_for_bit"),
    # The chi-square statistic forgetting the cells never drawn.
    ("src/fastdice/cli.py", "stat = (n - len(counts)) * expected",
     "stat = 0.0",
     "tests/test_cli.py::"
     "test_chi_square_adds_the_expectation_of_each_unseen_cell"),
    # The CLI's lower bounds worded as strict.
    ("src/fastdice/cli.py", 'f"must be >= {lo}"', 'f"must be > {lo}"',
     "tests/test_cli.py::test_uniform_usage_error"),
    # perm --method fy held to the unranking cap of 20.
    ("src/fastdice/cli.py", "(fisher_yates, check_range)",
     "(fisher_yates, check_unrank_size)",
     "tests/test_cli.py::test_perm_fy_has_no_cap"),
    # cost taking a --seed that nothing reads.
    ("src/fastdice/cli.py", 'p = sub.add_parser("cost",\n',
     'p = sub.add_parser("cost", parents=[common],\n',
     "tests/test_cli.py::test_cost_refuses_seed"),
    # bench tallying each value drawn once, however often it came up.
    ("src/fastdice/cli.py", "counts = Counter(draws)",
     "counts = Counter(set(draws))",
     "tests/test_golden.py::test_cli_output_matches_golden[bench]"),
    # A Fisher-Yates swap with the digit's offset from 0, not from i.
    ("src/fastdice/permutation.py", "k = i + d", "k = d",
     PERM + "test_fy_bijection_example"),
    # A rank's code one digit short: its first digit never divided out.
    ("src/fastdice/permutation.py", "range(n - 2, -1, -1)",
     "range(n - 2, 0, -1)", PERM + "test_round_trip_all_ranks"),
    # A code's rank composed with each size plus one.
    ("src/fastdice/permutation.py", "value * (n - idx) + d",
     "value * (n - idx + 1) + d",
     "tests/test_differential.py::test_factorial_base_matches_reference"),
    # A rank's code divided by each size plus one.
    ("src/fastdice/permutation.py", "divmod(y, n - idx)",
     "divmod(y, n - idx + 1)",
     "tests/test_differential.py::test_permutation_routes_match_reference"
     "[code]"),
    # Unranking's swap above the split with the digit's offset from 0,
    # not from i, which the walk (n <= 6) reaches only at a split of 3.
    ("src/fastdice/permutation.py",
     "k = i + hi // f", "k = hi // f",
     PERM + "test_unranked_flip_law_is_fdr_uniform_on_n_factorial"
     "[split_at_3]"),
    # Unranking's rank split at (split + 1)! instead of split!.
    ("src/fastdice/permutation.py", "(f(n), f(split),",
     "(f(n), f(split + 1),",
     "tests/test_differential.py::test_permutation_routes_match_reference"
     "[unranked]"),
    # The unranking cap refusing its own bound, 20.
    ("src/fastdice/permutation.py", "> MAX_UNRANK_SIZE:",
     ">= MAX_UNRANK_SIZE:", PERM + "test_unranked_singleton_and_cap"),
    # A rank of exactly n! let through.
    ("src/fastdice/permutation.py", "value >= math.factorial(n)",
     "value > math.factorial(n)", PERM + "test_rank_bounds"),
]


def copy_checkout(into: Path) -> dict:
    """Copy what the tests need into ``into``; return the environment
    that runs them on the copy."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into)
    (into / "benchmarks").mkdir()
    shutil.copy2(ROOT / "benchmarks" / "oracle.py", into / "benchmarks")
    return dict(os.environ, PYTHONPATH=str(into / "src"))


def check_import() -> str | None:
    """None when a copy imports its own fastdice, else what it imported."""
    with tempfile.TemporaryDirectory() as tmp:
        env = copy_checkout(Path(tmp))
        out = subprocess.run(
            [sys.executable, "-c",
             "import fastdice; print(fastdice.__file__)"],
            cwd=tmp, env=env, capture_output=True, text=True)
        imported = Path(out.stdout.strip()).resolve()
        if Path(tmp).resolve() / "src" in imported.parents:
            return None
        return out.stdout.strip() or out.stderr.strip()


def run_row(path: str, old: str, new: str, node: str) -> str | None:
    """None when the mutant is killed, else why the row fails."""
    with tempfile.TemporaryDirectory() as tmp:
        env = copy_checkout(Path(tmp))
        target = Path(tmp) / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times, not once"
        target.write_text(text.replace(old, new))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", node],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"no verdict within {TIMEOUT} s"
    if proc.returncode == 1:
        return None
    if proc.returncode == 0:
        return "survived: the test passed"
    tail = "\n".join(proc.stdout.strip().splitlines()[-3:])
    return f"pytest exited {proc.returncode}, not 1:\n{tail}"


def main() -> int:
    wrong = check_import()
    if wrong is not None:
        print(f"a copy imports the wrong fastdice: {wrong}")
        return 1
    failed = 0
    start = time.perf_counter()
    for path, old, new, node in MUTANTS:
        began = time.perf_counter()
        why = run_row(path, old, new, node)
        took = time.perf_counter() - began
        verdict = "killed" if why is None else "FAILED"
        print(f"{verdict} {took:5.1f} s  {path}: {old.strip()!r} -> "
              f"{new.strip()!r}  by {node}")
        if why is not None:
            failed += 1
            print(f"    {why}")
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
