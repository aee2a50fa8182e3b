"""Full-precision golden for the cost layer: every float it returns must
stay the same double across versions, to the last bit.

The CLI goldens print cost figures to 9 significant digits, so a drift in
the last bits passes them.  This module pins ``float.hex`` of
``exact_cost``, ``toll``, ``asymptotic_cost`` (default and K = 3),
``batch_cost`` and ``nu`` over a fixed spread of inputs: short n, wide n,
powers of two and their neighbours, a huge n, and biases with odd, even
and wide denominators.  ``golden/cost_hex.txt`` was captured by running
this module as a script (``PYTHONPATH=src python tests/test_cost_golden.py``)
in a checkout of the code whose output it pins; rewriting it is a
deliberate change of the cost layer's output.
"""

from pathlib import Path

from fastdice import Rational, asymptotic_cost, batch_cost, exact_cost, nu, toll

GOLDEN = Path(__file__).resolve().parent / "golden" / "cost_hex.txt"

SHORT = list(range(1, 65)) + [100, 255, 257, 729, 1000, 1023, 1025, 4095,
                              19999, 20000, 104729]
WIDE = [3 ** 12, 3 ** 13, 3 ** 39, 3 ** 12 * 64, 2 ** 40 - 1, 2 ** 40 + 1,
        2 ** 61 - 1, 2 ** 62 - 1, 2 ** 62, 10 ** 18 + 9, 3 ** 700,
        2 * 3 ** 700]
BATCH = [(n, j) for n in (2, 3, 5, 6, 7, 10, 100, 1000) for j in (1, 2, 3)] \
    + [(3, 39), (5, 26), (7, 22), (2, 62)]
BIASES = [(1, 3), (2, 3), (2, 5), (3, 7), (5, 11), (1, 6), (5, 12), (7, 16),
          (1, 2), (0, 1), (1, 1), (4, 10), (1, 3 ** 12), (12345, 104729),
          ((2 ** 62 - 1) // 3, 2 ** 62 - 1), (1, 2 ** 62 - 1)]


def lines():
    """One ``name argument float.hex`` line per pinned call."""
    out = []
    for n in SHORT + WIDE:
        out.append(f"exact_cost {n} {exact_cost(n).hex()}")
        out.append(f"toll {n} {toll(n).hex()}")
        if n >= 2:
            out.append(f"asymptotic_cost {n} {asymptotic_cost(n).hex()}")
            out.append(f"asymptotic_cost_k3 {n} "
                       f"{asymptotic_cost(n, 3).hex()}")
    for n, j in BATCH:
        out.append(f"batch_cost {n},{j} {batch_cost(n, j).hex()}")
    for num, den in BIASES:
        out.append(f"nu {num}/{den} {nu(Rational(num, den)).hex()}")
    return out


def test_cost_layer_matches_golden_bit_for_bit():
    assert lines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(lines()) + "\n")
