"""The public surface: what importing the package loads, and the value
classes' repr, equality, hashing, immutability and validation."""

import copy
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fastdice
from fastdice import (BatchPlan, CostBreakdown, DigitOutOfRange, FdrOutcome,
                      LehmerCode, Rank, RankOutOfRange, Rational,
                      ScriptedBitSource, cost_breakdown, fdr_uniform,
                      plan_batch)

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules no sampling subcommand needs: dataclasses pulls in inspect,
# and the cost theory pulls in fractions and decimal.
STARTUP_FREE = ("dataclasses", "inspect", "fractions", "decimal",
                "fastdice.cost")


# ---------------------------------------------------------- import path


def test_cli_import_loads_no_cost_theory():
    # -S: a bare interpreter, so whatever is loaded was loaded by fastdice
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import fastdice.cli; print(' '.join(sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "fastdice.cli" in loaded
    assert loaded.isdisjoint(STARTUP_FREE), loaded & set(STARTUP_FREE)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fastdice import *", namespace)
    assert set(fastdice.__all__) <= namespace.keys()
    assert set(fastdice.__all__) <= set(dir(fastdice))
    assert fastdice.exact_cost is fastdice.cost.exact_cost
    assert namespace["CostBreakdown"] is fastdice.cost.CostBreakdown


def test_unknown_name_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fastdice.no_such_name


# -------------------------------------------------------- value classes

# (value, its repr, an equal value built anew, a different value, a field)
VALUES = [
    (Rational(1, 3), "Rational(num=1, den=3)", Rational(1, 3),
     Rational(2, 6), "num"),
    (LehmerCode((2, 1, 0)), "LehmerCode(digits=(2, 1, 0))",
     LehmerCode(digits=(2, 1, 0)), LehmerCode((2, 0, 0)), "digits"),
    (Rank(23, 4), "Rank(value=23, n=4)", Rank(value=23, n=4), Rank(23, 5),
     "n"),
    (CostBreakdown(4, 2.0, 2.0, 0.0), "CostBreakdown(n=4, exact_cost=2.0, "
     "log2n=2.0, toll=0.0, asymptotic=None)",
     CostBreakdown(n=4, exact_cost=2.0, log2n=2.0, toll=0.0, asymptotic=None),
     CostBreakdown(4, 2.0, 2.0, 0.0, 2.1), "toll"),
    (fdr_uniform(ScriptedBitSource([0, 1, 1]), 6),
     "FdrOutcome(value=3, bits_used=3)", FdrOutcome(value=3, bits_used=3),
     FdrOutcome(3, 4), "bits_used"),
    (plan_batch(6, 2), "BatchPlan(n=6, j=2, n_pow_j=36)",
     BatchPlan(n=6, j=2, n_pow_j=36), BatchPlan(6, 3, 216), "j"),
]
IDS = [type(v[0]).__name__ for v in VALUES]


@pytest.mark.parametrize("value, text, same, other, field", VALUES, ids=IDS)
def test_value_class_contract(value, text, same, other, field):
    assert repr(value) == text
    assert value == same and hash(value) == hash(same)
    assert value != other
    assert len({value, same, other}) == 2
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    assert getattr(value, field) == getattr(same, field)
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == copy.deepcopy(value) == value


@pytest.mark.parametrize("n, bits", [(1, []), (6, [1, 1, 0, 0, 1]),
                                     (1 << 62, [0] * 62)])
def test_fdr_uniform_returns_the_record(n, bits):
    # n = 1 returns before the loop, the others from inside it
    assert type(fdr_uniform(ScriptedBitSource(bits), n)) is FdrOutcome


def test_rational_is_a_record_not_a_tuple():
    assert Rational(1, 3) != (1, 3)
    match Rational(1, 3):
        case Rational(num, den):
            assert (num, den) == (1, 3)
    with pytest.raises(AttributeError):
        del Rational(1, 3).den
    with pytest.raises(AttributeError):
        Rational(1, 3).extra = 0


@pytest.mark.parametrize("record", [
    LehmerCode((1, 0)), Rank(1, 3), plan_batch(6, 2)],
    ids=lambda r: type(r).__name__)
def test_validating_records_are_slotted_tuples(record):
    # The shared _make override adds no instance dict to the records.
    assert isinstance(record, tuple) and not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 0
    assert type(record)._make(record) == record


NOT_AN_INT = "'%s' object cannot be interpreted as an integer"


@pytest.mark.parametrize("build, error, message", [
    (lambda: Rational(1, 0), ValueError, "need den >= 1, got 0"),
    (lambda: Rational(5, 4), ValueError, "need 0 <= num <= den, got 5/4"),
    (lambda: Rational(-1, 4), ValueError, "need 0 <= num <= den, got -1/4"),
    (lambda: LehmerCode((0, 0, 1)), DigitOutOfRange,
     "digit 1 at position size 1 (index 2)"),
    (lambda: LehmerCode(digits=(3, 0, 0)), DigitOutOfRange,
     "digit 3 at position size 3 (index 0)"),
    (lambda: Rank(24, 4), RankOutOfRange, "rank 24 outside [0, 4!)"),
    (lambda: Rank(value=-1, n=4), RankOutOfRange, "rank -1 outside [0, 4!)"),
    (lambda: Rank(0, -1), ValueError, "need n >= 0, got -1"),
    (lambda: Rank(1, 3)._replace(value=6), RankOutOfRange,
     "rank 6 outside [0, 3!)"),
    (lambda: LehmerCode((1, 0))._replace(digits=(2, 0)), DigitOutOfRange,
     "digit 2 at position size 2 (index 0)"),
    (lambda: plan_batch(6, 2)._replace(n_pow_j=5), ValueError,
     "need n_pow_j == 6**2 = 36, got 5"),
    (lambda: plan_batch(6, 2)._replace(j=3), ValueError,
     "need n_pow_j == 6**3 = 216, got 36"),
    # Every field is an integer: anything else fails when it is built.
    pytest.param(lambda: Rational(1, 6.0), TypeError, NOT_AN_INT % "float",
                 id="Rational-float"),
    pytest.param(lambda: Rank(2.5, 3), TypeError, NOT_AN_INT % "float",
                 id="Rank-float"),
    pytest.param(lambda: LehmerCode((1.5, 0)), TypeError,
                 NOT_AN_INT % "float", id="LehmerCode-float"),
    pytest.param(lambda: BatchPlan(3.0, 2, 9), TypeError,
                 NOT_AN_INT % "float", id="BatchPlan-float"),
    pytest.param(lambda: Rank(-1, -1), ValueError, "need n >= 0, got -1",
                 id="Rank-n-before-value"),
    # K is checked by the cost call that takes it, even at n = 1 where no
    # fluctuation is summed; the ids keep the name of the record that once
    # held K.
    pytest.param(lambda: cost_breakdown(1, 6.0), TypeError,
                 NOT_AN_INT % "float", id="AsymptoticParams-float"),
    pytest.param(lambda: cost_breakdown(1, 0), ValueError,
                 "need k_terms >= 1, got 0", id="AsymptoticParams-zero"),
])
def test_value_class_validation(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
