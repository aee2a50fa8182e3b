"""README's library examples run as written.

Its three ``python`` blocks build on one another (the second draws from
the first's source, the third uses the second's ``Rational``), so they
run in order in one namespace.  Two comments state exact values; those
are checked too.
"""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["exact_cost_rational"](100) == Fraction(1548, 205)
    third = namespace["Rational"](1, 3)
    assert namespace["nu_exact"](third) == Fraction(8, 9)
