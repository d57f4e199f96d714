"""The `clstruct verify` report, pinned line for line."""
import pytest

from clstruct import cli

DEFAULT = """\
PASS closed-form boundary cases
PASS tracer vs oracle, exhaustive q=2,3
PASS vertex flip invariance
PASS strip decomposition over components
PASS switched edge in every cycle component
PASS odd rank forces non-orientable strips
PASS expansion round trips
PASS wedge reachability by contraction
"""

EXTENDED = """\
PASS tracer vs oracle, random V<=8
PASS rank-4 spot checks
"""


@pytest.mark.parametrize("argv, expected", [
    (["--seed", "0"], DEFAULT + "8/8 suites passed\n"),
    (["--seed", "1"], DEFAULT + "8/8 suites passed\n"),
    (["--level", "extended"], DEFAULT + EXTENDED + "10/10 suites passed\n"),
], ids=["seed0", "seed1", "extended"])
def test_verify_stdout_is_pinned(capsys, argv, expected):
    assert cli.main(["verify"] + argv) == 0
    assert capsys.readouterr().out == expected
