"""The output contract shared by the command and acceptance tests.

`tests/data/contract/` holds what the commands wrote, and what the gate's
criteria reported, when the files were committed.  A later build must
reproduce them: text exactly, numbers to within roundoff.
"""

import re
from pathlib import Path

import pytest

CONTRACT = Path(__file__).parent / "data" / "contract"

# A number as printed by the CSV writer or a criterion's details; the text
# between two numbers must match exactly.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _same_number(got: str, want: str) -> bool:
    # Absolute 1e-12 admits roundoff-level values (ledger residuals near
    # 1e-16) that differ between platforms; relative 1e-9 is far below any
    # change in the physics, as tables print 10 significant digits.
    g, w = float(got), float(want)
    return abs(g - w) <= max(1e-12, 1e-9 * abs(w))


def assert_same_output(got: str, want: str) -> None:
    """Fail unless `got` matches `want` line by line and token by token."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), (
        f"{len(got_lines)} lines, contract has {len(want_lines)}"
    )
    for k, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        gt, wt = _NUMBER.split(g), _NUMBER.split(w)
        same = len(gt) == len(wt) and all(
            _same_number(a, b) if i % 2 else a == b
            for i, (a, b) in enumerate(zip(gt, wt))
        )
        assert same, f"line {k}: {g!r}, contract has {w!r}"


@pytest.fixture(scope="session")
def contract_dir() -> Path:
    return CONTRACT


@pytest.fixture(scope="session")
def same_output():
    return assert_same_output
