"""The output contract shared by the command and acceptance tests, and the
gate's solver runs, computed once per session.

`tests/data/contract/` holds what the commands wrote, and what the gate's
criteria reported, when the files were committed.  A later build must
reproduce them: text exactly, numbers to within roundoff.
"""

import re
from pathlib import Path

import pytest

from magnonbs import scenarios
from magnonbs.acceptance import _triangle_pair, curve_pair
from magnonbs.scenarios import FIG2_CURVES

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


@pytest.fixture(scope="session")
def fig2_pairs():
    """Each gate depth's storage-drive curve and its halved-grid twin."""
    return {params.od: curve_pair(params) for params in FIG2_CURVES}


def capture_extractions(patch, sink: list) -> None:
    """Make `patch` send every splitter extraction the scenarios run to `sink`."""
    extract = scenarios.extract_matrix

    def capturing(*args, **kwargs):
        sink.append(extract(*args, **kwargs))
        return sink[-1]

    patch.setattr(scenarios, "extract_matrix", capturing)


@pytest.fixture(scope="session")
def mixing_runs():
    """The gate's triangle checks of the resonant and the detuned mixing
    point, and the extractions behind them, in gate order."""
    extractions = []
    with pytest.MonkeyPatch.context() as patch:
        capture_extractions(patch, extractions)
        checks = _triangle_pair()
    return checks, tuple(extractions)


@pytest.fixture(scope="session")
def mixing_checks(mixing_runs):
    """The triangle checks of the resonant and the detuned mixing point."""
    return mixing_runs[0]


@pytest.fixture(scope="session")
def mixing_extractions(mixing_runs):
    """The extractions behind `mixing_checks`, in the same order."""
    return mixing_runs[1]


@pytest.fixture
def extractions(monkeypatch):
    """Every splitter extraction the scenarios run in the test, in call order."""
    sink = []
    capture_extractions(monkeypatch, sink)
    return sink
