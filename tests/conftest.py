"""The output contract shared by the command and acceptance tests, and the
gate's solver runs, computed once per session.

`tests/data/contract/` holds what the commands wrote, and what the gate's
criteria reported, when the files were committed.  A later build must
reproduce them: text exactly, numbers to within roundoff.
"""

import tracemalloc
from pathlib import Path

import pytest

from magnonbs import scenarios
from magnonbs.acceptance import _triangle_pair, curve_and_quarter
from magnonbs.scenarios import FIG2_CURVES
from output_contract import CONTRACT, NUMBER, same_number


def assert_same_output(got: str, want: str) -> None:
    """Fail unless `got` matches `want` line by line and token by token."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), (
        f"{len(got_lines)} lines, contract has {len(want_lines)}"
    )
    for k, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        gt, wt = NUMBER.split(g), NUMBER.split(w)
        same = len(gt) == len(wt) and all(
            same_number(a, b) if i % 2 else a == b
            for i, (a, b) in enumerate(zip(gt, wt))
        )
        assert same, f"line {k}: {g!r}, contract has {w!r}"


def traced(fn, *args, **kwargs) -> tuple[int, int]:
    """The bytes `fn(*args, **kwargs)` allocated and still held when it
    returned, its result included, and the most it held at once, both as
    `tracemalloc` counts them from the call's start."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)  # held while the counts are read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def contract_dir() -> Path:
    return CONTRACT


@pytest.fixture(scope="session")
def same_output():
    return assert_same_output


@pytest.fixture(scope="session")
def fig2_pairs():
    """Each gate depth's storage-drive curve and its optimum's run on a
    quarter of the curve's finest grid, as the gate builds them."""
    return {params.od: curve_and_quarter(params) for params in FIG2_CURVES}


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
