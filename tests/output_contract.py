"""The output contract: the command cases whose tables `data/contract/`
holds, and how a rerun's numbers are held to the committed ones.

`conftest.py` and `tools/contract.py` both read this module, so that the
contract tests and the tool that revises the contract cannot disagree.
Standard library only.
"""

import re
from pathlib import Path

CONTRACT = Path(__file__).parent / "data" / "contract"

# The gate's criteria details, one line per criterion, beside the cases'
# directories.
DETAILS = "accept_details.txt"


def _overrides(*items: str) -> list[str]:
    return [arg for item in items for arg in ("--override", item)]


# Each case's command line; `data/contract/<case>/` holds the tables it
# writes.
CASES = {
    "fig2": ["fig2", *_overrides("scenario.ods=30", "scenario.rabi_s_grid=3,5,8")],
    "fig3": ["fig3"],
    "fig4": ["fig4"],
    "run": ["run", *_overrides("grid.n_z=16", "grid.t_end=2", "grid.snapshots=1",
                               "medium.delta=1.5", "medium.gamma12=0.02")],
    "sweep": ["sweep", *_overrides("sweep.num=3", "grid.n_z=16")],
}

# A number as printed by the CSV writer or a criterion's details; the text
# between two numbers must match exactly.
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def same_number(got: str, want: str) -> bool:
    # Absolute 1e-12 admits roundoff-level values (criterion 1's P(1,1)
    # near 1e-32, norms of 1e-15 left in a cell) that differ between
    # platforms; relative 1e-9 is far below any change in the physics, as
    # tables print 10 significant digits.
    g, w = float(got), float(want)
    return abs(g - w) <= max(1e-12, 1e-9 * abs(w))
