"""Each command's tables against the committed output contract.

The files under `data/contract/<case>/` are the tables that the case's
command wrote with `--out data/contract/<case>`; regenerate them that way
only when an output change is intended, and say so where it is recorded.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from magnonbs.cli import main


def _overrides(*items: str) -> list[str]:
    return [arg for item in items for arg in ("--override", item)]


CASES = {
    "fig2": ["fig2", *_overrides("scenario.ods=30", "scenario.rabi_s_grid=3,5,8")],
    "fig3": ["fig3"],
    "fig4": ["fig4"],
    "run": ["run", *_overrides("grid.n_z=16", "grid.t_end=2", "grid.snapshots=1",
                               "medium.delta=1.5", "medium.gamma12=0.02")],
    "sweep": ["sweep", *_overrides("sweep.num=3", "grid.n_z=16")],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_tables_match_the_contract(case, tmp_path, contract_dir, same_output):
    assert main(CASES[case] + ["--out", str(tmp_path)]) == 0
    want = contract_dir / case
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        same_output((tmp_path / name).read_text(encoding="utf-8"),
                    (want / name).read_text(encoding="utf-8"))


def test_importing_the_cli_loads_no_scipy():
    # Importing scipy (any of its modules) more than doubles every command's
    # start-up time, and nothing the commands run needs it.  The process
    # pool's modules cost about 20 ms more, and only `accept` needs them.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import magnonbs.cli; "
            "sys.exit(sorted(m for m in sys.modules "
            "if m in ('scipy', 'multiprocessing', 'concurrent.futures.process') "
            "or m.startswith('scipy.'))[:5] or 0)")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr or "magnonbs.cli imports scipy or a process pool"
