"""Rerun the output contract and compare it with, or write it over,
`tests/data/contract/`.

    python tools/contract.py diff
    python tools/contract.py write

Both run each command case of `tests/output_contract.py` and the
acceptance gate into a temporary directory, laid out as the contract, and
compare every file with the committed one through that module's
comparison, the one the contract tests use.  They print one Markdown table
row per moved token: the file, the committed line, the column or the
criterion, the old and the new value, and the absolute and relative
change.  `diff` exits 0 only when nothing moves; `write` then replaces
the committed files with the new ones, `accept_details.txt` included.  A
revision made with `write` is a contract change: its table goes where the
change is recorded.

Standard library and `magnonbs` only; not part of the test suite.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from magnonbs.acceptance import run_all  # noqa: E402
from magnonbs.cli import main as magnonbs  # noqa: E402
from output_contract import (  # noqa: E402
    CASES, CONTRACT, DETAILS, compare, files, revise, table,
)


def generate(out: Path) -> None:
    """Write every contract file under `out`, laid out as the contract."""
    for case, args in CASES.items():
        (out / case).mkdir()
        if magnonbs([*args, "--out", str(out / case)]) != 0:
            raise SystemExit(f"magnonbs {' '.join(args)} failed")
    results = run_all()
    for result in results:
        if not result.passed:
            print(result.line(), file=sys.stderr)
    text = "".join(f"{result.details}\n" for result in results)
    (out / DETAILS).write_text(text, encoding="utf-8", newline="\n")


def write(new_dir: Path) -> None:
    """Replace the committed contract with the files under `new_dir`,
    keeping each committed line in which nothing moved."""
    new_files, old_files = files(new_dir), files(CONTRACT)
    for name in old_files - new_files:
        (CONTRACT / name).unlink()
    for name in new_files:
        target = CONTRACT / name
        target.parent.mkdir(parents=True, exist_ok=True)
        old = target.read_text(encoding="utf-8") if name in old_files else ""
        text = revise(name, old, (new_dir / name).read_text(encoding="utf-8"))[1]
        target.write_text(text, encoding="utf-8", newline="\n")


def main(argv: list[str]) -> int:
    if argv not in (["diff"], ["write"]):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        new_dir = Path(tmp)
        generate(new_dir)
        moves = compare(new_dir, CONTRACT)
        if moves:
            print(table(moves))
        print(f"{len(moves)} tokens moved", file=sys.stderr)
        if argv == ["write"]:
            write(new_dir)
            return 0
    return 1 if moves else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
