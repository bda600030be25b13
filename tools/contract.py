"""Rerun the output contract and compare it with, or write it over,
`tests/data/contract/`.

    python tools/contract.py diff
    python tools/contract.py write

Both run each command case of `tests/output_contract.py` and the
acceptance gate into a temporary directory, laid out as the contract, and
compare every file with the committed one under the contract tests' own
tokenizer and tolerance.  They print one Markdown table row per moved
token: the file, the committed line, the column or the criterion, the old
and the new value, and the absolute and relative change.  A number moves
when it leaves the tolerance; text moves when it differs at all, and a
line or file that only one side has moves whole.  `diff` exits 0 only when
nothing moves; `write` then replaces the committed files with the new ones,
`accept_details.txt` included.  A revision made with `write` is a contract
change: its table goes where the change is recorded.

Standard library and `magnonbs` only; not part of the test suite.
"""

from __future__ import annotations

import difflib
import shutil
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from magnonbs.acceptance import run_all  # noqa: E402
from magnonbs.cli import main as magnonbs  # noqa: E402
from output_contract import CASES, CONTRACT, DETAILS, NUMBER, same_number  # noqa: E402


class Move(NamedTuple):
    """One moved token: `line` counts in the committed file, or in the new
    one for a line only it has, as "+N"."""

    file: str
    line: str
    label: str
    old: str
    new: str


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


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare(new_dir: Path, old_dir: Path) -> list[Move]:
    """Every token of the files under `new_dir` that moved from those under
    `old_dir`, file by file in name order."""
    new_files, old_files = _files(new_dir), _files(old_dir)
    moves = []
    for name in sorted(new_files | old_files):
        if name not in new_files:
            moves.append(Move(name, "", "(file)", name, ""))
        elif name not in old_files:
            moves.append(Move(name, "", "(file)", "", name))
        else:
            moves += _revise(name, old_dir, new_dir)[0]
    return moves


def _shape(tokens: list[str]) -> list[str]:
    """Text tokens as they are and every number as "#"."""
    return [t if k % 2 == 0 else "#" for k, t in enumerate(tokens)]


def _label(name: str, line: str, offset: int, columns: list[str], k: int) -> str:
    """What the text at `offset` of line `k` is: the criterion, the header
    key, or the table column it lies in."""
    if name == DETAILS:
        return f"criterion {k + 1}"
    if line.startswith("#"):
        return line[2:].split(" = ", 1)[0]
    if line == ",".join(columns):
        return "(columns)"
    cell = line[:offset].count(",")
    return columns[cell] if cell < len(columns) else "(row)"


def _revise(name: str, old_dir: Path, new_dir: Path) -> tuple[list[Move], str]:
    """The moved tokens of file `name`, and its new text with every line in
    which nothing moved kept as committed, roundoff and all."""
    old = (old_dir / name).read_text(encoding="utf-8").splitlines()
    new = (new_dir / name).read_text(encoding="utf-8").splitlines()

    def columns_of(lines):
        return next((ln.split(",") for ln in lines if not ln.startswith("#")), [])

    old_columns, new_columns = columns_of(old), columns_of(new)
    old_tokens = [NUMBER.split(ln) for ln in old]
    new_tokens = [NUMBER.split(ln) for ln in new]
    lines = difflib.SequenceMatcher(None, ["".join(_shape(t)) for t in old_tokens],
                                    ["".join(_shape(t)) for t in new_tokens],
                                    autojunk=False)
    moves = []
    text = list(new)
    for tag, i0, i1, j0, j1 in lines.get_opcodes():
        if tag == "equal" or (tag == "replace" and i1 - i0 == j1 - j0):
            for i, j in zip(range(i0, i1), range(j0, j1)):
                moved = _line_moves(name, i, old[i], old_tokens[i], new_tokens[j],
                                    old_columns)
                moves += moved
                if not moved:
                    text[j] = old[i]
            continue
        moves += [Move(name, str(i + 1), _label(name, old[i], 0, old_columns, i), old[i], "")
                  for i in range(i0, i1)]
        moves += [Move(name, f"+{j + 1}", _label(name, new[j], 0, new_columns, j), "", new[j])
                  for j in range(j0, j1)]
    return moves, "".join(f"{line}\n" for line in text)


def _line_moves(name: str, i: int, line: str, old: list[str], new: list[str],
                columns: list[str]) -> list[Move]:
    """The moved tokens of committed line i, `old` and `new` being its two
    versions split by NUMBER."""
    offsets = [0]
    for token in old:
        offsets.append(offsets[-1] + len(token))

    def move(a: int, old_text: str, new_text: str) -> Move:
        return Move(name, str(i + 1), _label(name, line, offsets[a], columns, i),
                    old_text, new_text)

    moves = []
    tokens = difflib.SequenceMatcher(None, _shape(old), _shape(new), autojunk=False)
    for tag, a0, a1, b0, b1 in tokens.get_opcodes():
        if tag != "equal":
            # Labelled by the first number it holds, if any.
            first = a0 + 1 if a0 % 2 == 0 and a1 > a0 + 1 else a0
            moves.append(move(first, "".join(old[a0:a1]), "".join(new[b0:b1])))
            continue
        for a, b in zip(range(a0, a1), range(b0, b1)):
            if a % 2 and not same_number(new[b], old[a]):
                moves.append(move(a, old[a], new[b]))
    return moves


def _cell(text: str) -> str:
    return f"`{text}`".replace("|", "\\|") if text else ""


def table(moves: list[Move]) -> str:
    """The moves as a Markdown table, with each moved number's absolute
    and relative change."""
    rows = ["| file | line | column or criterion | old | new | abs change | rel change |",
            "|---|---|---|---|---|---|---|"]
    for m in moves:
        change = ["", ""]
        if NUMBER.fullmatch(m.old) and NUMBER.fullmatch(m.new):
            old, new = float(m.old), float(m.new)
            change = [f"{new - old:.3g}", f"{(new - old) / abs(old):.3g}" if old else ""]
        rows.append(f"| {m.file} | {m.line} | {m.label} | {_cell(m.old)} | "
                    f"{_cell(m.new)} | {change[0]} | {change[1]} |")
    return "\n".join(rows)


def write(new_dir: Path) -> None:
    """Replace the committed contract with the files under `new_dir`,
    keeping each committed line in which nothing moved."""
    new_files, old_files = _files(new_dir), _files(CONTRACT)
    for name in old_files - new_files:
        (CONTRACT / name).unlink()
    for name in new_files:
        target = CONTRACT / name
        if name in old_files:
            target.write_text(_revise(name, CONTRACT, new_dir)[1], encoding="utf-8",
                              newline="\n")
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(new_dir / name, target)


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
