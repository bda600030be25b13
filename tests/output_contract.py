"""The output contract: the command cases whose tables `data/contract/`
holds beside what the gate's criteria reported, and how a rerun's files
are compared with the committed ones.

The contract tests and `tools/contract.py` both compare through this
module, so that the tests and the tool that revises the contract cannot
disagree.  A later build must reproduce the files: a number moves when it
leaves the tolerance of `same_number`, text when it differs at all, and a
line or file that only one side has moves whole.  Standard library only.
"""

import difflib
import re
from pathlib import Path
from typing import NamedTuple

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


class Move(NamedTuple):
    """One moved token: `line` counts in the committed file, or in the new
    one for a line only it has, as "+N"."""

    file: str
    line: str
    label: str
    old: str
    new: str


def files(root: Path) -> set[str]:
    """The paths of the files under `root`, relative to it."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def compare(new_dir: Path, old_dir: Path) -> list[Move]:
    """Every token of the files under `new_dir` that moved from those under
    `old_dir`, file by file in name order."""
    new_files, old_files = files(new_dir), files(old_dir)
    moves = []
    for name in sorted(new_files | old_files):
        if name not in new_files:
            moves.append(Move(name, "", "(file)", name, ""))
        elif name not in old_files:
            moves.append(Move(name, "", "(file)", "", name))
        else:
            moves += revise(name, (old_dir / name).read_text(encoding="utf-8"),
                            (new_dir / name).read_text(encoding="utf-8"))[0]
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


def revise(name: str, old_text: str, new_text: str) -> tuple[list[Move], str]:
    """The moved tokens of file `name`, committed as `old_text` and rerun
    as `new_text`, and its new text with every line in which nothing moved
    kept as committed, roundoff and all."""
    old, new = old_text.splitlines(), new_text.splitlines()

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
