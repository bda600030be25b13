"""Each command's tables against the committed output contract.

The files under `data/contract/<case>/` are the tables that the case's
command wrote with `--out data/contract/<case>`.  Regenerate them, and
`accept_details.txt`, only when an output change is intended, with
`python tools/contract.py write`, and record the table of moved tokens it
prints where the change is recorded.
"""

import ast
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from magnonbs.cli import main
from output_contract import CASES, CONTRACT, Move, compare, table

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_tables_match_the_contract(case, tmp_path):
    assert main(CASES[case] + ["--out", str(tmp_path)]) == 0
    moves = compare(tmp_path, CONTRACT / case)
    assert not moves, table(moves)


def test_importing_the_cli_loads_no_scipy():
    # Importing scipy (any of its modules) more than doubles every command's
    # start-up time, and nothing the commands run needs it.  A process
    # pool's modules cost about 20 ms more, and no command needs them.
    src = ROOT / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import magnonbs.cli; "
            "sys.exit(sorted(m for m in sys.modules "
            "if m in ('scipy', 'multiprocessing', 'concurrent.futures.process') "
            "or m.startswith('scipy.'))[:5] or 0)")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr or "magnonbs.cli imports scipy or a process pool"


def _tool(name):
    spec = importlib.util.spec_from_file_location(f"{name}_tool", ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_contract_tool_reports_exactly_the_token_that_moved(tmp_path):
    # On committed files, not on a rerun: an unchanged copy has not moved,
    # nor has a number rewritten within the tolerance; a number moved past
    # it is reported alone, with its file, line and column.  The tool and
    # the contract tests compare alike, through `output_contract`.
    assert _tool("contract").compare is compare
    copy = tmp_path / "contract"
    shutil.copytree(CONTRACT, copy)
    assert compare(copy, CONTRACT) == []
    path = copy / "fig4" / "fig4_corners.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    k = lines.index("classical_threshold,2.25\n")
    for value, moved in (("2.2500000000001", False), ("2.2500001", True)):
        lines[k] = f"classical_threshold,{value}\n"
        path.write_text("".join(lines), encoding="utf-8")
        want = [Move("fig4/fig4_corners.csv", str(k + 1), "g3", "2.25", value)]
        assert compare(copy, CONTRACT) == (want if moved else [])


def test_every_mutant_names_text_and_tests_that_exist():
    # The mutant catalogue is run by hand; a change that removes a mutant's
    # text, or the tests it names, fails here instead of there.
    mutants = _tool("mutants").MUTANTS
    assert len({name for name, *_ in mutants}) == len(mutants)
    for name, rel, old, _, ids in mutants:
        found = (ROOT / rel).read_text(encoding="utf-8").count(old)
        assert found == 1, f"{name}: old text found {found} times"
        assert ids, name
        for test_id in ids:
            path, _, test = test_id.partition("::")
            assert (ROOT / path).is_file(), (name, test_id)
            if test:
                function = test.partition("[")[0]
                assert f"def {function}(" in (ROOT / path).read_text(encoding="utf-8"), \
                    (name, test_id)


def test_every_traced_test_is_named_by_a_mutant():
    # A memory test passes on any code that holds little enough; only a
    # mutant that re-creates the defect it guards shows that it can fail.
    # A test is traced when it calls `traced` itself or through functions
    # of its module.
    named = {test_id.partition("[")[0] for *_, ids in _tool("mutants").MUTANTS for test_id in ids}
    traced_tests = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        calls = {node.name: {call.func.id for call in ast.walk(node)
                             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
                 for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.FunctionDef)}
        tracing = {"traced"}
        while grown := {name for name, called in calls.items() if called & tracing} - tracing:
            tracing |= grown
        traced_tests += [f"tests/{path.name}::{name}" for name in calls
                         if name in tracing and name.startswith("test_")]
    assert traced_tests
    assert [test for test in traced_tests if test not in named] == []
