"""Line trace of ``src/ibrownian`` over a pytest run, a pytest plugin:

    PYTHONPATH=src:tests python -m pytest -p linetrace [pytest arguments]

Tracing starts when pytest loads the plugin, before any conftest imports
the package.  It records every line of the package that runs in the
pytest process, in its main thread (``sys.settrace``) and in threads
started later (``threading.settrace``); lines that run only in child
processes (worker pools, the CLI started as a module, the fingerprint
script) are not seen.  At session end the terminal summary lists, per
module, the statements that never ran, as line ranges.  A statement is a
line that carries bytecode in the module's compiled code, so a docstring
or a blank line never counts.  It needs only the standard library.
pytest does not collect this file.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("ibrownian").origin).parent
_PREFIX = str(PACKAGE) + "/"
_ran: defaultdict[str, set[int]] = defaultdict(set)


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    if not frame.f_code.co_filename.startswith(_PREFIX):
        return None
    _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _statements(path: Path) -> set[int]:
    """Every line that carries bytecode in the compiled module."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _ranges(lines) -> str:
    """Ascending line numbers as runs: "3, 7-9"."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def not_run() -> dict[str, list[int]]:
    """{module file name: the statements that have not run}, for every module."""
    return {
        path.name: sorted(_statements(path) - _ran.get(str(path), set()))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    missed = not_run()
    total = sum(len(_statements(PACKAGE / name)) for name in missed)
    terminalreporter.section("line trace of src/ibrownian")
    terminalreporter.write_line(f"{total - sum(map(len, missed.values()))} of {total} statements ran")
    for name, lines in missed.items():
        if lines:
            terminalreporter.write_line(f"{name}: {len(lines)} not run: {_ranges(lines)}")


threading.settrace(_global)
sys.settrace(_global)
