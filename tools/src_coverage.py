"""List the lines of src/groupkit that the tests never run.

    python tools/src_coverage.py

Runs the whole suite under tests/ in this process with a sys.settrace line
tracer, then lists every line inside a function body in src/groupkit that
never ran.  Exits 1 when a listed line is not on ALLOWED below, or when an
entry of ALLOWED names a line that ran or is gone, else 0.  The tests' own pass or fail is tier-1's verdict, not
this one's: the tracer slows every call, so timing bounds may fail here.

The tracer is re-armed before each test's setup and call, because a test
that installs its own trace function (hypothesis does) leaves it unset.
Only the stdlib and pytest are used.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "groupkit"

# (file, function, stripped source line) -> why the line may stay unreached.
# Keyed by text, not line number, so edits elsewhere in a file keep it valid.
_TOO_DEEP = 'raise InvalidSpec("group spec is nested too deeply") from None'
_UNSEEN = "reached by test_deep_spec_is_invalid, but a RecursionError unsets the trace function"
ALLOWED = {
    ("groups.py", "build_group", _TOO_DEEP): _UNSEEN,
}


def _lines(code) -> set[int]:
    """The lines of code's own bytecode, its first line included."""
    return {line for _, _, line in code.co_lines() if line is not None} | {code.co_firstlineno}


def _function_lines(code, qualname: str = "") -> dict[int, str]:
    """line -> the qualified name of the function holding it, for every
    line with bytecode in a function (not a module or class body) nested
    in code.  Comprehensions and lambdas count as their enclosing function."""
    out: dict[int, str] = {}
    for const in code.co_consts:
        if not inspect.iscode(const):
            continue
        if const.co_name.startswith("<"):
            name = qualname or const.co_name
        else:
            name = f"{qualname}.{const.co_name}" if qualname else const.co_name
        if const.co_flags & inspect.CO_OPTIMIZED:
            out |= dict.fromkeys(_lines(const), name)
        out |= _function_lines(const, name)
    return out


class _Tracer:
    """Keeps, for each code object run, the lines of it that have not run
    (none for code outside src/groupkit).  A code object stops being traced
    once every one of its lines has run."""

    def __init__(self) -> None:
        self.left: dict = {}
        self._prefix = str(SRC) + os.sep

    def __call__(self, frame, event, arg):
        code = frame.f_code
        left = self.left.get(code)
        if left is None:
            left = _lines(code) if code.co_filename.startswith(self._prefix) else set()
            self.left[code] = left
        if not left:
            return None
        left.discard(frame.f_lineno)
        return self._local

    def _local(self, frame, event, arg):
        left = self.left[frame.f_code]
        if event == "line":
            left.discard(frame.f_lineno)
        return self._local if left else None

    def ran(self) -> set[tuple[str, int]]:
        """The (file, line) pairs run in src/groupkit."""
        return {
            (code.co_filename, line)
            for code, left in self.left.items()
            if code.co_filename.startswith(self._prefix)
            for line in _lines(code) - left
        }


class _Rearm:
    """pytest plugin: install the tracer before each test's setup and call."""

    def __init__(self, tracer: _Tracer) -> None:
        self.tracer = tracer

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(self.tracer)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        sys.settrace(self.tracer)


def main() -> int:
    # the tests import groupkit from src, in this process and in the CLI
    # subprocesses they start
    sys.path.insert(0, str(SRC.parent))
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    tracer = _Tracer()
    sys.settrace(tracer)
    try:
        pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"],
                    plugins=[_Rearm(tracer)])
    finally:
        sys.settrace(None)
    import groupkit

    if Path(groupkit.__file__).resolve().parent != SRC:
        print(f"groupkit was imported from {groupkit.__file__}, not {SRC}")
        return 1
    ran = tracer.ran()
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        code = compile(text, str(path), "exec")
        for line, name in sorted(_function_lines(code).items()):
            if (str(path), line) not in ran:
                unreached.append((path.name, line, name, source[line - 1].strip()))
    used = set()
    failed = 0
    print(f"\n{len(unreached)} unreached lines in function bodies under {SRC.relative_to(ROOT)}:")
    for file, line, name, text in unreached:
        key = (file, name, text)
        reason = ALLOWED.get(key)
        if reason is None:
            failed += 1
            print(f"  {file}:{line} {name}: {text}")
        else:
            used.add(key)
            print(f"  {file}:{line} {name}: {text}\n    allowed: {reason}")
    if failed:
        print(f"{failed} unreached lines are not allowed: test them, or delete them")
    stale = sorted(ALLOWED.keys() - used)
    for file, name, text in stale:
        print(f"  {file} {name}: {text}\n    allowed, but it ran or is gone: drop it from ALLOWED")
    return 1 if failed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
