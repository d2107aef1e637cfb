"""Print each line of src/ that the Tier-1 suite never runs.

    python3 scripts/unreached.py

It runs Tier-1 (pytest on the configured testpaths) in this process under
a stdlib `sys.settrace` line tracer, then compares the lines that ran with
the executable lines of every module under src/, read from its compiled
code objects. Code that runs only in another process (`python -m pisim`
subprocesses, `sweep --jobs` workers) is not traced.

tests/unreached.txt lists the lines allowed to stay unreached, one
`path:line reason` entry a line, with `#` comments. The script prints
each unreached line that is not listed, and each listed line that now
runs or is no longer executable, and exits 1 if there is any, or if the
suite fails. It takes no options and is not part of Tier-1: under the
tracer the suite takes about 90 s on a 2-vCPU VM, against about 45 s
untraced.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ALLOWLIST = REPO / "tests" / "unreached.txt"


def executable_lines(path: Path) -> set[int]:
    """The lines that some instruction of the module's code objects is on."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's first instruction sits on line 0, before any source line
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def allowed() -> dict[str, str]:
    """Each listed `path:line` with its reason."""
    entries = {}
    for text in ALLOWLIST.read_text().splitlines():
        text = text.split("#", 1)[0].strip()
        if text:
            where, _, reason = text.partition(" ")
            entries[where] = reason.strip()
    return entries


def traced_run() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit code, and the lines it ran in each src/ file."""
    ran: dict[str, set[int]] = {}
    local_tracers = {}  # co_filename -> its line tracer, or None outside src/

    def tracer_for(filename: str):
        path = Path(filename).resolve()
        if SRC not in path.parents:
            return None
        lines = ran.setdefault(str(path.relative_to(REPO)), set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in local_tracers:
            local_tracers[filename] = tracer_for(filename)
        return local_tracers[filename]

    os.chdir(REPO)
    sys.path.insert(0, str(SRC))
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    import pytest

    class NoDeadline:
        """The tracer slows every example; a deadline would fail tests, not lines."""

        @staticmethod
        def pytest_configure(config):
            import hypothesis

            hypothesis.settings.register_profile("unreached", deadline=None)
            hypothesis.settings.load_profile("unreached")

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
                           plugins=[NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = traced_run()
    listed = allowed()
    unlisted, stale, total = [], set(listed), 0
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(REPO))
        source = path.read_text().splitlines()
        executable = executable_lines(path)
        total += len(executable)
        for line in sorted(executable - ran.get(name, set())):
            where = f"{name}:{line}"
            if where in listed:
                stale.discard(where)
            else:
                unlisted.append(f"{where}: {source[line - 1].strip()}")
    for text in unlisted:
        print(f"unreached: {text}")
    for where in sorted(stale):
        print(f"listed but reached or not executable: {where}")
    unreached = len(unlisted) + len(listed) - len(stale)
    print(f"{total - unreached} of {total} executable lines ran; {len(listed) - len(stale)} "
          f"unreached lines listed, {len(unlisted)} not listed")
    if code:
        print(f"the suite failed with exit code {code}")
    return 1 if code or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
