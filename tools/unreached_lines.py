"""List the lines of the balcut package that the test suite never runs.

Runs pytest in this process under ``sys.settrace``, records every line
executed in a module of ``src/balcut``, then prints, module by module, each
executable line that no test reached.  Lines of ``raise`` statements are
left out: they are guards that a correct run never takes.

    python tools/unreached_lines.py            # the default suite (tier-1)
    python tools/unreached_lines.py tests/test_driver.py -k witness

Extra arguments go to pytest.  The exit status is pytest's.  Tracing
slows the suite several-fold; a function is traced only until every one
of its lines has run.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "balcut"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode, minus those of raise statements."""
    source = path.read_text()
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(ln for _, _, ln in code.co_lines() if ln)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = defaultdict(set)
    code_lines: dict = {}
    done: set = set()

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in done or not code.co_filename.startswith(prefix):
            return None
        seen = hits[code.co_filename]
        want = code_lines.get(code)
        if want is None:
            want = code_lines[code] = {ln for _, _, ln in code.co_lines() if ln}
        if want <= seen:
            done.add(code)
            return None
        seen.add(frame.f_lineno)
        return local

    sys.path.insert(0, str(REPO / "src"))
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - hits[str(path)])
        total += len(missed)
        print(f"\n{path.name}: {len(missed)} unreached")
        text = path.read_text().splitlines()
        for ln in missed:
            print(f"  {ln:5d}  {text[ln - 1].strip()}")
    print(f"\ntotal: {total} unreached non-raise lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
