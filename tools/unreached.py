"""List the statements of ``src/pegkit`` that the tier-1 suite never runs.

    python3 tools/unreached.py [PYTHON] [-- PYTEST_ARG ...]

Runs the suite once, as ``tools/tier1.py`` does and with its helpers,
under PYTHON or else the first CPython 3.12 or later that it finds
(``sys.monitoring`` came in 3.12), with this module loaded as a pytest
plugin.  The plugin registers a ``sys.monitoring`` line callback that
notes each line of ``src/pegkit`` and returns ``DISABLE``, so a line
costs one event however often it runs.  Then the script prints each
statement that never ran as ``module:line text`` and a count per
module.  A docstring is not a statement, and a compound statement
counts as run when one of its own lines (not those of the statements in
its bodies) ran.

Statements that run only inside a test's subprocess (the deep-parse
scripts of ``tests/test_engine.py``, the benchmark's self-test) are not
seen: the callback lives in the pytest process alone.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

import tier1

PACKAGE = os.path.join(tier1.ROOT, "src", "pegkit")
OUT_VAR = "PEGKIT_UNREACHED_OUT"  # where the plugin writes the lines it saw
_seen: dict[str, set[int]] = {}


def _line(code, line):
    if code.co_filename.startswith(PACKAGE):
        _seen.setdefault(code.co_filename, set()).add(line)
    return sys.monitoring.DISABLE


def pytest_load_initial_conftests(early_config, parser, args):
    mon = sys.monitoring
    mon.use_tool_id(mon.COVERAGE_ID, "unreached")
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, _line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)


def pytest_unconfigure(config):
    sys.monitoring.set_events(sys.monitoring.COVERAGE_ID, 0)
    with open(os.environ[OUT_VAR], "w") as out:
        json.dump({path: sorted(lines) for path, lines in _seen.items()}, out)


_NO_CODE = (ast.Global, ast.Nonlocal)  # statements that compile to nothing


def unreached(source: str, executed: set[int]) -> list[tuple[int, str]]:
    """``(line, text)`` of each statement of ``source`` none of whose own
    lines is in ``executed``, in line order.  A statement's own lines are
    its lines less those of the statements in its bodies."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE) or (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)  # a docstring
        ):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for kid in ast.iter_child_nodes(node):
            if isinstance(kid, ast.stmt):
                own -= set(range(kid.lineno, kid.end_lineno + 1))
            elif isinstance(kid, ast.ExceptHandler):  # its header is the try's
                own -= set(range(kid.body[0].lineno, kid.end_lineno + 1))
        if not own & executed:
            found.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(found)


def main(argv: list[str]) -> int:
    pytest_args: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, pytest_args = argv[:cut], argv[cut + 1:]
    for python in argv[:1] or tier1.candidates():
        version = tier1.version_of(python)
        if version is not None and version[:2] >= (3, 12):
            break
    else:
        print("no CPython 3.12 or later found", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as packages:
        tier1.link_packages(packages)
        out = os.path.join(packages, "lines.json")
        path = os.pathsep.join([os.path.dirname(PACKAGE), packages, os.path.dirname(__file__)])
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1",
                   **{OUT_VAR: out})
        run = subprocess.run(
            [python, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", "-p", "unreached", *pytest_args],
            cwd=tier1.ROOT, env=env, capture_output=True, text=True,
        )
        summary = run.stdout.strip().splitlines()[-1:] or ["no output"]
        print(f"{'.'.join(map(str, version))}: {summary[0]} ({python})")
        if not os.path.exists(out):
            print(run.stdout + run.stderr, file=sys.stderr)
            return 2
        with open(out) as f:
            seen = {path: set(lines) for path, lines in json.load(f).items()}
    per_module: Counter[str] = Counter()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path) as f:
                source = f.read()
            module = f"pegkit.{name[:-3]}"
            for line, text in unreached(source, seen.get(path, set())):
                print(f"{module}:{line} {text}")
                per_module[module] += 1
    for module, count in sorted(per_module.items()):
        print(f"{count:5d} {module}")
    print(f"{sum(per_module.values()):5d} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
