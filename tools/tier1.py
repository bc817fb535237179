"""Run the tier-1 test suite under each installed CPython from 3.11 up.

    python3 tools/tier1.py [PYTHON ...] [-- PYTEST_ARG ...]

Without interpreters named, they are found as ``python3.N`` on PATH and
under pyenv's ``versions`` directory (``$PYENV_ROOT``, else ``~/.pyenv``).
Each one runs ``python -m pytest -q --continue-on-collection-errors``,
followed by any arguments given after ``--`` (``-- tests/test_oracles.py``
runs one file), from the repository root with ``PYTHONPATH=src:<dir>``,
where ``<dir>`` is a temporary directory of symlinks to the pure-Python
test packages (pytest, hypothesis and what they import) of the
interpreter running this script, so interpreters without pytest can run
the suite too.  Prints the pass, fail and error counts of each version
and exits 1 if any test failed.
"""

from __future__ import annotations

import glob
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# pure-Python packages the suite imports, as named in the running
# interpreter's site-packages
PACKAGES = (
    "pytest", "_pytest", "py.py", "pluggy", "iniconfig", "packaging",
    "pygments", "hypothesis", "_hypothesis_*.py", "attr", "attrs",
    "sortedcontainers",
)
MINOR_RANGE = range(11, 30)


def candidates() -> list[str]:
    found = [shutil.which(f"python3.{minor}") for minor in MINOR_RANGE]
    pyenv = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    found += sorted(glob.glob(os.path.join(pyenv, "versions", "3.*", "bin", "python3")))
    return [path for path in found if path]


def version_of(python: str) -> tuple[int, ...] | None:
    probe = ("import sys; print(sys.implementation.name, "
             "*sys.version_info[:3])")
    try:
        out = subprocess.run([python, "-c", probe], capture_output=True,
                             text=True, timeout=60).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) != 4 or out[0] != "cpython":
        return None
    return tuple(int(part) for part in out[1:])


def link_packages(into: str) -> None:
    site = sysconfig.get_paths()["purelib"]
    for pattern in PACKAGES:
        for path in glob.glob(os.path.join(site, pattern)):
            os.symlink(path, os.path.join(into, os.path.basename(path)))


def counts(summary: str) -> dict[str, int]:
    return {
        word: int(number)
        for number, word in re.findall(r"(\d+) (passed|failed|errors?)", summary)
    }


def main(argv: list[str]) -> int:
    pytest_args: list[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, pytest_args = argv[:cut], argv[cut + 1:]
    versions: dict[tuple[int, ...], str] = {}
    for python in argv or candidates():
        version = version_of(python)
        if version is None:
            if argv:  # a found name may be a shim for a version not installed
                print(f"{python}: not a CPython that runs", file=sys.stderr)
        elif version[:2] >= (3, 11):
            versions.setdefault(version, python)
    if not versions:
        print("no CPython 3.11 or later found", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as packages:
        link_packages(packages)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", packages]),
                   PYTHONDONTWRITEBYTECODE="1")
        for version, python in sorted(versions.items()):
            start = time.monotonic()
            run = subprocess.run(
                [python, "-m", "pytest", "-q", "--continue-on-collection-errors",
                 "-p", "no:cacheprovider", *pytest_args],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            lines = run.stdout.strip().splitlines()
            got = counts(lines[-1] if lines else "")
            bad = got.get("failed", 0) + got.get("error", 0) + got.get("errors", 0)
            failed = failed or bad > 0 or not got
            print(
                f"{'.'.join(map(str, version))}: {got.get('passed', 0)} passed, "
                f"{got.get('failed', 0)} failed, "
                f"{got.get('error', 0) + got.get('errors', 0)} errors "
                f"in {time.monotonic() - start:.0f} s ({python})"
            )
            for line in lines:
                if line.startswith(("FAILED ", "ERROR ")):
                    print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
