"""Run every tier-1 test in its own pytest process, one at a time, and print the
ids of those that fail.

A test can pass in the full suite and fail alone, when it leans on state that
an earlier test left behind, such as a module another test imported.  This
finds such tests.  It takes about 20 minutes for the whole suite, so it is not
part of the suite itself.  Run it from anywhere:

    python tools/each_test_alone.py                          # every tier-1 test
    python tools/each_test_alone.py tests/test_cache.py      # pytest's selection syntax

It prints each failing id as its run ends, then a count, and exits 1 when a
test failed alone (a run that times out counts as failed).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # one test's process; no test of the suite comes near it


def _pytest(args: list[str], timeout: float | None = None) -> subprocess.CompletedProcess:
    """``python -m pytest`` in the repository root with ``src`` on the path, and
    no cache directory written."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args]
    return subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )


def collect(selection: list[str]) -> list[str]:
    """The ids of the tests that ``selection`` names, as tier-1 collects them."""
    result = _pytest(["--collect-only", "-q", "--continue-on-collection-errors", *selection])
    for line in result.stdout.splitlines():
        if line.startswith("ERROR"):  # a module that does not import has no ids to run
            print(f"collection: {line}", file=sys.stderr)
    return [line for line in result.stdout.splitlines() if "::" in line]


def passes_alone(test_id: str) -> bool:
    try:
        return _pytest(["-q", test_id], timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv: list[str] | None = None) -> int:
    ids = collect(sys.argv[1:] if argv is None else argv)
    failed = []
    for test_id in ids:
        if not passes_alone(test_id):
            failed.append(test_id)
            print(test_id, flush=True)
    print(f"{len(failed)} of {len(ids)} tests fail when run alone")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
