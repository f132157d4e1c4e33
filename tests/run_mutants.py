"""Run the named mutants of `tests/mutants.py` against the tier-1 suite.

    python tests/run_mutants.py              # every mutant
    python tests/run_mutants.py NAME ...     # only these
    python tests/run_mutants.py --fast       # each killed mutant against its named test

For each mutant the repository (without `.git`) is copied to a temporary
directory, the mutant's one edit is applied to the copy, and the tier-1
command runs there with `-x --ignore=tests/test_mutants.py`.  A line per
mutant says "killed" with the first failing test (FILE::(collection) when a
test file cannot be collected), or "survived".  The exit status is 1 when
any result disagrees with the mutant's note: a "killed:" note must name the
test that killed it, and an "equivalent:" mutant must survive.  Not part of
tier-1: one mutant costs up to a full suite run.

`--fast` runs a mutant with a "killed:" note against the test its note
names first, and runs the full suite only when that test passes, that is
when the note is wrong.  It shows that the named test kills the mutant, not
that it is the first to fail in the suite's order; the full run checks that.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import COLLECTION, MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "-x", "--ignore=tests/test_mutants.py"]
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def _first_failure(copy: Path, env: dict[str, str], tests: list[str]) -> str | None:
    """The first test that fails in a tier-1 run on the copy, restricted to
    `tests` when given; None if none does."""
    proc = subprocess.run([sys.executable, *TIER1, *tests], cwd=copy, env=env,
                          capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    found = FIRST_FAILURE.search(proc.stdout)
    if not found:
        return f"(exit {proc.returncode}, no failing test named)"
    killer = found.group(1)
    return killer if "::" in killer else f"{killer}::{COLLECTION}"


def run(mutant: Mutant, fast: bool = False) -> str | None:
    """The first test that fails on the mutated copy, FILE::(collection) when
    the first failure is a file that cannot be collected, or None if none
    does.  With `fast`, the test a "killed:" note names runs alone first."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_traces"))
        target = copy / "src" / "prymlab" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text does not occur exactly once in {mutant.file}")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
        if fast and mutant.note.startswith("killed: "):
            named = mutant.note.removeprefix("killed: ").split()[0]
            killer = _first_failure(copy, env, [named.removesuffix(f"::{COLLECTION}")])
            if killer == named:
                return killer
        return _first_failure(copy, env, [])


def main(args: list[str]) -> int:
    fast = "--fast" in args
    names = [a for a in args if a != "--fast"]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    disagreements = 0
    begin = time.perf_counter()
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        killer = run(mutant, fast)
        result = "survived" if killer is None else f"killed: {killer}"
        if killer is None:
            agrees = mutant.note.startswith("equivalent: ")
        else:
            agrees = mutant.note == f"killed: {killer}" or mutant.note.startswith(f"killed: {killer} ")
        disagreements += not agrees
        flag = "" if agrees else f"  DISAGREES with the note: {mutant.note}"
        print(f"{mutant.name}: {result} ({time.perf_counter() - start:.1f} s){flag}", flush=True)
    print(f"{disagreements} disagreements in {time.perf_counter() - begin:.1f} s", flush=True)
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
