"""Run the named mutants of `tests/mutants.py` against the tier-1 suite.

    python tests/run_mutants.py              # every mutant
    python tests/run_mutants.py NAME ...     # only these

For each mutant the repository (without `.git`) is copied to a temporary
directory, the mutant's one edit is applied to the copy, and the tier-1
command runs there with `-x --ignore=tests/test_mutants.py`.  A line per
mutant says "killed" with the first failing test, or "survived".  The exit
status is 1 when any result disagrees with the mutant's note: a "killed:"
note must name the test that killed it, and an "equivalent:" mutant must
survive.  Not part of tier-1: one mutant costs up to a full suite run.
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

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "-x", "--ignore=tests/test_mutants.py"]
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run(mutant: Mutant) -> str | None:
    """The first test that fails on the mutated copy, or None if none does."""
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
        proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                              capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    found = FIRST_FAILURE.search(proc.stdout)
    return found.group(1) if found else f"(exit {proc.returncode}, no failing test named)"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    disagreements = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        killer = run(mutant)
        result = "survived" if killer is None else f"killed: {killer}"
        if killer is None:
            agrees = mutant.note.startswith("equivalent: ")
        else:
            agrees = mutant.note == f"killed: {killer}" or mutant.note.startswith(f"killed: {killer} ")
        disagreements += not agrees
        flag = "" if agrees else f"  DISAGREES with the note: {mutant.note}"
        print(f"{mutant.name}: {result} ({time.perf_counter() - start:.1f} s){flag}", flush=True)
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
