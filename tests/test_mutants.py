"""The mutant list stays applicable to the source it names."""

from pathlib import Path

from mutants import COLLECTION, MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prymlab"


def test_each_mutant_old_text_occurs_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.old != m.new, m.name
        assert m.note.startswith(("killed: ", "equivalent: ")), m.name
        assert (SRC / m.file).read_text().count(m.old) == 1, m.name


def test_each_killed_note_names_a_test_that_exists():
    # "killed: FILE::TEST[PARAM] ...": the file exists and defines the test;
    # "killed: FILE::(collection) ...": the file exists
    for m in MUTANTS:
        if not m.note.startswith("killed: "):
            continue
        path, _, test = m.note.removeprefix("killed: ").split()[0].partition("::")
        assert (ROOT / path).is_file(), m.name
        if test != COLLECTION:
            assert f"def {test.partition('[')[0]}(" in (ROOT / path).read_text(), m.name
