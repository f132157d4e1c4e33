"""The mutant list stays applicable to the source it names."""

from pathlib import Path

from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "prymlab"


def test_each_mutant_old_text_occurs_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.old != m.new, m.name
        assert m.note.startswith(("killed: ", "equivalent: ")), m.name
        assert (SRC / m.file).read_text().count(m.old) == 1, m.name
