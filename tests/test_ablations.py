"""The ablation table, tests/data/ablations.txt, kept in step with the source.

Each line names a bit-preserving mechanism and the hunk that removes it:
the exact old text in src/tornheim/<file> and the text that replaces it.
A hunk whose old text no longer occurs exactly once would remove nothing,
or the wrong thing, so a change that moves an anchor updates the line.
"""
import json
from pathlib import Path

import pytest

TABLE = Path(__file__).with_name("data") / "ablations.txt"
SOURCE = Path(__file__).resolve().parents[1] / "src" / "tornheim"


def _rows():
    lines = TABLE.read_text().splitlines()
    return [json.loads(line) for line in lines if line and not line.startswith("#")]


ROWS = _rows()


def test_every_row_has_the_four_fields_and_an_effect():
    assert ROWS
    for row in ROWS:
        assert set(row) == {"name", "file", "old", "new", "effect"}, row
        assert row["old"] and row["old"] != row["new"] and row["effect"], row


@pytest.mark.parametrize("row", ROWS, ids=[f"{r['name']}-{r['file']}-{i}" for i, r in enumerate(ROWS)])
def test_each_old_text_occurs_exactly_once(row):
    assert (SOURCE / row["file"]).read_text().count(row["old"]) == 1


def test_each_mechanism_cites_its_row():
    # A citation may wrap across docstring lines.
    text = " ".join(" ".join(path.read_text().split()) for path in sorted(SOURCE.glob("*.py")))
    for name in {row["name"] for row in ROWS}:
        assert f"ablations.txt, row {name}" in text, name
