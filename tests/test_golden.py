"""Byte identity against the committed corpus tests/golden.json.

tools/golden.py wrote the corpus: the sha256 of every exact output on a
fixed set of CLI runs and moments.  This recomputes its quick cases in
process; `python3 tools/golden.py --check` recomputes them all.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import golden  # noqa: E402


def test_corpus_lists_the_tool_cases():
    assert [(e["argv"], e["quick"]) for e in golden.load()] == golden.cases()


def test_quick_cases_are_byte_identical():
    entries = [e for e in golden.load() if e["quick"]]
    assert len(entries) > 500
    bad = [" ".join(e["argv"]) for e in entries if golden.digest(e["argv"]) != e["sha256"]]
    assert bad == []


def test_check_suite_is_byte_identical_at_two_threads():
    (entry,) = [e for e in golden.load() if e["argv"] == ["check-suite", "--seed", "0"]]
    assert golden.digest(entry["argv"], threads=2) == entry["sha256"]
