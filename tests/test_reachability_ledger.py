"""The reachability ledger names only functions that exist.

``benchmarks/reachability_ledger.txt`` justifies every ``src/`` function
no entry point runs.  ``python benchmarks/reachability.py --check`` (the
benchmark CI job, minutes) holds it to a fresh census; this test is the
fast half: it parses the source alone — no entry point runs — so a
rename or deletion that strands a ledger line fails in tier-1.
"""

from __future__ import annotations

from benchmarks.reachability import CATEGORIES, LEDGER, function_table, read_ledger


def test_every_entry_names_a_function_in_src():
    functions = set(function_table())
    missing = sorted(name for name in read_ledger() if name not in functions)
    assert not missing, f"{LEDGER.name} names functions src/ does not define: {missing}"


def test_every_entry_has_a_known_category_and_a_reason():
    for name, (category, reason) in read_ledger().items():
        assert category in CATEGORIES, f"{name}: {category!r} is not one of {sorted(CATEGORIES)}"
        assert reason.strip(), f"{name}: no reason"


def test_the_function_table_reads_nested_and_method_names():
    functions = function_table()
    assert "repro.obs.metrics:scheduler_source.sample" in functions
    assert "repro.efit.eqdsk:_Scanner.take" in functions
    assert all(lines > 0 for _, _, lines in functions.values())
