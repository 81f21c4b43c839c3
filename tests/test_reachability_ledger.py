"""The reachability ledger names only functions and options that exist.

``benchmarks/reachability_ledger.txt`` justifies every ``src/`` function
no entry point runs and every option the entry points leave at one value.
``python benchmarks/reachability.py --check`` (the benchmark CI job,
minutes) holds it to a fresh census; this test is the fast half: it parses
the source alone — no entry point runs — so a rename or deletion that
strands a ledger line fails in tier-1.
"""

from __future__ import annotations

from benchmarks.reachability import (
    CATEGORIES,
    LEDGER,
    OPTION_CATEGORIES,
    function_table,
    is_option,
    ledger_problems,
    option_table,
    read_ledger,
    settable_counts,
)


def test_every_entry_names_a_function_in_src():
    functions = set(function_table())
    missing = sorted(n for n in read_ledger() if not is_option(n) and n not in functions)
    assert not missing, f"{LEDGER.name} names functions src/ does not define: {missing}"


def test_every_option_entry_names_an_option_in_src():
    """A line naming an argument or field that lost its default, or whose
    def or class is gone, is stale."""
    options = set(option_table())
    missing = sorted(n for n in read_ledger() if is_option(n) and n not in options)
    assert not missing, f"{LEDGER.name} names options src/ does not define: {missing}"


def test_every_entry_has_a_known_category_and_a_reason():
    for name, (category, reason) in read_ledger().items():
        known = OPTION_CATEGORIES if is_option(name) else CATEGORIES
        assert category in known, f"{name}: {category!r} is not one of {sorted(known)}"
        assert reason.strip(), f"{name}: no reason"


def test_the_function_table_reads_nested_and_method_names():
    functions = function_table()
    assert "repro.obs.metrics:scheduler_source.sample" in functions
    assert "repro.efit.eqdsk:_Scanner.take" in functions
    assert all(lines > 0 for _, _, lines in functions.values())


def test_the_option_table_reads_arguments_and_dataclass_fields():
    """Keyword-only and positional defaults, dataclass fields (but not
    ``init=False`` state or class constants), no ``self``."""
    options = option_table()
    assert "repro.efit.fitting:EfitSolver.__init__(max_iters)" in options
    assert "repro.batch.slices:synthetic_slice_sequence(seed)" in options
    assert "repro.parallel.scheduler:SchedulerConfig(timeout_seconds)" in options
    assert "repro.efit.fitting:FitState(iteration)" not in options
    assert "repro.efit.fitting:FitState(measurements)" not in options
    assert not any(name.endswith("(self)") for name in options)
    arguments, fields, n_options = settable_counts()
    assert n_options == len(options) and arguments > fields > 0


def test_the_check_refuses_a_stray_or_missing_option_line():
    """What ``--check`` refuses, on a made-up census: a one-value option
    without a line, and lines naming an option that is gone or took two
    values."""
    options = {"m:f(a)", "m:f(b)", "m:f(c)"}
    values = {"m:f(a)": {"1"}, "m:f(b)": {"1", "2"}, "m:f(c)": {"1"}}
    ledger = {"m:f(b)": ("user", "r"), "m:f(c)": ("user", "r"), "m:g(x)": ("user", "r")}
    problems = ledger_problems(set(), values, ledger, set(), options)
    assert problems == [
        "one value, no ledger entry: m:f(a) = 1",
        "ledger names an option that received 2 values: m:f(b)",
        "ledger names a missing option: m:g(x)",
    ]
