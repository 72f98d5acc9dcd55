"""Wall-clock lane smoke: the engine agrees with the row pull and is not
slower where it matters.

Runs the :mod:`repro.bench.experiments.wallclock` experiment in smoke
mode (small synthetic table, few repeats) and asserts

- every synthetic and app query returns byte-identical rows and
  identical ``rows_touched`` on the engine (each plan's own pull path)
  and on the compiled row pull over the same plan (the experiment
  records the comparison),
- the engine is no slower than the row pull on the scan/filter and
  grouped-aggregate microbenches: the loosest forms of the
  ``SPEEDUP_FLOORS`` gate, so the assertions stay robust on noisy CI
  runners; ``tools/bench_wallclock.py --check`` (and the committed
  ``BENCH_wallclock.json``) carries the real floors, and
- zone maps actually skip chunks on the range-bounded scan/filter
  microbench (its id bound correlates with chunk order).
"""

import pytest

from repro.bench.experiments import wallclock


@pytest.fixture(scope="module")
def result():
    return wallclock.run(smoke=True)


def test_engines_agree_everywhere(result):
    for name, numbers in result["synthetic"].items():
        assert numbers["match"], f"synthetic:{name} results diverge"
    for app, per_app in result["apps"].items():
        for name, numbers in per_app["queries"].items():
            assert numbers["match"], f"{app}:{name} results diverge"


def test_engine_not_slower_than_row_on_scan_filter(result):
    print()
    print(wallclock.format_result(result))
    scan = result["synthetic"]["scan_filter"]
    assert scan["path"] == "chunks"
    assert scan["engine_ms"] <= scan["row_ms"], (
        f"engine {scan['engine_ms']}ms vs row {scan['row_ms']}ms")


def test_zone_maps_skip_chunks_on_scan_filter(result):
    scan = result["synthetic"]["scan_filter"]
    assert scan["chunks_skipped"] > 0, (
        "range-bounded scan_filter skipped no chunks")


def test_engine_not_slower_than_row_on_group_filter_agg(result):
    agg = result["synthetic"]["group_filter_agg"]
    assert agg["path"] == "chunks"
    assert agg["engine_ms"] <= agg["row_ms"], (
        f"engine {agg['engine_ms']}ms vs row {agg['row_ms']}ms")
