"""Wall-clock lane: real execution time of the engine against the row pull.

Unlike every other experiment in this package, which measures the
simulated ``rows_touched`` currency, this one measures *actual* Python
wall time.  Every statement's cached plan is executed two ways: down its
own pull path (``engine`` — columnar chunks with zone maps and fused
kernels for scan-rooted plans, compiled rows for index probes and
stop-after-N plans; see :mod:`repro.sqldb.plan.physical`) and forced
down the compiled row-at-a-time pull (``row``), and the per-query
best-of-N times are compared.  Both must return byte-identical rows and
identical ``rows_touched``; the benchmark verifies that on every query
(``match``), so a speedup can never come from computing something
different.  Both are timed at the plan (parse, plan cache and
statement bookkeeping excluded), so the ratio compares pull paths only.

Two lanes:

* **synthetic** — a seeded two-table microbenchmark (scan+filter with a
  chunk-order-correlated range bound, a filtered join, projection
  arithmetic, and a grouped aggregate over the dictionary-encoded label
  column) sized to make per-row dispatch the dominant cost.  This is
  where :data:`SPEEDUP_FLOORS` is gated and where the zone-map
  ``chunks_skipped`` count is recorded.
* **apps** — the itracker/openmrs report pages and the TPC-C range
  reports (``REPORT_QUERIES`` + ``RANGE_REPORT_QUERIES``), i.e. the
  statements the rest of the harness actually runs.  These are small
  per-execution, so each timing sample runs the query ``inner`` times.

``tools/bench_wallclock.py`` wraps this as a CLI and writes
``BENCH_wallclock.json`` at the repo root — the per-PR wall-clock
trajectory; ``benchmarks/test_wallclock.py`` smoke-asserts agreement
and the CI job gates :data:`SPEEDUP_FLOORS`.

The result cache is disabled throughout (``ResultCache(0)``): a cache
hit would time the cache, not the engine.
"""

from time import perf_counter

from repro.apps import itracker, openmrs
from repro.apps.itracker import reports as itracker_reports
from repro.apps.openmrs import reports as openmrs_reports
from repro.apps.tpcc import data as tpcc_data
from repro.apps.tpcc import reports as tpcc_reports
from repro.bench.report import format_table
from repro.sqldb import Database
from repro.sqldb.parser import parse
from repro.sqldb.result_cache import ResultCache

SYNTHETIC_ROWS = 20000
SMOKE_SYNTHETIC_ROWS = 4000

#: Minimum engine/row speedup per synthetic series.  The floors are the
#: batch/row ratios the retired chunked-row engine held over the retired
#: interpreted row engine in the last three-engine BENCH_wallclock.json;
#: the row pull they are now measured against already runs the compiled
#: closures that engine used, so clearing them is a stricter bar.
SPEEDUP_FLOORS = {"scan_filter": 3.385, "group_filter_agg": 2.352}

SYNTHETIC_QUERIES = (
    (
        # The id bound correlates with insertion (and therefore chunk)
        # order, so the chunks path's zone maps prove most chunks
        # irrelevant and skip them — the series that exercises chunk
        # skipping end to end (``chunks_skipped`` is recorded per query).
        "scan_filter",
        "SELECT id, amount FROM events WHERE amount > ? AND id < ?",
        (200, 2048),
    ),
    (
        "join_filter",
        "SELECT e.id, u.name FROM events e "
        "JOIN users u ON e.user_id = u.id WHERE u.segment = ?",
        (3,),
    ),
    (
        "project_arith",
        "SELECT id, amount * ? + kind FROM events WHERE amount >= ?",
        (2, 100),
    ),
    (
        # GROUP BY over the low-cardinality dictionary-encoded label
        # column with a range predicate: the chunks path groups by
        # dictionary codes and runs compiled COUNT/SUM kernels per chunk.
        "group_filter_agg",
        "SELECT label, COUNT(*), SUM(amount) FROM events "
        "WHERE amount > ? GROUP BY label",
        (400,),
    ),
)


def _build_synthetic(n_rows):
    db = Database("wallclock", result_cache_size=0)
    db.execute(
        "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, segment INT)")
    db.execute(
        "CREATE TABLE events (id INT PRIMARY KEY, user_id INT, kind INT, "
        "amount INT, label TEXT)")
    n_users = max(50, n_rows // 40)
    for i in range(n_users):
        db.execute("INSERT INTO users (id, name, segment) VALUES (?, ?, ?)",
                   (i, f"user{i}", i % 7))
    for i in range(n_rows):
        db.execute(
            "INSERT INTO events (id, user_id, kind, amount, label) "
            "VALUES (?, ?, ?, ?, ?)",
            (i, i % n_users, i % 13, (i * 37) % 1000, f"evt{i % 23}"))
    return db


def _build_itracker():
    db, _ = itracker.build_app()
    return db


def _build_openmrs():
    db, _ = openmrs.build_app()
    return db


def _build_tpcc():
    db = Database("tpcc")
    tpcc_data.seed(db)
    return db


APPS = (
    ("itracker", _build_itracker,
     itracker_reports.REPORT_QUERIES + itracker_reports.RANGE_REPORT_QUERIES),
    ("openmrs", _build_openmrs,
     openmrs_reports.REPORT_QUERIES + openmrs_reports.RANGE_REPORT_QUERIES),
    ("tpcc", _build_tpcc, tpcc_reports.RANGE_REPORT_QUERIES),
)


def _best_of(run, inner, best):
    start = perf_counter()
    for _ in range(inner):
        result = run()
    return min(best, (perf_counter() - start) / inner), result


def _time_query(db, sql, params, outer, inner):
    """Time ``sql``'s cached plan on its own path and on the row pull:
    best-of-``outer`` average of ``inner`` executions each, seconds.

    The untimed ``db.execute`` warms the plan cache, so the samples
    measure execution alone — plan build cost is the same for both and
    not what this lane tracks.  The two sides' samples alternate, so a
    stretch of machine noise lands on both rather than on one.
    """
    db.execute(sql, params)
    plan = db.executor.plan_for(parse(sql))
    engine_seconds = row_seconds = float("inf")
    for _ in range(outer):
        engine_seconds, engine = _best_of(
            lambda: plan.execute(db, params), inner, engine_seconds)
        row_seconds, row = _best_of(
            lambda: plan.execute(db, params, path="rows"), inner,
            row_seconds)
    return {
        "path": plan.path,
        "engine_ms": round(engine_seconds * 1000, 4),
        "row_ms": round(row_seconds * 1000, 4),
        "speedup": round(row_seconds / engine_seconds, 3)
        if engine_seconds else None,
        "rows": len(engine.rows),
        "rows_touched": engine.rows_touched,
        "chunks_skipped": engine.chunks_skipped,
        "match": (engine.rows == row.rows
                  and engine.rows_touched == row.rows_touched),
    }


def run(smoke=False):
    """Time every query on the engine and the row pull; returns a
    JSON-able dict."""
    n_rows = SMOKE_SYNTHETIC_ROWS if smoke else SYNTHETIC_ROWS
    outer = 3 if smoke else 5
    inner = 5 if smoke else 20

    db = _build_synthetic(n_rows)
    # One execution per sample: the synthetic table is big enough that a
    # single run is far above timer resolution.
    synthetic = {name: _time_query(db, sql, params, outer, 1)
                 for name, sql, params in SYNTHETIC_QUERIES}

    apps = {}
    for app_name, build, queries in APPS:
        db = build()
        db.result_cache = ResultCache(0)
        per_query = {name: _time_query(db, sql, params, outer, inner)
                     for name, sql, params in queries}
        engine_ms = sum(q["engine_ms"] for q in per_query.values())
        row_ms = sum(q["row_ms"] for q in per_query.values())
        apps[app_name] = {
            "queries": per_query,
            "totals": {
                "engine_ms": round(engine_ms, 4),
                "row_ms": round(row_ms, 4),
                "speedup": round(row_ms / engine_ms, 3)
                if engine_ms else None,
            },
        }

    return {
        "config": {
            "smoke": smoke,
            "synthetic_rows": n_rows,
            "outer_repeats": outer,
            "inner_repeats": inner,
            "speedup_floors": SPEEDUP_FLOORS,
        },
        "synthetic": synthetic,
        "apps": apps,
    }


def check(result):
    """The regression gate: a list of failure messages (empty = pass).

    Fails if any query's engine and row-pull results diverge, if a
    synthetic series in :data:`SPEEDUP_FLOORS` falls below its floor, or
    if zone maps skipped no chunks on the range-bounded scan/filter
    microbench.
    """
    failures = []
    for name, numbers in result["synthetic"].items():
        if not numbers["match"]:
            failures.append(f"synthetic:{name}: engine and row pull diverge")
    for app, per_app in result["apps"].items():
        for name, numbers in per_app["queries"].items():
            if not numbers["match"]:
                failures.append(f"{app}:{name}: engine and row pull diverge")
    for name, floor in SPEEDUP_FLOORS.items():
        speedup = result["synthetic"][name]["speedup"]
        if speedup is None or speedup < floor:
            failures.append(f"{name}: engine/row speedup {speedup} below "
                            f"the {floor} floor")
    if result["synthetic"]["scan_filter"]["chunks_skipped"] <= 0:
        failures.append("scan_filter: zone maps skipped no chunks on the "
                        "range-bounded microbench")
    return failures


def format_result(result):
    rows = []

    def add(label, numbers):
        rows.append((label, numbers.get("path", ""), numbers["row_ms"],
                     numbers["engine_ms"], f"{numbers['speedup']}x",
                     ("ok" if numbers["match"] else "MISMATCH")
                     if "match" in numbers else ""))

    for name, numbers in result["synthetic"].items():
        add(f"synthetic:{name}", numbers)
    for app, per_app in result["apps"].items():
        for query_name, numbers in per_app["queries"].items():
            add(f"{app}:{query_name}", numbers)
        add(f"{app}:TOTAL", per_app["totals"])
    return format_table(
        ("query", "path", "row ms", "engine ms", "engine/row", "results"),
        rows, title="Wall-clock execution time — engine vs. row pull")
