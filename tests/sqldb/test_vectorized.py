"""Chunk-boundary and path-parity tests for the execution engine.

The engine has two pull paths, picked per plan at build time: index
point probes and ``limit_hint`` plans pull wide rows through
plan-compiled expression closures (``rows``); every other plan exchanges
``ColumnChunk`` column arrays with selection vectors and fused predicates
(``chunks``).  Every check here runs each statement under the default
planner and ``FROM_ORDER_OPTIONS`` and forces each plan down both paths,
requiring identical results.  The tests pin the edges the chunking can
get wrong — empty inputs, result sizes straddling the chunk boundary,
LIMIT cutting mid-chunk, NULL-heavy data through the compiled
three-valued logic — plus the path-selection rule, the EXPLAIN ANALYZE
surface and the zero-copy scan's no-mutation contract.
"""

import pytest

from repro.sqldb import Database
from repro.sqldb.parser import parse
from repro.sqldb.plan import FROM_ORDER_OPTIONS
from repro.sqldb.plan.physical import CHUNK_SIZE, PATHS


def _seed(db, n_rows):
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)")
    for i in range(n_rows):
        # v cycles through NULL every third row; s through a few labels.
        db.execute("INSERT INTO t (id, v, s) VALUES (?, ?, ?)",
                   (i, None if i % 3 == 0 else i % 97, f"s{i % 5}"))
    return db


def _pair(n_rows):
    """The same seeded table (result cache off) planned two ways:
    ``(default options, FROM_ORDER_OPTIONS)``."""
    return (_seed(Database(result_cache_size=0), n_rows),
            _seed(Database(result_cache_size=0,
                           optimizer_options=FROM_ORDER_OPTIONS), n_rows))


def _plan(db, sql):
    return db.executor.plan_for(parse(sql))


def _agree(*args):
    """``_agree(db, db, ..., sql[, params])`` — execute on every given
    database, and force each database's plan down both pull paths: exact
    row and column agreement everywhere, identical ``rows_touched``
    across the paths of one plan, and the first database (default
    planner) never touching more rows than the others.  Hinted plans are
    not forced down the chunks path, which ignores the cutoff."""
    if isinstance(args[-1], tuple):
        *dbs, sql, params = args
    else:
        *dbs, sql = args
        params = ()
    first = None
    for db in dbs:
        result = db.execute(sql, params)
        plan = _plan(db, sql)
        for path in PATHS:
            if path == "chunks" and plan.limit_hint is not None:
                continue
            forced = plan.execute(db, params, path=path)
            assert forced.rows == result.rows, path
            assert forced.columns == result.columns, path
            assert forced.rows_touched == result.rows_touched, path
        if first is None:
            first = result
            continue
        assert result.rows == first.rows
        assert result.columns == first.columns
        assert first.rows_touched <= result.rows_touched
    return first


# ---------------------------------------------------------------------------
# Chunk boundaries
# ---------------------------------------------------------------------------


def test_empty_table():
    dbs = _pair(0)
    assert _agree(*dbs, "SELECT id, v FROM t").rows == []
    assert _agree(*dbs, "SELECT id FROM t WHERE v > ?", (5,)).rows == []
    assert _agree(*dbs, "SELECT COUNT(*) FROM t").rows == [(0,)]
    assert _agree(*dbs, "SELECT s, COUNT(v) FROM t GROUP BY s").rows == []


def test_empty_join_sides():
    dbs = _pair(0)
    for db in dbs:
        db.execute("CREATE TABLE u (id INT PRIMARY KEY, w INT)")
        db.execute("INSERT INTO u (id, w) VALUES (1, 10)")
    result = _agree(*dbs, "SELECT t.id, u.w FROM t JOIN u ON t.v = u.id")
    assert result.rows == []
    result = _agree(*dbs, "SELECT u.id, t.v FROM u LEFT JOIN t ON t.v = u.id")
    assert result.rows == [(1, None)]


@pytest.mark.parametrize("size", [1, CHUNK_SIZE - 1, CHUNK_SIZE,
                                  CHUNK_SIZE + 1])
def test_result_sizes_straddling_chunk_boundary(size):
    dbs = _pair(CHUNK_SIZE + 1)
    sql = "SELECT id, v FROM t WHERE id < ?"
    result = _agree(*dbs, sql, (size,))
    assert len(result.rows) == size
    assert result.rows_touched == CHUNK_SIZE + 1
    # A multi-chunk scan: both planners run it down the chunks path.
    assert all(_plan(db, sql).path == "chunks" for db in dbs)


def test_limit_cuts_mid_chunk():
    n = CHUNK_SIZE + 400
    dbs = _pair(n)
    for limit in (1, 700, CHUNK_SIZE, CHUNK_SIZE + 100):
        result = _agree(*dbs, f"SELECT id FROM t LIMIT {limit}")
        assert len(result.rows) == limit
    # LIMIT above a sort still returns exact-order-identical prefixes.
    result = _agree(*dbs, "SELECT id, v FROM t ORDER BY v DESC, id LIMIT 10")
    assert len(result.rows) == 10


def test_limit_hint_stops_early_on_rows_path():
    """With an ordered index the sort is elided and the limit hint stops
    the scan after limit+offset rows — the one early exit in the engine.
    Hinted plans run the rows path; the FROM-order plan (no sort
    elision) sorts a full chunked scan and must return the same rows.
    Forced down the chunks path, a hinted plan still returns the same
    rows but reads everything."""
    n = CHUNK_SIZE + 400
    dbs = _pair(n)
    for db in dbs:
        db.execute("CREATE INDEX idx_t_v ON t (v) USING ORDERED")
    for limit in (1, 700, CHUNK_SIZE + 100):
        sql = f"SELECT id, v FROM t ORDER BY v LIMIT {limit}"
        result = _agree(*dbs, sql)
        assert len(result.rows) == limit
        # Early exit: far fewer rows touched than the full table.
        assert result.rows_touched <= limit + 1
        hinted = _plan(dbs[0], sql)
        assert hinted.path == "rows"
        assert _plan(dbs[1], sql).path == "chunks"
        full = hinted.execute(dbs[0], path="chunks")
        assert full.rows == result.rows and full.rows_touched == n
    result = _agree(*dbs, "SELECT id, v FROM t ORDER BY v LIMIT 50 OFFSET 25")
    assert len(result.rows) == 50
    assert result.rows_touched <= 76


def test_null_heavy_columns():
    dbs = _pair(600)
    for sql, params in (
            ("SELECT id FROM t WHERE v > ?", (40,)),
            ("SELECT id FROM t WHERE v IS NULL", ()),
            ("SELECT id FROM t WHERE v IS NOT NULL AND v < ?", (30,)),
            ("SELECT id FROM t WHERE v BETWEEN ? AND ?", (10, 20)),
            ("SELECT id FROM t WHERE v IN (1, 2, NULL, 3)", ()),
            ("SELECT id FROM t WHERE NOT (v > ?)", (50,)),
            ("SELECT id, v FROM t ORDER BY v, id", ()),
            ("SELECT s, COUNT(v), SUM(v), MIN(v), MAX(v) FROM t "
             "GROUP BY s ORDER BY s", ()),
            ("SELECT DISTINCT v FROM t ORDER BY v", ()),
            ("SELECT id FROM t WHERE v = ? OR v IS NULL", (7,)),
    ):
        _agree(*dbs, sql, params)


def test_all_null_column():
    dbs = (Database(result_cache_size=0),
           Database(result_cache_size=0,
                    optimizer_options=FROM_ORDER_OPTIONS))
    for db in dbs:
        db.execute("CREATE TABLE n (id INT PRIMARY KEY, v INT)")
        for i in range(50):
            db.execute("INSERT INTO n (id, v) VALUES (?, NULL)", (i,))
    assert _agree(*dbs, "SELECT COUNT(v), SUM(v), AVG(v) FROM n").rows == \
        [(0, None, None)]
    assert _agree(*dbs, "SELECT id FROM n WHERE v = v").rows == []


# ---------------------------------------------------------------------------
# Zero-copy scan safety
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", PATHS)
def test_zero_copy_scan_does_not_leak_mutable_storage_rows(path):
    """Single-table full-width scans hand storage data straight to the
    operators (no ``_pad`` copy); results must still be immutable
    snapshots — a later UPDATE may not rewrite previously returned rows."""
    db = _seed(Database(result_cache_size=0), 100)
    sql = "SELECT id, v, s FROM t WHERE id < 10"
    before = _plan(db, sql).execute(db, path=path)
    snapshot = [tuple(r) for r in before.rows]
    db.execute("UPDATE t SET v = 999, s = 'mut' WHERE id < 10")
    assert [tuple(r) for r in before.rows] == snapshot
    after = _plan(db, sql).execute(db, path=path)
    assert all(r[1] == 999 and r[2] == "mut" for r in after.rows)


def test_engines_agree_after_interleaved_writes():
    dbs = _pair(300)
    for db in dbs:
        db.execute("UPDATE t SET v = v + 1 WHERE v > 50")
        db.execute("DELETE FROM t WHERE id % 7 = 0")
    _agree(*dbs, "SELECT id, v, s FROM t WHERE v >= ?", (40,))
    _agree(*dbs, "SELECT COUNT(*) FROM t")


# ---------------------------------------------------------------------------
# Path selection and the EXPLAIN ANALYZE surface
# ---------------------------------------------------------------------------


def test_plan_shape_picks_path():
    """The selection rule: plans whose base access is an index point
    lookup run the rows path, as do ``limit_hint`` plans; everything else
    runs the chunks path.  The FROM-order planner keeps scans sequential
    under joins, so the same statement can take the other path there."""
    db, from_order = _pair(50)
    for d in (db, from_order):
        d.execute("CREATE TABLE u (id INT PRIMARY KEY, w INT)")
        d.execute("INSERT INTO u (id, w) VALUES (1, 10)")
    assert _plan(db, "SELECT v FROM t WHERE id = ?").path == "rows"
    assert _plan(db, "SELECT v FROM t WHERE id IN (1, 2)").path == "rows"
    assert _plan(db, "SELECT v FROM t WHERE v = ?").path == "chunks"
    assert _plan(db, "SELECT COUNT(*) FROM t").path == "chunks"
    join = "SELECT t.id, u.w FROM u JOIN t ON t.v = u.id WHERE u.id = ?"
    assert _plan(db, join).path == "rows"  # the join hangs off a pk probe
    assert _plan(from_order, join).path == "chunks"
    _agree(db, from_order, join, (1,))


def test_engine_validation():
    """The pull path is the only execution selector: an unknown path is
    rejected naming both, and ``Database`` takes no engine option."""
    db = _seed(Database(result_cache_size=0), 10)
    plan = _plan(db, "SELECT id FROM t")
    with pytest.raises(ValueError) as err:
        plan.execute(db, path="vectorised")
    for name in PATHS:
        assert f"'{name}'" in str(err.value)
    with pytest.raises(TypeError):
        Database(engine="batch")


def test_engine_flip_rebinds_chunk_layout():
    """Flipping one *cached* plan between paths re-routes its compiled
    closures to the other layout: a write made while the rows path runs
    must be visible when the chunks path resumes (the column snapshot the
    first chunked execution built is stale by then)."""
    db = _seed(Database(result_cache_size=0), 300)
    sql = "SELECT id, v, s FROM t WHERE v > ? ORDER BY id"
    plan = _plan(db, sql)
    assert plan.path == "chunks"
    first = plan.execute(db, (40,)).rows
    assert plan.execute(db, (40,), path="rows").rows == first
    db.execute("UPDATE t SET v = 1 WHERE id % 2 = 0")
    after_write = plan.execute(db, (40,), path="rows").rows
    assert after_write != first
    assert _plan(db, sql) is plan
    assert plan.execute(db, (40,), path="chunks").rows == after_write
    assert db.execute(sql, (40,)).rows == after_write


def test_engine_flippable_between_statements():
    """One cached plan serves both paths between statements, with no
    re-plan and identical accounting."""
    db = _seed(Database(result_cache_size=0), 200)
    sql = "SELECT id, v FROM t WHERE v > 5"
    chunk_result = db.execute(sql)
    built = db.executor.plans_built
    row_result = _plan(db, sql).execute(db, path="rows")
    assert row_result.rows == chunk_result.rows
    assert row_result.rows_touched == chunk_result.rows_touched
    assert db.executor.plans_built == built


def test_explain_analyze_shape():
    db = _seed(Database(result_cache_size=0), 500)
    out = db.explain(
        "SELECT s, COUNT(*) FROM t WHERE v > ? GROUP BY s ORDER BY s",
        params=(10,), analyze=True)
    lines = out.splitlines()
    assert lines[0].startswith("EXPLAIN ANALYZE [path=chunks, rows=")
    assert "rows_touched=500" in lines[0]
    assert "total_ms=" in lines[0]
    body = "\n".join(lines[1:])
    assert "SeqScan(t) [rows=500, chunks=1, sel=100.0%, time=" in body
    assert "Filter [rows=" in body
    assert "Aggregate [rows=" in body
    # Deeper operators are indented further than their consumers.
    scan_line = next(l for l in lines if "SeqScan(t)" in l)
    filter_line = next(l for l in lines if "Filter [" in l)
    assert (len(scan_line) - len(scan_line.lstrip())
            > len(filter_line) - len(filter_line.lstrip()))


def test_explain_analyze_columnar_chunks_and_density():
    """Pins the chunks-path EXPLAIN ANALYZE annotation format: every
    source operator reports ``chunks=``; operators that narrow selection
    vectors report ``sel=`` as live rows over chunk capacity.  A
    rows-path plan (a primary-key probe) names its path and carries no
    chunk annotations at all."""
    db = _seed(Database(result_cache_size=0), 2 * CHUNK_SIZE)
    out = db.explain("SELECT id FROM t WHERE s = 's1'",
                     params=(), analyze=True)
    lines = out.splitlines()
    assert lines[0].startswith("EXPLAIN ANALYZE [path=chunks, rows=")
    scan_line = next(l for l in lines if "SeqScan(t)" in l)
    filter_line = next(l for l in lines if "Filter [" in l)
    assert f"SeqScan(t) [rows={2 * CHUNK_SIZE}, chunks=2, sel=100.0%, " \
        f"time=" in scan_line
    # s cycles through 5 labels: the filter keeps exactly 1/5 of rows.
    assert "chunks=2" in filter_line
    assert "sel=20.0%" in filter_line
    row_out = db.explain("SELECT id FROM t WHERE id = ?",
                         params=(7,), analyze=True)
    assert row_out.splitlines()[0].startswith(
        "EXPLAIN ANALYZE [path=rows, rows=1, rows_touched=1, ")
    assert "IndexLookup(t) [rows=1, time=" in row_out
    assert "chunks=" not in row_out
    assert "sel=" not in row_out


def test_explain_analyze_columnar_reports_chunks_skipped():
    """Pins the ``chunks_skipped=`` annotation: a chunk-order-correlated
    range bound lets zone maps prove two of three chunks irrelevant, the
    base scan reports them, and header ``rows_touched`` still charges
    every storage row (the cost currency is path-invariant): the same
    plan forced down the rows path charges the same rows."""
    db = _seed(Database(result_cache_size=0), 3 * CHUNK_SIZE)
    sql = "SELECT id FROM t WHERE id < ? AND v > ?"
    out = db.explain(sql, params=(CHUNK_SIZE, 0), analyze=True)
    assert f"rows_touched={3 * CHUNK_SIZE}" in out.splitlines()[0]
    scan_line = next(l for l in out.splitlines() if "SeqScan(t)" in l)
    assert (f"SeqScan(t) [rows={CHUNK_SIZE}, chunks=1, chunks_skipped=2, "
            f"sel=100.0%, time=") in scan_line
    forced = _plan(db, sql).execute(db, (CHUNK_SIZE, 0), path="rows")
    assert forced.rows_touched == 3 * CHUNK_SIZE
    assert forced.chunks_skipped == 0


def test_explain_analyze_is_side_effect_light():
    db = _seed(Database(), 50)
    statements = db.statements_executed
    db.explain("SELECT id FROM t WHERE v > ?", params=(3,), analyze=True)
    assert db.statements_executed == statements
    # The analyze run did not populate the result cache.
    assert "status='miss'" in db.explain(
        "SELECT id FROM t WHERE v > ?", params=(3,))


def test_explain_analyze_rows_match_execution():
    dbs = _pair(800)
    sql = "SELECT id, v FROM t WHERE v > ? ORDER BY v LIMIT 20"
    executed = _agree(*dbs, sql, (30,))
    out = dbs[0].explain(sql, params=(30,), analyze=True)
    assert f"rows={len(executed.rows)}" in out.splitlines()[0]
    assert f"rows_touched={executed.rows_touched}" in out.splitlines()[0]
