"""The fused-error contract of the two pull paths.

Fused chunk kernels evaluate column-at-a-time, so when several rows of a
chunk would raise, a different row's error can win than in a strictly
row-at-a-time evaluation (see :mod:`repro.sqldb.plan.compile`).  The
contract pinned here: on mixed-type data put past the typed storage
layer, each path raises an exception of the reference's type exactly
when a strictly row-at-a-time reference raises, and returns the
reference's rows otherwise.  Zone maps must never skip a would-be error,
so chunks are shrunk to make pruning fire on small tables.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb import Database
from repro.sqldb import columnar as columnar_mod
from repro.sqldb.expressions import RowContext, evaluate
from repro.sqldb.parser import parse
from repro.sqldb.plan import physical as physical_mod
from repro.sqldb.plan.physical import PATHS

COLUMNS = ("id", "v", "w")

QUERIES = (
    ("SELECT id FROM t WHERE v > ?", (0,)),
    ("SELECT id FROM t WHERE v = ?", (2,)),
    ("SELECT id FROM t WHERE v BETWEEN ? AND ?", (-1, 3)),
    ("SELECT id FROM t WHERE v IN (1, 2, NULL)", ()),
    ("SELECT id FROM t WHERE NOT (v < ?)", (1,)),
    ("SELECT id FROM t WHERE w = ? AND v < ?", (1, 2)),
    ("SELECT id FROM t WHERE w > ? OR v > ?", (2, 0)),
    ("SELECT id FROM t WHERE v > w", ()),
    ("SELECT id, v + 1 FROM t WHERE w < ?", (2,)),
    ("SELECT id, v * w FROM t", ()),
)

# INTEGER column values, some of the wrong type.
_MIXED = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from(
    ["a", "b", 1.5, True]))


def _reference(rows, sql, params):
    """Strictly row-at-a-time: each row is filtered and projected before
    the next is looked at.  Returns ``(rows, None)`` or ``(None, exc)``."""
    stmt = parse(sql)
    positions = {}
    for i, col in enumerate(COLUMNS):
        positions[("t", col)] = positions[(None, col)] = i
    ctx = RowContext(positions)
    out = []
    try:
        for values in rows:
            ctx.bind(values)
            if (stmt.where is None
                    or evaluate(stmt.where, ctx, params) is True):
                out.append(tuple(evaluate(item.expr, ctx, params)
                                 for item in stmt.items))
    except Exception as exc:  # noqa: BLE001 - the contract is the type
        return None, exc
    return out, None


def _smuggled_db(values):
    """A table whose INTEGER column ``v`` holds ``values`` verbatim: rows
    are inserted clean, then rewritten in storage behind the type checks
    (bumping the mutation counter so the column snapshot rebuilds)."""
    db = Database(result_cache_size=0)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)")
    for i in range(len(values)):
        db.execute("INSERT INTO t VALUES (?, NULL, ?)", (i, i % 4))
    table = db.tables["t"]
    for row_id, value in zip(list(table.rows), values):
        row = list(table.rows[row_id])
        row[1] = value
        table.rows[row_id] = row
    table._mutation_count += 1
    return db


@settings(max_examples=120, deadline=None)
@given(values=st.lists(_MIXED, min_size=0, max_size=40))
def test_fused_errors_match_row_at_a_time_reference(values):
    old_chunk = columnar_mod.CHUNK_SIZE
    columnar_mod.CHUNK_SIZE = physical_mod.CHUNK_SIZE = 8
    try:
        db = _smuggled_db(values)
        storage_rows = [row for _, row in db.tables["t"].scan()]
        for sql, params in QUERIES:
            expected, expected_exc = _reference(storage_rows, sql, params)
            plan = db.executor.plan_for(parse(sql))
            for path in PATHS:
                try:
                    result = plan.execute(db, params, path=path)
                except Exception as exc:  # noqa: BLE001
                    assert expected_exc is not None, (sql, path, exc)
                    assert type(exc) is type(expected_exc), (sql, path)
                    continue
                assert expected_exc is None, (sql, path, expected_exc)
                assert result.rows == expected, (sql, path)
    finally:
        columnar_mod.CHUNK_SIZE = physical_mod.CHUNK_SIZE = old_chunk


def test_smuggled_type_error_raises_on_both_paths():
    """A deterministic witness: zone maps prove the integer chunks
    irrelevant to ``v > 0``, and the last chunk holds only strings — its
    zone has a range, but comparing it with the integer bound raises, so
    the scan must read the chunk and surface the type error on both
    paths rather than skip it."""
    old_chunk = columnar_mod.CHUNK_SIZE
    columnar_mod.CHUNK_SIZE = physical_mod.CHUNK_SIZE = 8
    try:
        db = _smuggled_db([-1] * 16 + ["x", "y"])
        sql = "SELECT id FROM t WHERE v > ?"
        expected, expected_exc = _reference(
            [row for _, row in db.tables["t"].scan()], sql, (0,))
        assert expected is None
        plan = db.executor.plan_for(parse(sql))
        for path in PATHS:
            try:
                plan.execute(db, (0,), path=path)
            except Exception as exc:  # noqa: BLE001
                assert type(exc) is type(expected_exc)
            else:
                raise AssertionError(f"{path} path swallowed the error")
    finally:
        columnar_mod.CHUNK_SIZE = physical_mod.CHUNK_SIZE = old_chunk
