import pytest

from repro.core.thunk import (
    LazyProxy, QueryThunk, Thunk, force, force_deep, is_thunk,
)


def test_thunk_defers_and_memoizes():
    calls = []
    t = Thunk(lambda: calls.append(1) or 42)
    assert not t.is_forced
    assert not calls
    assert t.force() == 42
    assert t.force() == 42
    assert calls == [1]


def test_chained_thunks_collapse():
    inner = Thunk(lambda: 5)
    outer = Thunk(lambda: inner)
    assert outer.force() == 5


def test_long_chain_forces_without_recursion_and_memoizes_every_link():
    # Each link's body returns the previous link (every other one wrapped
    # in a proxy): one force resolves 5,000 links in a loop, not 5,000
    # nested calls, and leaves every link holding the plain value.
    calls = []
    links = [Thunk(lambda: calls.append(0) or "end")]
    for i in range(1, 5000):
        prev = links[-1] if i % 2 else LazyProxy(links[-1])
        links.append(Thunk(lambda prev=prev: calls.append(1) or prev))
    assert force(links[-1]) == "end"
    assert len(calls) == 5000
    assert all(link.is_forced and link.force() == "end" for link in links)
    assert len(calls) == 5000  # memoized: no body runs twice


def test_failed_body_reraises_is_charged_per_attempt_and_retries(
        sim_stack):
    from repro.core.runtime import SlothRuntime

    db, clock, server, driver, batch_driver = sim_stack
    runtime = SlothRuntime(batch_driver, clock, server.cost_model)
    force_ms = server.cost_model.force_ms
    attempts = []

    def body():
        attempts.append(1)
        if len(attempts) == 1:
            raise ValueError("boom")
        return 7

    # The failing link sits inside a chain: the outer thunk's body returns
    # it, so a failure leaves the outer thunk unforced as well.
    inner = runtime.defer(body)
    outer_runs = []
    outer = runtime.defer(lambda: outer_runs.append(1) or inner)
    before = clock.phase_time("app")
    with pytest.raises(ValueError):
        force(outer)
    assert not inner.is_forced and not outer.is_forced
    assert clock.phase_time("app") - before == pytest.approx(2 * force_ms)
    assert runtime.stats.forces == 2
    before = clock.phase_time("app")
    assert force(outer) == 7
    assert attempts == [1, 1] and outer_runs == [1, 1]
    assert clock.phase_time("app") - before == pytest.approx(2 * force_ms)
    assert runtime.stats.forces == 4
    # Forced now: later forces are free.
    before = clock.phase_time("app")
    assert outer.force() == 7 and inner.force() == 7
    assert clock.phase_time("app") == before
    assert runtime.stats.forces == 4


def test_query_thunk_repr_names_its_int_id(sim_stack):
    from repro.core.query_store import QueryStore

    db, clock, server, driver, batch_driver = sim_stack
    db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    thunk = QueryThunk(QueryStore(batch_driver), "SELECT id FROM t")
    assert thunk.query_id == 1
    assert repr(thunk) == "QueryThunk(id=1, pending)"
    force(thunk)
    assert repr(thunk) == "QueryThunk(id=1, forced)"


def test_force_passthrough_for_plain_values():
    assert force(3) == 3
    assert force(None) is None


def test_is_thunk():
    assert is_thunk(Thunk(lambda: 1))
    proxy = LazyProxy(Thunk(lambda: 1))
    assert is_thunk(proxy)
    assert not object.__getattribute__(proxy, "_thunk").is_forced
    assert not is_thunk(42)


def test_force_deep_containers():
    value = [Thunk(lambda: 1), (Thunk(lambda: 2),),
             {"k": Thunk(lambda: 3)}, {4}]
    assert force_deep(value) == [1, (2,), {"k": 3}, {4}]


def test_force_deep_nested_containers():
    value = {
        "list": [Thunk(lambda: [Thunk(lambda: 1)])],
        "tuple": (Thunk(lambda: (Thunk(lambda: 2), 3)),),
        "set": Thunk(lambda: {4, 5}),
    }
    resolved = force_deep(value)
    assert resolved == {"list": [[1]], "tuple": ((2, 3),), "set": {4, 5}}
    # Every container is rebuilt as a plain container of plain values.
    assert type(resolved["tuple"][0]) is tuple


def test_force_deep_forces_dict_keys():
    value = {Thunk(lambda: "k"): Thunk(lambda: "v")}
    assert force_deep(value) == {"k": "v"}


def test_runtime_accounting(sim_stack):
    from repro.core.runtime import SlothRuntime

    db, clock, server, driver, batch_driver = sim_stack
    runtime = SlothRuntime(batch_driver, clock, server.cost_model)
    before = clock.phase_time("app")
    t = runtime.defer(lambda: 1)
    assert clock.phase_time("app") > before
    assert runtime.stats.thunks_allocated == 1
    t.force()
    assert runtime.stats.forces == 1
