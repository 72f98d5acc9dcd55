"""Outside-in tracing for the benchmark's per-layer run.

The program is not changed: :class:`Tracer` wraps public entry points of
each layer (web, apps, orm, core, net, sqldb) from here, records a span
around each call and counts work at the same boundaries.  A layer's *self
time* is its spans' time minus the time of the spans nested in them.

Hooks name their targets as ``"module:Qualified.name"`` strings.  A target
that no longer exists is reported on stderr and the metrics it feeds are
left out of the result; nothing else breaks.

Spans are timed with ``time.perf_counter_ns`` (a cheap call) in the one
benchmark thread; the end-to-end figures use thread CPU time instead.
"""

import functools
import importlib
import sys
import time

_now = time.perf_counter_ns


class Hook:
    """One wrapped target: ``layer`` names its span, ``feeds`` the metrics
    that are missing when the target is.  ``kind`` selects the extra
    bookkeeping the wrapper does (see :meth:`Tracer._wrap`)."""

    def __init__(self, layer, target, feeds=(), kind=None):
        self.layer = layer
        self.target = target
        self.feeds = (f"{layer}.ms",) + tuple(feeds) if layer else tuple(
            feeds)
        self.kind = kind


_SQLDB_COUNTS = ("sqldb.rows_touched", "sqldb.rows_touched_per_row",
                 "sqldb.result_cache.hit_rate", "sqldb.errors",
                 "sqldb.plans_built_per_1k", "calib.statement_ms")
_CORE_COUNTS = ("core.queries_registered", "core.issued_per_registered",
                "core.batch_size.mean")

HOOKS = (
    Hook("web.load_page", "repro.web.appserver:AppServer.load_page"),
    Hook("web.render", "repro.web.templates:Template.render"),
    Hook("apps.controller", "repro.web.framework:Dispatcher.route",
         kind="route"),
    Hook("apps.transaction", "repro.apps.tpcc.transactions:TpccRunner.run"),
    Hook("orm.session", "repro.orm.session:Session.find", ("orm.calls",)),
    Hook("orm.session", "repro.orm.session:Session.get", ("orm.calls",)),
    Hook("orm.session", "repro.orm.session:Session.load_relation",
         ("orm.calls",)),
    Hook("orm.session", "repro.orm.session:Query.all", ("orm.calls",)),
    Hook("orm.session", "repro.orm.session:Query.first", ("orm.calls",)),
    Hook("orm.session", "repro.orm.session:Query.count", ("orm.calls",)),
    # Deserialization runs when a result is forced, often inside template
    # rendering: the backends' callbacks are wrapped so it counts as orm.
    Hook(None, "repro.orm.session:OriginalBackend.read_eager",
         ("orm.session.ms",), kind="deserialize"),
    Hook(None, "repro.orm.session:OriginalBackend.read_lazy",
         ("orm.session.ms",), kind="deserialize"),
    Hook(None, "repro.orm.session:SlothBackend.read_eager",
         ("orm.session.ms",), kind="deserialize"),
    Hook(None, "repro.orm.session:SlothBackend.read_lazy",
         ("orm.session.ms",), kind="deserialize"),
    Hook("core.query_store",
         "repro.core.query_store:QueryStore.register_query", _CORE_COUNTS,
         kind="register"),
    Hook("core.query_store",
         "repro.core.query_store:QueryStore.get_result_set", _CORE_COUNTS),
    Hook("core.query_store", "repro.core.query_store:QueryStore.flush",
         _CORE_COUNTS),
    Hook("core.query_store", "repro.core.query_store:QueryStore.drain",
         _CORE_COUNTS),
    Hook("net.driver", "repro.net.driver:Driver.execute",
         ("net.round_trips", "net.statements"), kind="trip"),
    Hook("net.driver", "repro.net.driver:BatchDriver.execute_batch",
         ("net.round_trips", "net.statements") + _CORE_COUNTS,
         kind="batch"),
    Hook("net.driver", "repro.net.driver:BatchDriver.execute_batch_async",
         ("net.round_trips", "net.statements") + _CORE_COUNTS,
         kind="batch"),
    Hook("net.driver", "repro.net.driver:BatchDriver.wait"),
    Hook("sqldb.server", "repro.net.server:DatabaseServer.execute_one",
         _SQLDB_COUNTS, kind="server_one"),
    Hook("sqldb.server", "repro.net.server:DatabaseServer.execute_batch",
         _SQLDB_COUNTS, kind="server_batch"),
    # ``parse`` is imported by name into several modules; each binding is
    # wrapped.  A parse that tokenizes missed the parse cache.
    Hook("sqldb.parse", "repro.sqldb.parser:parse",
         ("sqldb.parse_cache.hit_rate",), kind="parse"),
    Hook("sqldb.parse", "repro.sqldb.database:parse",
         ("sqldb.parse_cache.hit_rate",), kind="parse"),
    Hook("sqldb.parse", "repro.sqldb.plan.batch:parse",
         ("sqldb.parse_cache.hit_rate",), kind="parse"),
    Hook("sqldb.parse", "repro.sqldb.parser:tokenize",
         ("sqldb.parse_cache.hit_rate",), kind="tokenize"),
    Hook("sqldb.plan", "repro.sqldb.executor:plan_select",
         ("sqldb.plans_built_per_1k",), kind="plan"),
    Hook(None, "repro.sqldb.executor:Executor.execute",
         ("sqldb.exec.read.ms", "sqldb.exec.write.ms", "calib.statement_ms"),
         kind="exec"),
    Hook("sqldb.exec.read", "repro.sqldb.executor:Executor.execute_select"),
    Hook(None, "repro.sqldb.database:Database.record_statement",
         ("sqldb.rows_touched", "sqldb.rows_touched_per_row",
          "sqldb.plans_built_per_1k", "calib.statement_ms"),
         kind="record"),
)

#: Layers whose self time the per-layer report lists (``<layer>.ms``).
LAYERS = ("web.load_page", "web.render", "apps.controller",
          "apps.transaction", "orm.session", "core.query_store",
          "net.driver", "sqldb.server", "sqldb.parse", "sqldb.plan",
          "sqldb.exec.read", "sqldb.exec.write")
SQLDB_LAYERS = ("sqldb.server", "sqldb.parse", "sqldb.plan",
                "sqldb.exec.read", "sqldb.exec.write")


def _resolve(target):
    """``(owner, name)`` for a ``"module:Qualified.name"`` target, or None
    when the module or any attribute on the path is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Installs the hooks, accumulates self time and counts, and keeps the
    full span list of the first ``keep_requests`` traced requests.

    Hooks record only while ``active`` is set, i.e. inside the requests
    the harness times; set-up and checks run through them untraced.
    """

    def __init__(self, keep_requests=20):
        self.active = False
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counts = {}
        self.stack = []  # frames: [layer, child_ns, kept span index]
        self.missing = set()
        self._installed = []
        self.request_id = 0
        self._request_start = None
        self.keep_requests = keep_requests
        self.spans = []  # [request, layer, start_ns, end_ns, parent index]
        self.keys = None  # set to a dict to count (sql, params) executions

    # -- installation ---------------------------------------------------------

    def install(self):
        for hook in HOOKS:
            resolved = _resolve(hook.target)
            if resolved is None:
                print(f"perfbench: trace hook target {hook.target} is "
                      f"missing; not reporting {', '.join(hook.feeds)}",
                      file=sys.stderr)
                self.missing.update(hook.feeds)
                continue
            owner, name = resolved
            original = getattr(owner, name)
            owned = name in vars(owner)
            setattr(owner, name, self._wrap(hook, original))
            self._installed.append((owner, name, original, owned))

    def uninstall(self):
        for owner, name, original, owned in reversed(self._installed):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._installed = []

    # -- recording --------------------------------------------------------------

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, layer):
        return any(frame[0] == layer for frame in self.stack)

    def begin_request(self):
        """Start the next request (closing the accounting of the last)."""
        self.end_request()
        self.request_id += 1
        self._request_start = (self.counts.get("sqldb.selects", 0),
                               self.counts.get("sqldb.result_cache_hits", 0))

    def end_request(self):
        """Count the last request as served by the result cache when every
        SELECT it ran was a hit."""
        if self.request_id == 0 or self._request_start is None:
            return
        selects = self.counts.get("sqldb.selects", 0) - self._request_start[0]
        hits = (self.counts.get("sqldb.result_cache_hits", 0)
                - self._request_start[1])
        if selects and hits == selects:
            self.count("requests_fully_cached")
        self._request_start = None

    def _span(self, layer, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [layer, 0, None]
        if self.request_id <= self.keep_requests:
            frame[2] = len(self.spans)
            self.spans.append([self.request_id, layer, 0, 0,
                               parent[2] if parent else None])
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        except Exception:
            if layer == "sqldb.server":
                self.count("sqldb.errors")
            raise
        finally:
            elapsed = _now() - start
            stack.pop()
            self.self_ns[layer] = self.self_ns.get(layer, 0) + (
                elapsed - frame[1])
            if parent:
                parent[1] += elapsed
            if frame[2] is not None:
                self.spans[frame[2]][2:4] = start, start + elapsed
            if layer == "orm.session" and (
                    parent is None or parent[0] != "orm.session"):
                self.count("orm.calls")

    def _wrap(self, hook, fn):
        tracer = self
        layer, kind = hook.layer, hook.kind

        if kind == "route":
            def traced(*args, **kwargs):
                controller, template = fn(*args, **kwargs)

                def controller_span(*c_args, **c_kwargs):
                    return tracer._span(layer, controller, c_args, c_kwargs)

                return controller_span, template
        elif kind == "deserialize":
            def traced(*args, **kwargs):
                args = list(args)
                deserialize = args[3] if len(args) > 3 else kwargs.get(
                    "deserialize")
                if deserialize is not None:
                    def deserialize_span(*d_args):
                        return tracer._span("orm.session", deserialize,
                                            d_args, {})
                    if len(args) > 3:
                        args[3] = deserialize_span
                    else:
                        kwargs["deserialize"] = deserialize_span
                return fn(*args, **kwargs)
        elif kind == "record":
            def traced(*args, **kwargs):
                tracer.count("sqldb.statements")
                tracer.count("sqldb.rows_touched", args[1])
                return fn(*args, **kwargs)
        elif kind == "exec":
            def traced(*args, **kwargs):
                read = type(args[1]).__name__ == "Select"
                return tracer._span(
                    "sqldb.exec.read" if read else "sqldb.exec.write",
                    fn, args, kwargs)
        elif kind == "parse":
            def traced(*args, **kwargs):
                before = tracer.counts.get("sqldb.tokenize", 0)
                result = tracer._span(layer, fn, args, kwargs)
                tracer.count("sqldb.parse_calls")
                if tracer.counts.get("sqldb.tokenize", 0) == before:
                    tracer.count("sqldb.parse_hits")
                return result
        elif kind == "tokenize":
            def traced(*args, **kwargs):
                tracer.count("sqldb.tokenize")
                return tracer._span(layer, fn, args, kwargs)
        else:
            def traced(*args, **kwargs):
                result = tracer._span(layer, fn, args, kwargs)
                tracer._after(kind, args, result)
                return result

        def gated(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        return functools.wraps(fn)(gated)

    def _after(self, kind, args, result):
        if kind == "register":
            self.count("core.queries_registered")
        elif kind == "trip":
            self.count("net.round_trips")
            self.count("net.statements")
        elif kind == "batch":
            size = len(args[1])
            if size:
                self.count("net.round_trips")
                self.count("net.statements", size)
                if self.inside("core.query_store"):
                    self.count("core.batches")
                    self.count("core.statements_issued", size)
        elif kind == "server_one":
            self._results([result.result])
            self._keys([(args[1], args[2] if len(args) > 2 else ())])
        elif kind == "server_batch":
            self._results([outcome.result for outcome in result[0]])
            self._keys(args[1])
        elif kind == "plan":
            self.count("sqldb.plans_built")

    def _keys(self, statements):
        if self.keys is not None:
            for sql, params in statements:
                key = (sql, tuple(params))
                self.keys[key] = self.keys.get(key, 0) + 1

    def _results(self, results):
        for result in results:
            if not result.columns:
                continue
            self.count("sqldb.selects")
            if result.from_cache:
                self.count("sqldb.result_cache_hits")
            else:
                self.count("sqldb.rows_returned", len(result.rows))

    # -- the per-layer report --------------------------------------------------

    def metrics(self, requests, scale=1.0):
        """Per-request self times (ms, multiplied by ``scale``) and the
        count-based ratios."""
        c = self.counts.get
        per = max(1, requests)
        out = {f"{layer}.ms": ns * scale / 1e6 / per
               for layer, ns in self.self_ns.items()}
        statements = c("sqldb.statements", 0)
        sqldb_ms = sum(self.self_ns.get(layer, 0)
                       for layer in SQLDB_LAYERS) * scale / 1e6
        out.update({
            "orm.calls": c("orm.calls", 0) / per,
            "core.queries_registered": c("core.queries_registered", 0) / per,
            "core.issued_per_registered": _ratio(
                c("core.statements_issued", 0),
                c("core.queries_registered", 0)),
            "core.batch_size.mean": _ratio(c("core.statements_issued", 0),
                                           c("core.batches", 0)),
            "net.round_trips": c("net.round_trips", 0) / per,
            "net.statements": c("net.statements", 0) / per,
            "sqldb.parse_cache.hit_rate": _ratio(c("sqldb.parse_hits", 0),
                                                 c("sqldb.parse_calls", 0)),
            "sqldb.plans_built_per_1k": _ratio(
                1000 * c("sqldb.plans_built", 0), statements),
            "sqldb.rows_touched": c("sqldb.rows_touched", 0) / per,
            "sqldb.rows_touched_per_row": _ratio(
                c("sqldb.rows_touched", 0), c("sqldb.rows_returned", 0)),
            "sqldb.result_cache.hit_rate": _ratio(
                c("sqldb.result_cache_hits", 0), c("sqldb.selects", 0)),
            "sqldb.errors": c("sqldb.errors", 0),
            "calib.statement_ms": _ratio(sqldb_ms, statements),
        })
        return {name: value for name, value in out.items()
                if name not in self.missing}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
