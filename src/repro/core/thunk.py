"""Thunks, transparent lazy proxies and the force loop.

Mirrors the paper's compiled form (§3.2): every delayed statement becomes an
object that runs the original computation once and memoizes the result.

- :class:`Thunk` — wraps a zero-argument callable.
- :class:`QueryThunk` — a :class:`Thunk` that registers a query with the
  query store on *construction* and fetches/deserializes the result set
  when forced (§3.3).
- :class:`LazyProxy` — wraps a thunk and behaves like the eventual value:
  attribute access, indexing, iteration, comparison, arithmetic and string
  conversion all force the thunk first.  This is the dynamic-proxy idiom
  that replaces the paper's bytecode-level thunk conversion in Python:
  application code that receives a proxy instead of a value keeps working
  unchanged, and the first *use* of the value is what triggers the batch
  flush.  Creating a proxy never executes anything.

:func:`force` is the one place a thunk's body runs: it turns thunks and
proxies into plain values and passes other values through.
"""

import operator

_UNEVALUATED = object()


class Thunk:
    """A delayed computation of ``fn()``, forced at most once.

    With a ``runtime`` the allocation and every first-force attempt are
    charged to its clock (:meth:`SlothRuntime.on_thunk_allocated`,
    :meth:`SlothRuntime.on_force`).
    """

    __slots__ = ("_fn", "_value", "_runtime")

    def __init__(self, fn, runtime=None):
        self._fn = fn
        self._value = _UNEVALUATED
        self._runtime = runtime
        if runtime is not None:
            runtime.on_thunk_allocated()

    @property
    def is_forced(self):
        return self._value is not _UNEVALUATED

    def force(self):
        """Evaluate the delayed computation (memoized)."""
        value = self._value
        if value is _UNEVALUATED:
            return force(self)
        return value

    def __repr__(self):
        if self.is_forced:
            return f"Thunk(forced={self._value!r})"
        return "Thunk(<delayed>)"


class QueryThunk(Thunk):
    """A thunk for a database read (§3.3).

    Construction *eagerly* registers the SQL with the query store — this is
    the "third kind of computation" of extended lazy evaluation: the query's
    execution is delayed but its registration is not.  ``deserialize`` maps
    the raw result set to the value the application expects (e.g., an ORM
    entity); it runs once, memoized.  The query id is only meaningful to
    the store that issued it, which is the one this thunk reads from.
    """

    __slots__ = ("query_id",)

    def __init__(self, query_store, sql, params=(), deserialize=None,
                 runtime=None):
        query_id = self.query_id = query_store.register_query(sql, params)

        def _fetch():
            result_set = query_store.get_result_set(query_id)
            if deserialize is None:
                return result_set
            return deserialize(result_set)

        super().__init__(_fetch, runtime=runtime)

    def __repr__(self):
        state = "forced" if self.is_forced else "pending"
        return f"QueryThunk(id={self.query_id}, {state})"


class LazyProxy:
    """Forwards (almost) everything to the forced value of a thunk."""

    __slots__ = ("_thunk",)

    def __init__(self, thunk):
        object.__setattr__(self, "_thunk", thunk)

    # -- attribute protocol -----------------------------------------------

    def __getattribute__(self, name):
        if name.startswith("__"):
            # Dunders resolve on the proxy itself; the explicitly defined
            # dunders below forward to the target.
            try:
                return object.__getattribute__(self, name)
            except AttributeError:
                pass
        return getattr(force(self), name)

    def __setattr__(self, name, value):
        # Heap writes are not deferred (paper §3.5): force the receiver.
        setattr(force(self), name, value)

    def __delattr__(self, name):
        delattr(force(self), name)

    # -- conversions ---------------------------------------------------------

    def __repr__(self):
        return repr(force(self))

    def __str__(self):
        return str(force(self))

    def __bytes__(self):
        return bytes(force(self))

    def __format__(self, spec):
        return format(force(self), spec)

    def __bool__(self):
        return bool(force(self))

    def __int__(self):
        return int(force(self))

    def __float__(self):
        return float(force(self))

    def __index__(self):
        return operator.index(force(self))

    def __hash__(self):
        return hash(force(self))

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        return force(self) == force(other)

    def __ne__(self, other):
        return force(self) != force(other)

    def __lt__(self, other):
        return force(self) < force(other)

    def __le__(self, other):
        return force(self) <= force(other)

    def __gt__(self, other):
        return force(self) > force(other)

    def __ge__(self, other):
        return force(self) >= force(other)

    # -- containers ------------------------------------------------------------

    def __len__(self):
        return len(force(self))

    def __iter__(self):
        return iter(force(self))

    def __contains__(self, item):
        return force(item) in force(self)

    def __getitem__(self, key):
        return force(self)[force(key)]

    def __setitem__(self, key, value):
        force(self)[force(key)] = value

    def __delitem__(self, key):
        del force(self)[force(key)]

    # -- callables ---------------------------------------------------------------

    def __call__(self, *args, **kwargs):
        return force(self)(*args, **kwargs)

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        return force(self) + force(other)

    def __radd__(self, other):
        return force(other) + force(self)

    def __sub__(self, other):
        return force(self) - force(other)

    def __rsub__(self, other):
        return force(other) - force(self)

    def __mul__(self, other):
        return force(self) * force(other)

    def __rmul__(self, other):
        return force(other) * force(self)

    def __truediv__(self, other):
        return force(self) / force(other)

    def __rtruediv__(self, other):
        return force(other) / force(self)

    def __floordiv__(self, other):
        return force(self) // force(other)

    def __mod__(self, other):
        return force(self) % force(other)

    def __neg__(self):
        return -force(self)

    def __abs__(self):
        return abs(force(self))


# Reads a proxy's thunk slot without LazyProxy.__getattribute__.
_proxy_thunk = LazyProxy.__dict__["_thunk"].__get__


def is_thunk(value):
    """Whether ``value`` is a thunk or a lazy proxy."""
    cls = type(value)
    return cls is Thunk or cls is QueryThunk or cls is LazyProxy


def force(value):
    """Force thunks and proxies to a plain value; pass other values through.

    One loop resolves a whole chain — a thunk whose body returns another
    thunk or a proxy, and so on — without recursion, and every thunk on the
    chain memoizes the plain value it ends in.  Types are checked with
    ``type()``, so a proxy's ``__class__`` is never looked up through
    :meth:`LazyProxy.__getattribute__`.  A body that raises leaves its thunk
    and the ones before it on the chain unforced: forcing again reruns them
    (and charges ``force_ms`` again).
    """
    chain = None
    while True:
        cls = type(value)
        if cls is LazyProxy:
            value = _proxy_thunk(value)
            continue
        if cls is not Thunk and cls is not QueryThunk:
            break
        memo = value._value
        if memo is not _UNEVALUATED:
            value = memo
            break
        if chain is None:
            chain = [value]
        else:
            chain.append(value)
        runtime = value._runtime
        if runtime is not None:
            runtime.on_force()
        value = value._fn()
    if chain is not None:
        for thunk in chain:
            thunk._value = value
            thunk._fn = None  # release captured state
    return value


def force_deep(value):
    """Force a value and, for common containers, its elements too.

    Meant for externalization boundaries (e.g., writing a model into an
    HTML page): lists/tuples/dicts/sets built from thunks are resolved into
    plain containers of plain values.
    """
    value = force(value)
    if isinstance(value, list):
        return [force_deep(v) for v in value]
    if isinstance(value, tuple):
        return tuple(force_deep(v) for v in value)
    if isinstance(value, set):
        return {force_deep(v) for v in value}
    if isinstance(value, dict):
        return {force(k): force_deep(v) for k, v in value.items()}
    return value
