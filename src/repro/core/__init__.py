"""Sloth core: extended lazy evaluation.

This is the paper's primary contribution, realized as a runtime library:

- :mod:`repro.core.thunk` — :class:`Thunk` and :class:`QueryThunk` with
  memoized forcing (paper §3.2, §3.3), the transparent :class:`LazyProxy`
  (the Python idiom for thunk-ified values flowing through unmodified
  application code), and :func:`force`, the one loop that evaluates them,
- :mod:`repro.core.query_store` — the query store that accumulates reads
  into batches under per-store ``int`` query ids, deduplicates
  registrations, eagerly flushes on writes, and caches result sets
  (paper §3.3),
- :mod:`repro.core.runtime` — the per-request :class:`SlothRuntime` holding
  the query store, the optimization flags (SC/TC/BD, paper §4) and the
  lazy-evaluation overhead accounting.
"""

from repro.core.query_store import QueryStore
from repro.core.runtime import OptimizationFlags, SlothRuntime
from repro.core.thunk import LazyProxy, QueryThunk, Thunk, force

__all__ = [
    "Thunk",
    "QueryThunk",
    "LazyProxy",
    "force",
    "QueryStore",
    "SlothRuntime",
    "OptimizationFlags",
]
