"""Thunk-aware page writer (the JSP ``JspWriter`` extension, paper §5).

``write`` appends plain text; ``write_thunk`` appends a *possibly delayed*
value without forcing it.  Nothing is evaluated until :meth:`flush`, which
forces buffered thunks in order and returns the final page — "thunks in the
buffer are not evaluated until the writer is flushed by the web server
(which typically happens when the entire HTML page is generated)".

Keeping scalar outputs delayed until flush is what lets the very last
queries of a page accumulate into one final batch.
"""

from repro.core.thunk import force


class ThunkWriter:
    """Buffers page output; forces delayed values only at flush."""

    def __init__(self):
        self._buffer = []
        self._flushed = False
        self.thunk_writes = 0

    def write(self, text):
        """Append already-evaluated text."""
        self._buffer.append(text)

    def write_thunk(self, value):
        """Append a value that may still be a thunk/proxy (not forced)."""
        self._buffer.append(_Deferred(value))
        self.thunk_writes += 1

    def flush(self):
        """Force everything and return the rendered page string."""
        parts = []
        for piece in self._buffer:
            if isinstance(piece, _Deferred):
                piece = to_text(force(piece.value))
            parts.append(piece)
        self._flushed = True
        return "".join(parts)

    @property
    def flushed(self):
        return self._flushed


class _Deferred:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def to_text(value):
    """How a value appears on the page (``None`` as nothing, floats in
    ``%g`` form)."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
