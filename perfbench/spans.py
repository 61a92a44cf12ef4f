"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into `dpforms` public functions, wrapped from
outside the package: every `dpforms.*` module attribute bound to a target
function is replaced by a recording wrapper, so a call is seen whichever
module the caller looks the name up in (for example `compute_ell` reaches
`validate_action` through `dpforms.galois`, and the verification battery
calls the census through the names bound in `dpforms.verification`).
Per-intersection helpers such as `SurfaceModel.intersect` are deliberately
not wrapped; counts like the number of curves fed to `compute_ell` are read
off argument and result sizes instead.

A span is the list [id, name, start, end, parent_id, job_id, size]; spans
stay in memory until `dump` writes them at the end of the run.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from functools import cached_property, wraps
from time import perf_counter

ID, NAME, START, END, PARENT, JOB, SIZE = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def wrap(self, name: str, fn, size=None):
        """A wrapper around fn that records one span per call.

        size(args, result) -> number, when given, is stored on the span.
        """
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, self._job, None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(args, result)
            return result

        return traced

    @contextmanager
    def job(self, job_id: str):
        """Tag the spans recorded inside the block with job_id."""
        previous, self._job = self._job, job_id
        try:
            yield
        finally:
            self._job = previous

    # --- installing wrappers ---------------------------------------------

    def patch_function(self, fn, name: str, size=None) -> None:
        """Replace fn by its wrapper in every loaded dpforms module that binds it."""
        wrapper = self.wrap(name, fn, size)
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "dpforms" or mod_name.startswith("dpforms.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{fn!r} is not bound in any dpforms module")

    def patch_cached_property(self, cls, attr: str, name: str) -> None:
        """Trace the first (computing) access of a cached_property."""
        original = cls.__dict__[attr]
        replacement = cached_property(self.wrap(name, original.func))
        replacement.__set_name__(cls, attr)
        self._set(cls, attr, replacement)

    def patch_sequence(self, module, attr: str, names) -> None:
        """Wrap each function of a module-level tuple, naming its spans by position."""
        original = getattr(module, attr)
        self._set(module, attr, tuple(self.wrap(name, fn) for name, fn in zip(names, original, strict=True)))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def dump(self, path, provenance) -> None:
        keys = ("id", "name", "start", "end", "parent", "job", "size")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"provenance": provenance,
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, handle)
