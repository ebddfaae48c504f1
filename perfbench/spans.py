"""In-memory spans around calls into the tgt modules.

The benchmark leaves the library untouched.  In a traced run it swaps the
public functions named in WRAPPED for recording wrappers, in every loaded
tgt module that refers to them, so a call made by the benchmark and a call
the library makes internally (construct_disjunct -> verify_disjunct,
cli.main -> load_bundle -> load_matrix) each leave one span.  The
originals are put back when the `installed` block exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

WRAPPED = {
    "bitmat": ("serialize_matrix", "load_matrix"),
    "semantics": ("inject_errors", "flip_positions"),
    "constructions": (
        "construct_disjunct", "verify_disjunct", "construct_good", "validate_good",
    ),
    "codec": (
        "build_scheme", "encode", "flatten_outcomes", "split_outcome", "decode_blocks",
        "adversarial_flip_positions", "save_bundle", "load_bundle",
    ),
    "oracle": ("brute_force_decode",),
    "cli": ("main",),
}

# Facts read off a call's result and stored on its span.
_ANNOTATE = {
    "bitmat.load_matrix": lambda result: {"kind": result[1]},
    "bitmat.serialize_matrix": lambda result: {"bytes": len(result)},
}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    trial: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Collects spans; `trial` labels every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trial: object = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.trial))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        annotate = _ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if annotate is not None:
                self.spans[index].attrs.update(annotate(result))
            return result

        return traced

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index, "name": span.name, "start_ns": span.start,
                    "end_ns": span.end, "parent": span.parent, "trial": span.trial,
                    **span.attrs,
                }
                fh.write(json.dumps(record) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every WRAPPED function through the tracer for the block."""
    loaded = [mod for name, mod in list(sys.modules.items())
              if name == "tgt" or name.startswith("tgt.")]
    saved = []
    try:
        for short, names in WRAPPED.items():
            home = importlib.import_module(f"tgt.{short}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = tracer.wrap(f"{short}.{fn_name}", original)
                for mod in loaded:
                    if getattr(mod, fn_name, None) is original:
                        saved.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapper)
        yield tracer
    finally:
        for mod, fn_name, original in reversed(saved):
            setattr(mod, fn_name, original)
