"""Span recording around calls into the program's layers, from outside.

:class:`Recorder` swaps a public callable — a module attribute or a
method on a class and every subclass that defines it — for a shim that
records one span per call: name, start, end and the span that was open
when it started (its parent).  Spans stay in memory until the run ends;
:meth:`Recorder.write_jsonl` writes them out.  Nothing under ``src/``
changes: the shims live here and are removed by :meth:`Recorder.restore`.

:func:`summarize` turns spans into per-name totals.  A span's *self*
time is its duration minus the time its child spans cover.  A name's
*total* counts only outermost spans of that name (a subclass method
that calls its base through ``super()`` is not counted twice).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

_now = time.perf_counter

# A span is a list: [name, start, end, parent index, nested-in-same-name].
NAME, START, END, PARENT, NESTED = range(5)


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every class below it, each once."""
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in out:
            out.append(current)
            todo.extend(current.__subclasses__())
    return out


class Recorder:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._undo: List[tuple] = []

    # -- recording -------------------------------------------------------
    def timed(
        self,
        name: str,
        fn: Callable,
        *,
        rename: Optional[Callable[[tuple, dict], str]] = None,
        before: Optional[Callable[[tuple, dict], Any]] = None,
        after: Optional[Callable[[tuple, dict, Any, Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped so that every call records one span.

        ``rename(args, kwargs)`` picks the span name per call;
        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(args, kwargs, result, value)``, which runs
        after a successful call (both outside the timed interval).
        """
        spans, stack, open_names = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            label = name if rename is None else rename(args, kwargs)
            token = before(args, kwargs) if before is not None else None
            span = [label, 0.0, 0.0, stack[-1] if stack else None, open_names[label] > 0]
            stack.append(len(spans))
            spans.append(span)
            open_names[label] += 1
            span[START] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = _now()
                open_names[label] -= 1
                stack.pop()
            if after is not None:
                after(args, kwargs, result, token)
            return result

        return shim

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside one span (the benchmark's own operations,
        e.g. one fleet round)."""
        return self.timed(name, fn)(*args, **kwargs)

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Replace ``owner.attr`` (a module function or class method)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.timed(name, original, **hooks))
        self._undo.append((owner, attr, original))

    def patch_tree(self, base: type, attr: str, name: str, **hooks: Any) -> None:
        """Patch ``attr`` on ``base`` and every subclass defining it."""
        for cls in _subclasses(base):
            if attr in cls.__dict__:
                self.patch(cls, attr, name, **hooks)

    def patch_iterator_tree(self, base: type, attr: str, name: str) -> None:
        """Patch a method returning an iterator so each ``next`` is a span."""
        recorder = self
        for cls in _subclasses(base):
            if attr not in cls.__dict__:
                continue
            original = cls.__dict__[attr]

            def make(original=original):
                @functools.wraps(original)
                def shim(*args, **kwargs):
                    iterator = iter(original(*args, **kwargs))
                    return _TimedIterator(recorder.timed(name, iterator.__next__))

                return shim

            setattr(cls, attr, make())
            self._undo.append((cls, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start_s": span[START],
                            "end_s": span[END],
                            "parent": span[PARENT],
                        }
                    )
                )
                fh.write("\n")


class _TimedIterator:
    def __init__(self, next_fn: Callable) -> None:
        self._next = next_fn

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        return self._next()


def summarize(spans: Iterable[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, outermost inclusive ``total_s`` and
    ``self_s`` (duration minus what child spans cover)."""
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    out: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[index]
        if not span[NESTED]:
            entry["total_s"] += duration
    return out


def format_table(
    summary: Dict[str, Dict[str, float]], blocking_s: float, title: str
) -> List[str]:
    """The per-layer table: calls, total, self time, self share of the
    blocking operations' wall time, mean per call."""
    lines = [
        title,
        f"{'span':<24}{'calls':>8}{'total ms':>12}{'self ms':>12}{'self %':>9}{'ms/call':>10}",
    ]
    for name, entry in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        calls = max(1, int(entry["calls"]))
        share = 100.0 * entry["self_s"] / blocking_s if blocking_s > 0 else 0.0
        lines.append(
            f"{name:<24}{int(entry['calls']):>8}{entry['total_s'] * 1e3:>12.1f}"
            f"{entry['self_s'] * 1e3:>12.1f}{share:>8.1f}%{entry['total_s'] * 1e3 / calls:>10.3f}"
        )
    return lines


def mean_ms(summary: Dict[str, Dict[str, float]], name: str) -> float:
    """Mean inclusive milliseconds per outermost call of ``name`` (0 if
    the layer never ran in this workload)."""
    entry = summary.get(name)
    if not entry or not entry["calls"]:
        return 0.0
    return entry["total_s"] * 1e3 / entry["calls"]


def obs_families(snapshot: List[Dict[str, Any]], prefixes=("session.", "fleet.", "jobs.", "wire.", "serve.")) -> List[str]:
    """Render the ``repro.obs`` series of the given families, one line each."""
    lines = []
    for entry in snapshot:
        if not entry["name"].startswith(prefixes):
            continue
        labels = ",".join(f"{k}={v}" for k, v in sorted((entry.get("labels") or {}).items()))
        name = entry["name"] + (f"{{{labels}}}" if labels else "")
        if entry["kind"] == "histogram":
            count = entry.get("count", 0)
            mean = entry.get("sum", 0.0) / count if count else 0.0
            lines.append(f"  {name:<44} count={count} mean={mean:.6g}")
        else:
            lines.append(f"  {name:<44} {entry['kind']}={entry.get('value', 0):.6g}")
    return lines


def obs_value(snapshot: List[Dict[str, Any]], name: str, field: str = "value") -> float:
    """Sum of one field over every label set of an ``repro.obs`` series."""
    return float(sum(e.get(field, 0.0) for e in snapshot if e["name"] == name))
