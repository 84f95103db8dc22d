"""Spans recorded by the benchmark's own files around calls into a layer.

Each span has a name, start, end, the span that caused it and a request
id.  Spans stay in memory and are written out when the run ends.  A
layer's self time is its span minus the part its children cover.  Spans
inside ``src/`` are a later issue.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional


class Tracer:
    """In-memory span recorder; ``enabled=False`` makes every call a no-op,
    so one driver serves the untraced and the traced pass."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: [name, start, end, parent index or None, request id or None]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None):
        """Time the enclosed call; nests under the span open on this thread."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, request_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def record(
        self, name: str, start: float, end: float, request_id: Optional[str] = None
    ) -> None:
        """Add a finished span whose end was observed on another thread (a
        future's done-callback); it nests under the span open on the caller."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, start, end, parent, request_id])

    def self_seconds(self) -> List[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: Dict[int, List[tuple]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                children.setdefault(parent, []).append((start, end))
        result = []
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if end is None:
                result.append(0.0)
                continue
            covered, cursor = 0.0, start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start, child_end = max(child_start, cursor), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result.append((end - start) - covered)
        return result

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total, self total and median duration (ms)."""
        self_seconds = self.self_seconds()
        rows: Dict[str, Dict[str, list]] = {}
        for (name, start, end, _, _), own in zip(self.spans, self_seconds):
            if end is None:
                continue
            row = rows.setdefault(name, {"durations": [], "self": []})
            row["durations"].append(end - start)
            row["self"].append(own)
        return {
            name: {
                "count": len(row["durations"]),
                "total_ms": sum(row["durations"]) * 1e3,
                "self_ms": sum(row["self"]) * 1e3,
                "p50_ms": median(row["durations"]) * 1e3,
            }
            for name, row in sorted(rows.items())
        }

    def dump(self, path: Path, extra: Optional[dict] = None) -> None:
        origin = min((span[1] for span in self.spans), default=0.0)
        payload = dict(extra or {})
        payload["table"] = self.table()
        payload["spans"] = [
            {
                "name": name,
                "start_ms": (start - origin) * 1e3,
                "end_ms": None if end is None else (end - origin) * 1e3,
                "parent": parent,
                "request_id": request_id,
            }
            for name, start, end, parent, request_id in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
