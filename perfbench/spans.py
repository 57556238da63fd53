"""In-memory span recorder for the traced run, written out once at the
end of the run."""

from __future__ import annotations

import json
import os


class Tracer:
    def __init__(self, origin: float):
        self.origin = origin  # perf_counter() at process start
        self.spans: list[dict] = []
        self.notes: dict = {}

    def span(self, name: str, start: float, end: float, parent: int | None,
             pass_id: int) -> int:
        """Record one span (perf_counter() seconds) and return its id."""
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "parent": parent,
                           "pass": pass_id, "start": start - self.origin,
                           "end": end - self.origin})
        return sid

    def dump(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({**header, "notes": self.notes, "spans": self.spans}, f)
