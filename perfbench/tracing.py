"""Spans for the traced benchmark run, and the order statistics it reports.

A span is one call into a layer of capacity-lab, made from the benchmark's
own code: name, start, end, the span that caused it, and the request it
belongs to.  Spans stay in memory and are written out once, when the run
ends, so that self times can be recomputed from the dump.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict


class LayerError(Exception):
    """A call into a layer raised; ``layer`` is the module it belongs to."""

    def __init__(self, span: str):
        super().__init__(span)
        self.span = span
        self.layer = span.split(".", 1)[0]


def plain_call(name, fn, *args):
    """Untraced call: no span, but a failure still names its layer."""
    try:
        return fn(*args)
    except LayerError:
        raise
    except Exception as exc:
        raise LayerError(name) from exc


class Tracer:
    """Records one span per call made through ``call``."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, request)
        self.request = None
        self._stack = []
        self._next_id = 0

    def call(self, name, fn, *args):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args)
        except LayerError:
            raise
        except Exception as exc:
            raise LayerError(name) from exc
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self.request))

    def only(self, names):
        """A call that records spans only for ``names`` and runs the rest plainly."""

        def call(name, fn, *args):
            if name in names:
                return self.call(name, fn, *args)
            return plain_call(name, fn, *args)

        return call

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every span, in seconds, grouped by name.

        Children of one span run one after another on one thread, so the
        part of the parent's interval they cover is the sum of their
        durations.
        """
        covered = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(list)
        for sid, _, name, start, end, _ in self.spans:
            out[name].append(end - start - covered[sid])
        return out

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, start, end, request in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "request": request}
                    )
                    + "\n"
                )


def tail(values: list[float]) -> tuple[float, float, int]:
    """The sample with ten samples above it: (value, percentile, sample count).

    That is the highest percentile that still rests on ten samples.  With
    ten samples or fewer the maximum is returned as the 100th percentile.
    """
    n = len(values)
    ordered = sorted(values)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n
