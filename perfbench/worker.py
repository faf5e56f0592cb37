"""One workload process of the capacity-lab benchmark.

run.py starts it as ``python perfbench/worker.py ...`` with ``src`` on
PYTHONPATH.  It imports the package, builds the workload's inputs from the
seed and warms up with one request; that is set-up.  With ``--role setup``
it stops there.  With ``--role run`` it goes on to the closed loop: one
client, each request sent when the previous one returns, for ``--seconds``
seconds and up to the end of the pass over the requests in progress, or
for half of that untraced and half traced with ``--trace 1``.  Times are
reported at the reference speed of speed.py.  Outputs are checked after
the loop.  The last line of stdout is one JSON object.
"""

import time

_T_IMPORT = time.perf_counter()
import capacity_lab.cli  # noqa: E402  (the import cli.import_ms reports)

IMPORT_MS = (time.perf_counter() - _T_IMPORT) * 1e3

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from capacity_lab import Polydisk, _kernels, mean_width_estimate  # noqa: E402
from speed import Speed, interpreter_start  # noqa: E402
from tracing import LayerError, Tracer, plain_call, tail  # noqa: E402
from workloads import MEAN_WIDTH_SAMPLES, WORKLOADS, Context  # noqa: E402

LAYERS = ("exact", "domains", "minkowski", "bm", "oracle", "kernels", "cli")
ALL_SPANS = frozenset().union(*(cls.spans for cls in WORKLOADS.values()))


class Outcomes:
    """Outputs by request position; each distinct request is checked once,
    after the loop, and every repeat must equal the first output."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = Counter()  # layer -> failed requests
        self._first = {}
        self._repeats = Counter()

    def record(self, idx: int, out) -> None:
        self.attempted += 1
        if isinstance(out, LayerError):
            self.failed[out.layer] += 1
        elif idx not in self._first:
            self._first[idx] = out
        elif out == self._first[idx]:
            self._repeats[idx] += 1
        else:
            self.failed[self.wl.main_layer] += 1

    def check(self) -> None:
        for idx, out in self._first.items():
            try:
                layer = self.wl.check(self.wl.requests[idx], out)
            except Exception:  # a check that cannot run counts as a failed request
                traceback.print_exc()
                layer = self.wl.main_layer
            if layer:
                self.failed[layer] += 1 + self._repeats[idx]

    @property
    def failures(self) -> int:
        return sum(self.failed.values())


def closed_loop(wl, outcomes: Outcomes, seconds: float, call, speed: Speed, tracer=None):
    """Send the workload's requests in order, cycling, until ``seconds`` have
    passed and the pass over the request list in progress is complete, so
    that every request ran equally often.

    Returns each request's latency and the raw latencies.  Speed swings
    within a run as well, so the latency of a request is the fastest time
    that the same work (equal ``wl.work_key``) took anywhere in this loop,
    brought to the reference speed of its own stretch (see speed.py).  The
    reference job of ``speed`` runs between requests.  A traced loop also
    replays each request layer by layer, outside its latency.
    """
    reqs = wl.requests
    starts, raw = array("d"), array("d")  # compact, so peak RSS does not follow the request count
    i = 0
    speed.sample()
    now = time.perf_counter()
    deadline = now + seconds
    while now < deadline or i % len(reqs):
        idx = i % len(reqs)
        req = reqs[idx]
        if tracer is not None:
            tracer.request = i
        t = time.perf_counter()
        try:
            out = call("request", wl.run, req, call)
        except LayerError as err:
            out = err
        raw.append(time.perf_counter() - t)
        starts.append(t)
        if tracer is not None and not isinstance(out, LayerError):
            try:
                call("layers", wl.layers, req, out, call)
            except LayerError as err:
                out = err
        outcomes.record(idx, out)
        speed.maybe_sample()
        i += 1
        now = time.perf_counter()
    keys = [wl.work_key(reqs[i % len(reqs)]) for i in range(len(raw))]
    fastest = {}
    for i, key in enumerate(keys):
        if key not in fastest or raw[i] < raw[fastest[key]]:
            fastest[key] = i
    runs = sorted(fastest.values())
    factors = dict(zip(runs, speed.factors([starts[i] for i in runs], [raw[i] for i in runs])))
    best = {key: raw[i] * factors[i] for key, i in fastest.items()}
    return [best[key] for key in keys], raw


def probe_missing_layers(tracer: Tracer, ctx: Context, outcomes: Outcomes) -> None:
    """Give every layer span at least one sample.

    A workload leaves some layers idle; their per-layer figures come from
    a few small requests of the workloads that do use them, traced only
    for the spans still missing.
    """
    missing = ALL_SPANS - {span[2] for span in tracer.spans}
    tracer.request = "probe"
    for cls in WORKLOADS.values():
        if not cls.spans & missing:
            continue
        other = cls(ctx)
        call = tracer.only(missing)
        try:
            for req in other.small_requests():
                outcomes.attempted += 1
                try:
                    out = other.run(req, call)
                    other.layers(req, out, call)
                    layer = other.check(req, out)
                except LayerError as err:
                    layer = err.layer
                if layer:
                    outcomes.failed[layer] += 1
        finally:
            other.close()
        missing -= {span[2] for span in tracer.spans}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def mean_width_peak_alloc_mb() -> float:
    tracemalloc.start()
    try:
        mean_width_estimate(Polydisk(1, 1), MEAN_WIDTH_SAMPLES, 0)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": _kernels.backend_name(),
        "git_commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def end_to_end(latencies: list[float], raw: list[float]) -> tuple[dict, dict]:
    tail_s, percentile, samples = tail(latencies)
    metrics = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "throughput_ops_s": len(latencies) / sum(latencies),
    }
    details = {
        "latency_tail_percentile": percentile,
        "latency_samples": samples,
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "raw_throughput_ops_s": len(raw) / sum(raw),
    }
    return metrics, details


def per_layer(tracer: Tracer, ctx: Context) -> tuple[dict, dict]:
    times = tracer.self_times()
    metrics = {}
    for name in sorted(ALL_SPANS):
        ms = [t * 1e3 for t in times[name]]
        metrics[f"{name}.p50_ms"] = statistics.median(ms)
        metrics[f"{name}.tail_ms"] = tail(ms)[0]
        metrics[f"{name}.calls"] = len(ms)
    metrics["minkowski.argmin_frac.mean"] = statistics.fmean(ctx.stats.argmin_fracs)
    metrics["oracle.max_rel_gap"] = max(ctx.stats.oracle_gaps)
    metrics["bm.mean_width_estimate.peak_alloc_mb"] = mean_width_peak_alloc_mb()
    details = {
        "span_calls": {name: len(ts) for name, ts in sorted(times.items())},
        "span_self_s": {name: sum(ts) for name, ts in sorted(times.items())},
    }
    return metrics, details


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when run.py started this process")
    ap.add_argument("--results", required=True)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    package = Path(capacity_lab.__file__).resolve().parent
    if package != (root / "src" / "capacity_lab").resolve():
        print(f"capacity_lab was imported from {package}, not from this checkout", file=sys.stderr)
        return 2

    ctx = Context(root=str(root), results=args.results, env=dict(os.environ), seed=args.seed)
    wl = WORKLOADS[args.workload](ctx)
    try:
        try:  # warm-up; a failure here shows again in the timed loop
            wl.run(wl.small_requests()[0], plain_call)
        except LayerError:
            pass
        setup_s = time.monotonic() - args.t0
        start_speed = Speed(*interpreter_start(ctx))
        start_speed.sample(3)
        result = {
            "setup_s": setup_s * start_speed.factor(),
            "raw_setup_s": setup_s,
            "import_ms": IMPORT_MS,
            "interpreter_ms": start_speed.median_ms(),
        }
        if args.role == "setup":
            print(json.dumps(result))
            return 0

        speed = Speed(*wl.speed_reference())
        outcomes = Outcomes(wl)
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced, raw = closed_loop(wl, outcomes, seconds, plain_call, speed)
        metrics, details = end_to_end(untraced, raw)
        metrics["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli_exact")
        if args.trace:
            tracer = Tracer()
            traced, _ = closed_loop(wl, outcomes, seconds, tracer.call, speed, tracer)
            probe_missing_layers(tracer, ctx, outcomes)
        outcomes.check()
        if args.trace:
            layer_metrics, layer_details = per_layer(tracer, ctx)
            metrics.update(layer_metrics)
            details.update(layer_details)
            metrics["trace.untraced_p50_ms"] = statistics.median(untraced) * 1e3
            metrics["trace.traced_p50_ms"] = statistics.median(traced) * 1e3
            spans_path = Path(args.results) / f"{args.workload}.seed{args.seed}.spans.jsonl.gz"
            tracer.dump(spans_path)
            details["spans"] = str(spans_path.relative_to(root))
        metrics["ok_ratio"] = 1 - outcomes.failures / outcomes.attempted
        metrics["failed_ratio"] = outcomes.failures / outcomes.attempted
        for layer in LAYERS:
            metrics[f"{layer}.failed"] = outcomes.failed[layer]
        result.update(
            metrics=metrics,
            details=details,
            attempted=outcomes.attempted,
            failed=outcomes.failures,
            environment=environment(root, args.seed),
        )
        print(json.dumps(result))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
