#!/usr/bin/env python3
"""raycrawl benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload crawl_media --seed 1 --seconds 28 --trace 0

Run it from the root of a raycrawl checkout (the directory holding
``raycrawl/``, ``tools/`` and ``BENCHMARK.json``). Workloads:
``crawl_media`` and ``query_mix`` (see NOTES.md).

A run sets Ray up ``SETUP_CYCLES`` times (``ray.init``, one worker per CPU
importing the program, a tiny warm-up op, then shutdown), keeping the last
session; computes the oracle answer for
the seed; then runs timed passes back to back until ``--seconds`` have
passed, checking every pass's output against the oracle. With
``--trace 1`` every other pass is traced (spans kept in memory and written
to ``.bench_work/traces/`` at the end) and the crawl workloads finish with
a per-layer replay of the last traced pass.

Lines starting with ``#`` are for people: host facts, each metric's median,
p90 and sample count, failures. The last line is the result:
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric of BENCHMARK.json (``--trace 0``) or every per-layer metric
(``--trace 1``).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
SETUP_CYCLES = 2
OBJECT_STORE_BYTES = 512 << 20
MAX_RUN_S = 150.0  # stop starting passes after this, whatever --seconds says
# per-layer metric prefixes each workload exercises; the rest read 0 there
LAYERS = {
    "crawl_media": ("crawler.", "frontier.", "urltools.", "fetch.",
                    "decode.", "codec.", "io.", "trace."),
    "query_mix": ("query.", "ops.", "trace."),
}


def parse(argv=None):
    ap = argparse.ArgumentParser(description="raycrawl benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(LAYERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy input sizes (self-test)")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="alter the expected answer; every op must then "
                         "count as failed (self-test)")
    return ap.parse_args(argv)


def init_ray(ncpu: int, temp_dir: str | None) -> None:
    import logging

    import ray
    import ray.data

    kw = {}
    if temp_dir is not None:
        kw["_temp_dir"] = temp_dir
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kw)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def warm_pool(ncpu: int) -> None:
    """Start one worker per declared CPU and have each import the program.
    Without it the first timed pass pays, task by task, for worker starts
    and imports that later passes do not, and its cost varies widely."""
    import ray

    @ray.remote
    def load() -> int:
        import raycrawl.crawler  # noqa: F401
        import raycrawl.ops  # noqa: F401
        time.sleep(0.5)  # keep the worker busy so each task gets its own
        return os.getpid()

    ray.get([load.remote() for _ in range(ncpu)])


def ray_temp_dir() -> str | None:
    """A session directory inside the checkout when its socket paths fit
    the 107-byte AF_UNIX limit (Ray appends ~70 bytes), else None (Ray's
    default)."""
    d = os.path.join(WORK, f"ray{os.getpid()}")
    return d if len(d) + 72 <= 107 else None


def typical(passes: list) -> float:
    return statistics.median(p.run_s for p in passes) if passes else 0.0


def median_p90(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    return (statistics.median(xs),
            statistics.quantiles(xs, n=10, method="inclusive")[-1])


def main(argv=None) -> int:
    a = parse(argv)
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "raycrawl", "__init__.py"))
            and os.path.isfile(bench_file)):
        print(f"perfbench: {ROOT} is not a raycrawl checkout "
              "(raycrawl/ or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    with open(bench_file) as f:
        bench = json.load(f)
    # Ray workers start from the raylet's environment: put the checkout on
    # their import path so they can import raycrawl from any directory
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    import ray

    import raycrawl.crawler  # noqa: F401  (program import: part of set-up)
    import raycrawl.ops  # noqa: F401
    import reap
    import sysinfo
    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - T_START
    reap.adopt_orphans()
    # a SIGTERM (a caller's time-out) unwinds through the finally below,
    # so Ray is shut down and every child process waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    temp_dir = ray_temp_dir()
    ncpu = len(os.sched_getaffinity(0))
    wl = workloads.make(a.workload, WORK, toy=a.toy)
    tracer = Tracer(T_START) if a.trace else None
    setup: list[float] = []
    passes: list = []
    raised = 0
    replayed: dict = {}
    try:
        for i in range(SETUP_CYCLES):
            if i:
                ray.shutdown()
                reap.end_all()
            t = time.perf_counter()
            init_ray(ncpu, temp_dir)
            t_init = time.perf_counter() - t
            warm_pool(ncpu)
            t_pool = time.perf_counter() - t
            wl.warmup(run_dir)
            setup.append(time.perf_counter() - t)
            print(f"# setup cycle {i}: ray.init {t_init:.2f} s, worker pool "
                  f"{t_pool - t_init:.2f} s, warm-up {setup[-1] - t_pool:.2f} s",
                  flush=True)
            if tracer is not None:
                tracer.span("setup.cycle", t, t + setup[-1], None, -1)
        facts = sysinfo.host_facts(ncpu, a.seed)
        print("# host " + json.dumps(facts), flush=True)
        print(f"# imports {import_s:.2f} s", flush=True)
        t = time.perf_counter()
        wl.prepare(a.seed, corrupt=a.corrupt_oracle)
        print(f"# oracle ready in {time.perf_counter() - t:.2f} s", flush=True)
        # passes run back to back; another starts while at least half of a
        # typical pass still fits in the window
        deadline = time.perf_counter() + a.seconds
        ticks = sysinfo.cpu_ticks()
        i = 0
        while i < max(wl.min_passes, 2 if a.trace else 1) or (
                time.perf_counter() + 0.5 * typical(passes) < deadline
                and time.perf_counter() - T_START < MAX_RUN_S):
            traced = bool(a.trace) and i % 2 == 1
            out_dir = os.path.join(run_dir, f"pass{i}")
            try:
                p = wl.run_pass(a.seed, out_dir, i,
                                tracer if traced else None)
            except Exception:  # one failed op; the run goes on
                traceback.print_exc()
                raised += 1
            else:
                passes.append(p)
                print(f"# pass {i}{' traced' if traced else ''}: "
                      f"run_s={p.run_s:.3f} cpu_s={p.cpu_s:.2f} "
                      f"items={p.items} failed={p.failed}/{p.attempted}",
                      flush=True)
            keep = getattr(wl, "last_traced_out", None)
            for d in os.listdir(run_dir):
                if d.startswith("pass") and os.path.join(run_dir, d) != keep:
                    shutil.rmtree(os.path.join(run_dir, d))
            i += 1
        # the share of this VM's CPU time its host gave to others while the
        # passes ran; query_mix slows several times as much as this share
        print(f"# host steal during passes: "
              f"{100 * sysinfo.steal_share(ticks):.1f} %", flush=True)
        if a.trace:
            replayed = wl.replay(a.seed, run_dir)
    finally:
        try:
            ray.shutdown()
        finally:
            reap.end_all()
        shutil.rmtree(run_dir, ignore_errors=True)
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes) + raised
    failed = sum(p.failed for p in passes) + raised
    plain = [p for p in passes if not p.traced]
    e2e: dict[str, list[float]] = {"setup_s": [import_s + s for s in setup]}
    if plain:
        e2e["run_s"] = [p.run_s for p in plain]
        e2e["items_per_s"] = [p.items / p.run_s for p in plain]
        e2e["cpu_s"] = [p.cpu_s for p in plain]
        e2e["driver_peak_rss_mb"] = [p.rss_mb for p in plain]
    print(f"# failed_frac={failed / max(1, attempted):.4f} "
          f"({failed} of {attempted} ops)", flush=True)
    values: dict[str, float] = {}
    for name, xs in e2e.items():
        med, p90 = median_p90(xs)
        values[name] = med
        print(f"# {name}: median={med:.4f} p90={p90:.4f} n={len(xs)}",
              flush=True)

    if a.trace:
        values = per_layer(a.workload, passes, replayed, bench)
        path = os.path.join(WORK, "traces",
                            f"{a.workload}-seed{a.seed}-{os.getpid()}.json")
        tracer.dump(path, {"workload": a.workload, "seed": a.seed,
                           "host": facts, "setup_s": setup})
        print(f"# spans written to {os.path.relpath(path, ROOT)}", flush=True)
    section = bench["per_layer"] if a.trace else bench["end_to_end"]
    metrics = {}
    for m in section:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            print(f"# metric {m['name']} absent", flush=True)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def per_layer(workload: str, passes: list, replayed: dict,
              bench: dict) -> dict[str, float]:
    """Medians over the traced passes, the replay's readings, the tracing
    overhead, and 0 for every layer this workload does not exercise."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    values: dict[str, float] = {}
    for name in {k for p in traced for k in p.layers}:
        xs = [p.layers[name] for p in traced if name in p.layers]
        values[name] = statistics.median(xs)
    values.update(replayed)
    if traced and plain:
        values["trace.overhead_ms"] = 1e3 * (
            statistics.median(p.run_s for p in traced)
            - statistics.median(p.run_s for p in plain))
    for m in bench["per_layer"]:
        if not m["name"].startswith(LAYERS[workload]):
            values.setdefault(m["name"], 0)
    for k in sorted(set(values) - {m["name"] for m in bench["per_layer"]}):
        print(f"# {k}: {values[k]:.4f} (not in BENCHMARK.json)", flush=True)
    return values


if __name__ == "__main__":
    sys.exit(main())
