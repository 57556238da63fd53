#!/usr/bin/env python3
"""Self-test of the benchmark at toy input sizes (about five minutes).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:

* with a corrupted oracle answer, ``--trace 0`` prints every end-to-end
  metric with its unit and counts failed ops (failed_frac > 0);
* a normal ``--trace 1`` run prints every per-layer metric, fails no op,
  and for every traced crawl pass the startup, epoch and teardown spans
  sum to the pass's run_s;
* no Ray or Python process started by a run is left once it has exited;

and that the harness exits non-zero without a result line in a directory
holding only BENCHMARK.json and perfbench/. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, *args: str) -> tuple[int, list[str], list[int]]:
    """Exit code and stdout lines of one harness run, and the Ray or Python
    processes that appeared during it and are still there (even as
    zombies) when it has exited."""
    before = _ray_processes()
    p = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                       capture_output=True, text=True, timeout=300)
    left = sorted(_ray_processes() - before)
    return p.returncode, p.stdout.strip().splitlines(), left


def _ray_processes() -> set[int]:
    out = set()
    for ent in os.listdir("/proc"):
        if not ent.isdigit() or int(ent) == os.getpid():
            continue
        try:
            with open(f"/proc/{ent}/stat") as f:
                raw = f.read()
        except OSError:
            continue
        comm = raw[raw.index("(") + 1:raw.rindex(")")]
        if comm.startswith(("ray", "python", "gcs_server")):
            out.add(int(ent))
    return out


def result(lines: list[str]) -> dict:
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for w in (x["name"] for x in bench["workloads"]):
        base = ("--workload", w, "--seed", "1", "--seconds", "1", "--toy")
        code, lines, left = run(ROOT, *base, "--trace", "0",
                                "--corrupt-oracle")
        check(not left, f"{w}: no process outlives the run ({left})")
        r = result(lines)
        got = r.get("metrics", {})
        check(code == 0 and bool(r), f"{w}: corrupted-oracle run prints a "
              "result")
        for m in bench["end_to_end"]:
            check(got.get(m["name"], {}).get("unit") == m["unit"],
                  f"{w}: end-to-end {m['name']} [{m['unit']}] printed")
        check(r.get("failed", 0) > 0 and r.get("correct") is False,
              f"{w}: corrupted oracle gives failed_frac > 0 "
              f"({r.get('failed')}/{r.get('attempted')})")

        code, lines, left = run(ROOT, *base, "--trace", "1")
        check(not left, f"{w}: no process outlives the traced run ({left})")
        r = result(lines)
        got = r.get("metrics", {})
        check(code == 0 and r.get("correct") is True and r.get("failed") == 0,
              f"{w}: traced run passes its output checks")
        missing = [m["name"] for m in bench["per_layer"]
                   if got.get(m["name"], {}).get("unit") != m["unit"]]
        check(not missing, f"{w}: every per-layer metric printed "
              f"(missing: {missing})")
        spans_line = [x for x in lines if x.startswith("# spans written to ")]
        check(bool(spans_line), f"{w}: spans written")
        if spans_line:
            check_spans(os.path.join(ROOT, spans_line[-1].split()[-1]), w,
                        check)

    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    w = bench["workloads"][0]["name"]
    code, lines, _ = run(bare, "--workload", w, "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not result(lines),
          "bare directory (BENCHMARK.json + perfbench/ only): non-zero exit, "
          "no result")

    print(f"\n{'FAILED: ' + str(len(problems)) if problems else 'all passed'}")
    return 1 if problems else 0


def check_spans(path: str, workload: str, check) -> None:
    with open(path) as f:
        spans = json.load(f)["spans"]
    passes = [s for s in spans if s["name"] == "crawl.pass"]
    if not workload.startswith("crawl"):
        check(any(s["name"] == "query.pass" for s in spans),
              f"{workload}: query pass spans recorded")
        return
    check(bool(passes), f"{workload}: crawl pass spans recorded")
    for p in passes:
        kids = [s for s in spans if s["parent"] == p["id"]]
        total = sum(s["end"] - s["start"] for s in kids)
        run_s = p["end"] - p["start"]
        check(abs(total - run_s) < 1e-6 and kids[0]["name"] == "crawl.startup"
              and kids[-1]["name"] == "crawl.teardown",
              f"{workload}: pass {p['pass']} startup+epoch+teardown spans "
              f"sum to run_s ({total:.6f} vs {run_s:.6f} s)")


if __name__ == "__main__":
    sys.exit(main())
