"""Benchmark child process; runs with PYTHONPATH pointing at the checkout's src.

    worker.py setup CONFIG        time import + load_config + make_grid + make_spec
    worker.py serve SPEC          after one discarded cycle, time one warm cycle
                                  of cli.main calls per "cycle" line on stdin,
                                  until end of input
    worker.py trace SPEC RESULT   alternate untraced and traced cycles

SPEC is a JSON file written by run_bench.py. Answers and RESULT are JSON;
the CLI's own printing goes to stderr.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path


def _setup(config: str) -> None:
    start = time.perf_counter()
    from helmlab.cli import load_config, make_grid, make_spec

    cfg = load_config(config)
    make_spec(cfg, make_grid(cfg))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


class _Cycles:
    """Runs the workload's commands in this process, one cycle at a time."""

    def __init__(self, spec: dict):
        from helmlab import cli
        from workloads import WORKLOADS

        self.cli = cli
        self.spec = spec
        self.workload = WORKLOADS[spec["workload"]]
        self.out = Path(spec["out"])
        self.attempted = 0
        self.failures: list[str] = []

    def run(self) -> tuple[list[float], int]:
        """One pass over the commands; returns per-call seconds and output bytes."""
        times = []
        written = 0
        for command in self.workload.commands:
            shutil.rmtree(self.out, ignore_errors=True)
            argv = [command[0], "--config", self.spec["config"], "--out", str(self.out), *command[1:]]
            start = time.perf_counter()
            code = self.cli.main(argv)
            times.append(time.perf_counter() - start)
            self.attempted += 1
            problems = [f"exit code {code}"] if code != 0 else []
            problems += self.workload.check(command[0], self.out, self.spec["context"])
            if problems:
                self.failures.append(f"{command[0]}: {'; '.join(problems)}")
            # the manifest is left out: its wall_time_s changes length run to run
            written += sum(
                f.stat().st_size for f in self.out.iterdir() if f.is_file() and f.name != "run_manifest.json"
            )
        shutil.rmtree(self.out, ignore_errors=True)
        return times, written


def _more(done: int, spec: dict, start: float, deadline: float, last: float) -> bool:
    """Whether to start another cycle: until the budget and the minimum are met,
    but never one that would end past the hard limit."""
    now = time.perf_counter()
    if now + last > start + spec["limit"]:
        return False
    return done < spec["min_cycles"] or now < deadline


def _serve(spec: dict) -> None:
    """Time one cycle per line read from stdin, answering on the original stdout."""
    answer = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # what the CLI prints goes to the log, not into the answers
    cycles = _Cycles(spec)
    times = cycles.run()[0]  # discarded: first calls pay lazy imports and cold caches
    while True:
        answer.write(json.dumps({"times": times, "attempted": cycles.attempted, "failures": cycles.failures}) + "\n")
        answer.flush()
        if sys.stdin.readline().strip() != "cycle":
            return
        times = cycles.run()[0]


def _trace(spec: dict) -> dict:
    import helmlab
    from tracer import Tracer, summarize

    start = time.perf_counter()
    cycles = _Cycles(spec)
    tracer = Tracer()
    cycles.run()  # discarded
    deadline = time.perf_counter() + spec["seconds"]
    untraced, traced, summaries = [], [], []
    last = 2.0 * (time.perf_counter() - start)
    while _more(len(traced), spec, start, deadline, last):
        cycle_start = time.perf_counter()
        untraced.append(cycles.run()[0])
        tracer.reset()
        tracer.install()
        try:
            times, written = cycles.run()
        finally:
            tracer.uninstall()
        traced.append(times)
        summary = summarize(tracer.spans)
        summary["cli.output_bytes"] = written
        summaries.append(summary)
        last = time.perf_counter() - cycle_start
    return {
        "untraced": untraced,
        "traced": traced,
        "summaries": summaries,
        "exported_names": len(helmlab.__all__),
        "attempted": cycles.attempted,
        "failures": cycles.failures,
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        _setup(argv[1])
        return 0
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    if mode == "serve":
        _serve(spec)
    else:
        Path(argv[2]).write_text(json.dumps(_trace(spec)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
