"""helmlab benchmark: drives the `helmlab` CLI as a user would.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; every child runs with PYTHONPATH=src.
One client, closed loop: one command at a time, each cold command in a
fresh Python process. With --trace 0 it prints the end-to-end metrics,
with --trace 1 the per-layer metrics of a separate traced run. Either
way the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See bench/README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from tracer import COUNTS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"

# The run must end within 180 s; no cycle starts that would end past this.
HARD_LIMIT_S = 150.0
SETUP_SAMPLES = 5
# The tail needs ten samples beyond it, so at least eleven cold processes.
MIN_COLD_PROCESSES = 11
MIN_WARM_CYCLES = 2
# Set-up samples and warm cycles are interleaved with the cold processes,
# each kept near its share of the time spent on cold processes, so that
# every metric samples the whole run.
SETUP_TO_COLD = 0.12
WARM_TO_COLD = 0.4
# Per-layer numbers carry no bound, so the traced run measures for less.
TRACE_SHARE = 0.5
IMPORTTIME_SAMPLES = 3


def child_env() -> dict[str, str]:
    """Environment of every child: src on the path, BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # an installed package runs from cached bytecode, so start-up is timed that way
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


class Run:
    """State of one benchmark run: work directory, child environment, outcome."""

    def __init__(self, workload, seed: int, seconds: int, work: Path):
        self.workload = workload
        self.seconds = seconds
        self.work = work
        self.env = child_env()
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []  # one entry per failed command
        self.problems: list[str] = []  # failed self-checks of the benchmark itself
        self.notes: dict[str, str] = {}
        text, self.context = workload.config(seed)
        self.config = work / "run.cfg"
        self.config.write_text(text, encoding="utf-8")
        self.log = open(work / "children.log", "ab")

    def close(self) -> str:
        """Close the children's log and return its tail."""
        self.log.close()
        return (self.work / "children.log").read_text(encoding="utf-8", errors="replace")[-2000:]

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def python(self, args: list[str], timeout: float) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )

    def spec(self, mode: str, seconds: float = 0.0) -> Path:
        """Write the JSON spec a worker reads."""
        path = self.work / f"{mode}.json"
        path.write_text(json.dumps({
            "workload": self.workload.name,
            "config": str(self.config),
            "context": self.context,
            "out": str(self.work / f"{mode}-out"),
            "seconds": seconds,
            "min_cycles": MIN_WARM_CYCLES,
            "limit": max(1.0, self.remaining() - 5.0),
        }), encoding="utf-8")
        return path

    # ------------------------------------------------------------ end to end

    def setup_once(self) -> float:
        proc = self.python([str(BENCH / "worker.py"), "setup", str(self.config)], self.remaining())
        if proc.returncode != 0:
            raise RuntimeError(f"setup worker failed: {proc.stderr.strip()[-500:]}")
        return json.loads(proc.stdout.splitlines()[-1])["setup_s"]

    def cold(self, command: tuple[str, ...]) -> tuple[float, float]:
        """One cold CLI process: wall seconds and max RSS in MB, from wait4."""
        out = self.work / "cold-out"
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, "-m", "helmlab.cli", command[0], "--config", str(self.config),
                "--out", str(out), *command[1:]]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=self.log, stderr=self.log)
        timer = threading.Timer(max(1.0, self.remaining()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        problems = [f"exit code {proc.returncode}"] if proc.returncode != 0 else []
        problems += self.workload.check(command[0], out, self.context)
        if problems:
            self.failures.append(f"cold {command[0]}: {'; '.join(problems)}")
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, usage.ru_maxrss / 1024.0

    def samples(self):
        """Set-up, cold and warm samples, interleaved over the whole run.

        Slow phases of a shared machine last tens of seconds; spreading
        every metric's samples over the run averages them alike.
        """
        commands = self.workload.commands
        setup: list[float] = []
        cold: list[list[tuple[float, float]]] = [[] for _ in commands]
        warm: list[list[float]] = []
        warm_s = cold_s = 0.0
        server = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "serve", str(self.spec("serve"))],
            env=self.env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        timer = threading.Timer(max(1.0, self.remaining()), server.kill)
        timer.start()

        def answer() -> dict:
            line = server.stdout.readline()
            if not line:
                raise RuntimeError("warm worker ended early")
            return json.loads(line)

        try:
            tally = answer()  # after the discarded cycle
            deadline = time.perf_counter() + self.seconds
            setup_s = last = 0.0
            while True:
                enough = (
                    sum(map(len, cold)) >= MIN_COLD_PROCESSES
                    and len(warm) >= MIN_WARM_CYCLES
                    and len(setup) >= SETUP_SAMPLES
                )
                # stop at the deadline, within half an iteration
                if enough and time.perf_counter() + 0.5 * last >= deadline:
                    break
                if last > self.remaining():
                    raise RuntimeError("the run would exceed its time limit")
                started = time.perf_counter()
                for i, command in enumerate(commands):
                    cold[i].append(self.cold(command))
                cold_s += time.perf_counter() - started
                late = time.perf_counter() >= deadline
                if setup_s < SETUP_TO_COLD * cold_s or (late and len(setup) < SETUP_SAMPLES):
                    setup.append(self.setup_once())
                    setup_s += setup[-1]
                if warm_s < WARM_TO_COLD * cold_s or (late and len(warm) < MIN_WARM_CYCLES):
                    server.stdin.write("cycle\n")
                    server.stdin.flush()
                    tally = answer()
                    warm.append(tally["times"])
                    warm_s += sum(warm[-1])
                last = time.perf_counter() - started
        except BaseException:
            server.kill()
            raise
        finally:
            server.stdin.close()  # the worker ends at end of input
            server.wait()
            timer.cancel()
        self.attempted += tally["attempted"]
        self.failures += [f"warm {f}" for f in tally["failures"]]
        return setup, cold, warm

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        setup, cold, warm = self.samples()
        medians = [statistics.median(t for t, _ in per) for per in cold]
        command_s = statistics.fmean(medians)
        # the two commands of a workload differ in length, so the tail is
        # taken on times relative to their command's median
        ratios = sorted(t / m for per, m in zip(cold, medians) for t, _ in per)
        n = len(ratios)
        rank = n - 11  # index of the highest sample with ten samples beyond it
        self.notes["command_s.tail"] = f"p{100.0 * (rank + 1) / n:.1f} of {n} cold processes"
        self.notes["run_s"] = f"{len(warm)} warm cycles after one discarded"
        self.notes["setup_s"] = f"median of {len(setup)}"
        return {
            "setup_s": (statistics.median(setup), "s"),
            "command_s": (command_s, "s"),
            "command_s.tail": (command_s * ratios[rank], "s"),
            "run_s": (statistics.fmean(statistics.median(c[i] for c in warm) for i in range(len(cold))), "s"),
            "peak_rss_mb": (max(statistics.median(r for _, r in per) for per in cold), "MB"),
        }

    # --------------------------------------------------------------- traced

    def import_seconds(self) -> tuple[float, float]:
        """Import time of helmlab.cli, and of scipy within it, from -X importtime.

        scipy loads ndimage lazily, so its cost is the cumulative time of
        every scipy entry whose importer is not itself a scipy module.
        """
        cli_s, scipy_s = [], []
        for _ in range(IMPORTTIME_SAMPLES):
            proc = self.python(["-X", "importtime", "-c", "import helmlab.cli"], self.remaining())
            if proc.returncode != 0:
                raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
            entries = []
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                    name = parts[2].rstrip()
                    depth = (len(name) - len(name.lstrip())) // 2
                    entries.append((depth, int(parts[1]) * 1e-6, name.strip()))
            # importtime prints a module after everything it imported
            ancestors: dict[int, str] = {}
            cli = scipy = 0.0
            for depth, cumulative, name in reversed(entries):
                ancestors[depth] = name
                if name == "helmlab.cli" and depth == 0:
                    cli = cumulative
                if name.split(".")[0] == "scipy" and ancestors.get(depth - 1, "").split(".")[0] != "scipy":
                    scipy += cumulative
            cli_s.append(cli)
            scipy_s.append(scipy)
        return statistics.median(cli_s), statistics.median(scipy_s)

    def per_layer(self) -> dict[str, tuple[float, str]]:
        cli_import, scipy_import = self.import_seconds()
        result = self.work / "trace-result.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "trace", str(self.spec("trace", TRACE_SHARE * self.seconds)),
             str(result)],
            env=self.env, cwd=ROOT, stdout=self.log, stderr=self.log, timeout=max(1.0, self.remaining() + 20.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"trace worker exited with {proc.returncode}")
        traced = json.loads(result.read_text(encoding="utf-8"))
        self.attempted += traced["attempted"]
        self.failures += [f"traced {f}" for f in traced["failures"]]
        summaries = traced["summaries"]
        counts = [{k: s[k] for k in COUNTS} for s in summaries]
        if any(c != counts[0] for c in counts):
            self.problems.append(f"exact counts differ between traced cycles: {counts}")

        def run_s(cycles):
            return statistics.fmean(
                statistics.median(c[i] for c in cycles) for i in range(len(self.workload.commands))
            )

        untraced_s = run_s(traced["untraced"])
        # each traced cycle follows an untraced one; pairing them keeps
        # the machine's slow phases out of the difference
        overhead = statistics.median(
            statistics.fmean(t) - statistics.fmean(u) for t, u in zip(traced["traced"], traced["untraced"])
        )
        metrics = {"cli.import_s": cli_import, "coefficients.import_s": scipy_import}
        for key in summaries[0]:
            # counts were checked equal above; times are medians over cycles
            metrics[key] = counts[0][key] if key in counts[0] else statistics.median(s[key] for s in summaries)
        metrics["counts.src_lines"] = sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "helmlab").glob("*.py"))
        )
        metrics["counts.exported_names"] = traced["exported_names"]
        metrics["trace.untraced_run_s"] = untraced_s
        metrics["trace.overhead_s"] = overhead
        self.notes["trace"] = f"{len(summaries)} traced cycles, each after an untraced one"
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return {m["name"]: (metrics[m["name"]], m["unit"]) for m in spec["per_layer"]}


def environment_line() -> str:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    env = child_env()
    return (
        f"environment: python {sys.version.split()[0]}, numpy {version('numpy')}, scipy {version('scipy')}, "
        f"nproc {len(os.sched_getaffinity(0))}, OPENBLAS/OMP threads {env['OPENBLAS_NUM_THREADS']}"
        f"/{env['OMP_NUM_THREADS']}"
    )


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the handlers that stop the children


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "helmlab" / "cli.py").is_file():
        print(f"no helmlab sources under {SRC}; run from the root of a helmlab checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = BENCH / ".work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(workload, args.seed, args.seconds, work)
    try:
        metrics = run.per_layer() if args.trace else run.end_to_end()
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"{run.close()}\nbenchmark aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    else:
        run.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there

    print(environment_line())
    print(f"workload {workload.name}, seed {args.seed}" + ("" if workload.uses_seed else " (ignored)")
          + f", trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = run.notes.get(name)
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for name, note in run.notes.items():
        if name not in metrics:
            print(f"{name}: {note}")
    failed = len(run.failures)
    print(f"failed_ratio = {failed / max(run.attempted, 1):.6g} ({failed} of {run.attempted} commands)")
    for failure in run.failures + run.problems:
        print(f"FAILED {failure}")
    result = {
        "correct": failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
