"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload e7-session --seed 1 --seconds 12 --trace 0

Run from the repository root: the program is imported from ``src/``.
Every workload runs in fresh worker processes (``worker.py``), one run
of the workload each:

- ``--trace 0``: three untraced processes, each with one cold set-up
  (``setup_s`` is their median) and several repeats of the run.
  Every repeat asks the same questions in the same order, so their
  steps line up; each step's time is the fastest of its repeats
  (``stats.stepwise_min``), divided by the host factor
  (``stats.host_factor``: how slow the host's fast moments ran a probe
  loop timed between the steps).
- ``--trace 1``: one untraced and one traced process, under different
  ``PYTHONHASHSEED`` values. The per-layer metrics come from the traced
  process, and ``trace.overhead_ratio`` compares their cost per
  question.

All processes of a run must agree on the workload's inputs,
fingerprints and deterministic outputs, and these must match
``expected.json`` when it holds the seed. The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before
it give each metric with its unit and sample count. The exit code is 1
when an output check fails, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import expected
import hostprobe
import stats
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
#: Per workload: measured processes, the fewest repeats per process, and
#: the nominal seconds of one repeat. A run measures at least ``--seconds``:
#: more seconds buy more repeats per process. Repeats are forked children
#: of the set-up process; ``serve-durable``'s are copies of its sessions
#: in the process's one server. ``kb-50k-closed`` is not in
#: ``BENCHMARK.json`` (see README.md) but runs the same way.
PLAN = {
    "e7-session": (3, 2, 6.0),
    "dispatch-sharded-100k": (3, 2, 2.5),
    "serve-durable": (3, 3, 1.5),
    "kb-50k-closed": (3, 2, 1.5),
}
WORKLOADS = tuple(PLAN)
MAX_REPEATS = 8
#: A run must end within this many seconds, children included.
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


class Run:
    def __init__(self, args, root: Path) -> None:
        self.args = args
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        self.scratch = root / ".perfbench_out" / f"run-{os.getpid()}"
        self.spawned = 0
        self.serve_args: list[str] = []
        self.process: subprocess.Popen | None = None

    def stop(self, signum, _frame) -> None:
        """Signal handler: take the running worker (and its server) down too."""
        if self.process is not None and self.process.poll() is None:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait()
        raise SystemExit(128 + signum)

    def plan(self) -> tuple[int, int]:
        """(processes, repeats per process) of a measured run."""
        processes, repeats, repeat_s = PLAN[self.args.workload]
        wanted = math.ceil(self.args.seconds / (processes * repeat_s))
        return processes, min(MAX_REPEATS, max(repeats, wanted))

    def reference(self) -> list[str]:
        """``serve-durable``: compute the reference transcripts once, before any timing."""
        if self.args.workload != "serve-durable":
            return []
        path = self.scratch / "reference.pickle"
        report = self.spawn("reference", 1, ["--reference", str(path)])
        self.serve_args = ["--reference", str(path)]
        return report["fingerprints"]

    def spawn(self, mode: str, hashseed: int, extra: list[str] = ()) -> dict:
        """Run one worker process to completion; returns its JSON report."""
        self.spawned += 1
        out_dir = self.scratch / f"{self.spawned}-{mode}"
        out_dir.mkdir(parents=True)
        if mode != "reference":
            extra = [*self.serve_args, *extra]
        src = str(self.root / "src")
        # Single-threaded numeric libraries: a worker forks its repeats, and a
        # process with idle BLAS threads is not safe to fork.
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        started = time.monotonic()
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--mode", mode,
            "--spawned-at", repr(started),
            "--out-dir", str(out_dir),
            *extra,
        ]
        # A session of its own, so a timeout can stop the worker's server too.
        process = self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, cwd=self.root, start_new_session=True
        )
        try:
            out, _ = process.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise WorkerFailed(f"{mode} worker ran past the {DEADLINE_S:.0f} s deadline")
        if process.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited with code {process.returncode}")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise WorkerFailed(f"{mode} worker printed no report")
        report = json.loads(lines[-1])
        for spans in ("trace.json", "server-spans.json"):
            if (out_dir / spans).exists():
                keep = self.root / ".perfbench_out" / f"{self.args.workload}-{spans}"
                (out_dir / spans).replace(keep)
        return report

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _check_agreement(reports: list[dict], book: stats.FailureBook) -> None:
    """All processes and repeats of a seed must agree on inputs and outputs."""
    inputs = {r["inputs_fp"] for r in reports}
    if len(inputs) != 1:
        book.fail("processes of one seed built different inputs")
    first = reports[0]
    for r in reports[1:]:
        if r["fingerprints"] != first["fingerprints"]:
            book.fail("processes of one seed ended on different fingerprints")
        if r["quality"] != first["quality"]:
            book.fail(
                f"deterministic outputs differ between processes: "
                f"{r['quality']} vs {first['quality']}"
            )
    steps = {len(rep["steps"]) for r in reports for rep in r["repeats"]}
    if len(steps) != 1 or any(r["questions"] != first["questions"] for r in reports):
        book.fail("repeats of one seed ran different numbers of steps")


def _book(reports: list[dict]) -> stats.FailureBook:
    book = stats.FailureBook()
    for r in reports:
        part = stats.FailureBook()
        part.attempted, part.failed, part.reasons = r["attempted"], r["failed"], r["reasons"]
        book.merge(part)
    return book


def _checked(run: Run, reports: list[dict], reference: list[str]) -> stats.FailureBook:
    book = _book(reports)
    _check_agreement(reports, book)
    if reference and reports[0]["fingerprints"] != reference:
        book.fail("served sessions did not end on the reference fingerprints")
    expected.check(run.args.workload, run.args.seed, reports[0], book)
    return book


def _runs(process: dict) -> list[dict]:
    return [dict(r, inputs_fp=process["inputs_fp"]) for r in process["runs"]]


def end_to_end(run: Run):
    reference = run.reference()
    processes, forks = run.plan()
    # One hash seed for all: every repeat then iterates its sets in the
    # same order and does the same work at each step.
    spawned = [
        run.spawn("measure", 1, ["--forks", str(forks)] + (["--open-loop"] if k == 0 else []))
        for k in range(processes)
    ]
    reports = [r for process in spawned for r in _runs(process)]
    book = _checked(run, reports, reference)
    # Repeats that ran a different number of steps failed a check above.
    n = len(reports[0]["repeats"][0]["steps"])
    repeats = [rep for r in reports for rep in r["repeats"] if len(rep["steps"]) == n]
    fastest = stats.stepwise_min(rep["steps"] for rep in repeats)
    factor = stats.host_factor(
        [x for rep in repeats for x in rep["samples"]], hostprobe.REFERENCE_S
    )
    steps = [t / factor for t in fastest]
    tail = stats.tail_percentile(n)
    of = f"{len(repeats)} repeats x {n} steps"
    values = {
        "setup_s": (stats.median(p["setup_s"] for p in spawned), f"median of n={len(spawned)}"),
        "throughput_qps": (reports[0]["questions"] / sum(steps), of),
        "step_p50_ms": (1e3 * stats.percentile(steps, 50), of),
        "step_tail_ms": (1e3 * stats.percentile(steps, tail), f"p{tail:g}, {of}"),
        "peak_rss_mb": (stats.median(r["rss_mb"] for r in reports), f"median of n={len(reports)}"),
        "success_ratio": (book.success_ratio, f"n={book.attempted}"),
    }
    host = {
        "factor": factor,
        "samples": sum(len(rep["samples"]) for rep in repeats),
        "unscaled": [
            reports[0]["questions"] / sum(fastest),
            1e3 * stats.percentile(fastest, 50),
            1e3 * stats.percentile(fastest, tail),
        ],
    }
    return values, book, dict(reports[0], host=host)


def per_layer(run: Run):
    reference = run.reference()
    (plain,) = _runs(run.spawn("measure", 1, ["--open-loop"]))
    (traced,) = _runs(run.spawn("trace", 2, ["--open-loop"]))
    book = _checked(run, [plain, traced], reference)
    layers = dict.fromkeys(PER_LAYER, 0.0)
    unknown = set(traced["layers"]) - set(PER_LAYER)
    if unknown:
        raise WorkerFailed(f"unlisted per-layer metrics {sorted(unknown)}")
    layers.update(traced["layers"])
    layers["trace.overhead_ratio"] = traced["cost"] / plain["cost"]
    values = {name: (value, None) for name, value in layers.items()}
    return values, book, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2

    run = Run(args, root)
    signal.signal(signal.SIGTERM, run.stop)
    signal.signal(signal.SIGINT, run.stop)
    try:
        values, book, report = (per_layer if args.trace else end_to_end)(run)
    except (WorkerFailed, KeyError, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        run.cleanup()

    units = PER_LAYER if args.trace else END_TO_END
    print(f"== {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, note) in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]:6s}" + ("" if note is None else f" ({note})"))
    if "host" in report:
        host = report["host"]
        qps, p50, tail_ms = host["unscaled"]
        print(f"host factor {host['factor']:.4f}: p{stats.FAST_Q} of {host['samples']} probe "
              f"samples over {1e3 * hostprobe.REFERENCE_S:g} ms; the step times above are divided by it")
        print(f"unscaled step-wise fastest: throughput_qps {qps:.6g}, step_p50_ms {p50:.6g}, "
              f"step_tail_ms {tail_ms:.6g}")
    for name, value in sorted(report.get("quality", {}).items()):
        print(f"{name:32s} {value:14.6g} (deterministic for the seed)")
    if "capacity_qps" in report:
        print(
            f"{'capacity_qps':32s} {report['capacity_qps']:14.6g} q/s    "
            f"(highest offered rate with due-time tail latency <= "
            f"{1e3 * report['latency_limit_s']:g} ms and no growing backlog)"
        )
    for level in report.get("levels", []):
        print(
            f"offered {level['rate']:5.0f}/s: exchange from due time p50 {level['p50_ms']:.3f} ms, "
            f"p{level['tail_q']:g} {level['tail_ms']:.3f} ms (n={level['n']}), "
            f"{'meets' if level['passes'] else 'misses'} the limit"
        )
    for reason in book.reasons:
        print(f"FAILED: {reason}")
    correct = book.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": book.attempted,
                "failed": book.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, (value, _n) in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
