"""One benchmark process: set a workload up once, run it, report one JSON line.

Started by ``run.py`` in a fresh interpreter, so its set-up is cold and
its peak RSS belongs to this workload alone. ``--spawned-at`` is the
parent's monotonic clock just before the spawn: an in-process set-up
counts from there until the first question could be asked; a
``serve-durable`` set-up counts from spawning the server until it
printed its ready line and all its sessions exist.

Modes:

- ``measure``: untraced runs. With ``--forks K`` the process sets up
  once and runs the workload in K forked children, one after another,
  each from the same set-up state: K repeats for one set-up's cost.
  ``serve-durable`` instead runs once, with K copies of its sessions in
  the one server, each copy one repeat of the closed loop.
  Each repeat's report carries every step's time and the host-speed
  samples taken between steps (``hostprobe.sample``).
- ``trace``: a run with spans around the program's public seams,
  written to ``--out-dir``.
- ``reference`` (``serve-durable`` only): compute the sessions'
  synchronous reference transcripts and pickle them to
  ``--reference``, before any measured process starts.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import traceback
from pathlib import Path
from time import monotonic


def _serve(args, traced: bool):
    from serveload import ServeDurable, reference_transcripts

    if args.mode == "reference":
        references = reference_transcripts(args.seed)
        with open(args.reference, "wb") as fh:
            pickle.dump(references, fh)
        print(json.dumps({"fingerprints": [ref[2] for ref in references[1]]}), flush=True)
        return None, 0.0
    with open(args.reference, "rb") as fh:
        references = pickle.load(fh)
    # The generator and the server (which inherits this) share one CPU:
    # each hand-off of an exchange is then a context switch, not a wake-up
    # of an idle virtual CPU, whose latency the host sets.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = monotonic()
    workload = ServeDurable(
        references, traced, args.open_loop, args.out_dir, args.out_dir / "data"
    )
    setup_s = monotonic() - started
    workload.add_copies(args.forks)
    return workload, setup_s


def _report(workload, outcome) -> dict:
    """One run's JSON report."""
    rss_mb = outcome.rss_mb
    if rss_mb is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    repeats = [(outcome.steps, outcome.samples), *outcome.repeats]
    doc = dict(
        questions=outcome.questions,
        wall_s=outcome.wall_s,
        # Step time per question: leaves out host-speed samples between steps.
        cost=sum(outcome.steps) / max(1, outcome.questions),
        repeats=[{"steps": steps, "samples": samples} for steps, samples in repeats],
        fingerprints=outcome.fingerprints,
        quality=outcome.quality,
        attempted=outcome.checks.attempted,
        failed=outcome.checks.failed,
        reasons=outcome.checks.reasons,
        layers=outcome.layers,
        rss_mb=rss_mb,
    )
    if outcome.levels is not None:
        import stats

        doc["capacity_qps"] = workload.capacity_qps(outcome.levels)
        doc["latency_limit_s"] = workload.latency_limit_s
        doc["levels"] = [
            {
                "rate": level.rate,
                "n": len(level.latency),
                "p50_ms": 1e3 * stats.percentile(level.latency, 50),
                "tail_q": level.tail(),
                "tail_ms": 1e3 * stats.percentile(level.latency, level.tail()),
                "passes": level.passes(workload.latency_limit_s),
            }
            for level in outcome.levels
        ]
    return doc


def _forked_runs(workload, count: int) -> list[dict]:
    """Run ``workload`` in ``count`` forked children, one at a time.

    Each child starts from this process's set-up state, which no run
    ever changes here; a child's peak RSS includes that state.
    """
    reports = []
    for _ in range(count):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            code = 1
            try:
                with os.fdopen(write_fd, "w") as fh:
                    json.dump(_report(workload, workload.run(None)), fh)
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            data = fh.read()
        _pid, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"a forked run exited with status {status}")
        reports.append(json.loads(data))
    return reports


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "trace", "reference"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--forks", type=int, default=1,
                        help="measure: runs in forked children (1: run in this process); "
                             "serve-durable: copies of its sessions")
    parser.add_argument("--reference", type=Path, help="serve-durable transcripts file")
    parser.add_argument("--open-loop", action="store_true",
                        help="serve-durable: also run the open-loop levels")
    args = parser.parse_args()
    traced = args.mode == "trace"

    if args.workload == "serve-durable":
        workload, setup_s = _serve(args, traced)
        if workload is None:
            return 0
    else:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed)
        setup_s = monotonic() - args.spawned_at

    doc = {"setup_s": setup_s, "inputs_fp": workload.inputs_fingerprint()}
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        doc["runs"] = [_report(workload, workload.run(tracer))]
        tracer.dump(args.out_dir / "trace.json")
    elif args.forks > 1 and args.workload != "serve-durable":
        doc["runs"] = _forked_runs(workload, args.forks)
    else:
        doc["runs"] = [_report(workload, workload.run(None))]
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # Skip tearing down the set-up's objects (hundreds of MB): nothing is left to flush.
    os._exit(code)
