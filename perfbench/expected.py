"""Committed outputs of every workload for the benchmark's seeds.

A run is correct only if it reproduces, for its seed, the session
fingerprints and the deterministic outputs (E7's ``f1``, dispatch's
``sim_makespan_s``) that this file's recording gave. A change that buys
speed with different answers or lower quality fails the run. Seeds the
file does not hold are checked across the run's own processes only.

Record (or extend) the file from the repository root:

    python3 perfbench/expected.py --seeds 0-31 [--workload e7-session ...]
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "expected.json"
#: Workloads that run the same sessions for every seed (see
#: ``workloads.E7Session``): recorded once, under the key ``"*"``.
UNSEEDED = {"e7-session"}


def digest(report: dict) -> dict:
    """What a run must reproduce: a hash of its fingerprints and its deterministic outputs."""
    prints = "\n".join(report["fingerprints"])
    return {"fingerprints": hashlib.sha256(prints.encode()).hexdigest(), **report["quality"]}


def load() -> dict:
    if not PATH.exists():
        return {}
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, seed: int, report: dict, book) -> None:
    """Fail ``book`` when ``report`` differs from the recorded outputs of ``seed``."""
    recorded = load().get(workload, {})
    want = recorded.get("*" if workload in UNSEEDED else str(seed))
    if want is None:
        print(f"note: {PATH.name} holds no outputs for {workload} seed {seed}; "
              f"checked across this run's processes only")
        return
    got = digest(report)
    if got != want:
        book.fail(f"outputs differ from {PATH.name} for seed {seed}: {got} vs {want}")


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    from run import WORKLOADS, Run

    parser = argparse.ArgumentParser(description="record expected.json")
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    for workload in args.workload or WORKLOADS:
        for seed in args.seeds[:1] if workload in UNSEEDED else args.seeds:
            run = Run(argparse.Namespace(workload=workload, seed=seed, seconds=1.0), Path.cwd())
            try:
                if workload == "serve-durable":
                    # The served sessions must end on these (run.py checks it).
                    report = {"fingerprints": run.reference(), "quality": {}}
                else:
                    report = run.spawn("measure", 1)["runs"][0]
            finally:
                run.cleanup()
            key = "*" if workload in UNSEEDED else str(seed)
            _store(workload, key, digest(report))
    return 0


def _store(workload: str, key: str, outputs: dict) -> None:
    """Add one entry to the file; recorders may run side by side."""
    lock_path = Path.cwd() / ".perfbench_out" / "expected.lock"
    lock_path.parent.mkdir(exist_ok=True)
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        doc = load()
        doc.setdefault(workload, {})[key] = outputs
        with open(PATH, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(workload, key, outputs, flush=True)


if __name__ == "__main__":
    sys.exit(main())
