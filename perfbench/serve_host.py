"""Host ``repro serve`` with spans around its sessions and storage.

The traced ``serve-durable`` run starts this instead of
``python -m repro serve``. It builds the same ``SessionManager`` and
``MinerServer`` the CLI builds, and records spans around the public
seams only: each session's ``next_question`` / ``post_answer`` and, through
``SessionManager(storage_wrapper=...)``, every WAL append and
checkpoint write. On shutdown it writes the summary to ``--trace-out``
and the spans to ``server-spans.json`` beside it.

    python3 perfbench/serve_host.py --port 0 --data-dir DIR --trace-out FILE
"""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path

from repro.serve import MinerServer, SessionManager

from tracing import TracedStorage, Tracer
from workloads import kb_layers


def _traced_manager(data_dir: str, tracer: Tracer, storages: list) -> SessionManager:
    def wrap(backend):
        storage = TracedStorage(backend, tracer)
        storages.append(storage)
        return storage

    manager = SessionManager(data_dir=data_dir, storage_wrapper=wrap)
    create = manager.create

    def traced_create(doc):
        session = create(doc)
        fetch, post = session.next_question, session.post_answer

        def next_question(*args, **kwargs):
            tracer.request = session.session_id
            span = tracer.begin("serve.fetch")
            try:
                return fetch(*args, **kwargs)
            finally:
                tracer.end(span)

        def post_answer(question_id, *args, **kwargs):
            tracer.request = f"{session.session_id}/{question_id}"
            span = tracer.begin("serve.post")
            try:
                return post(question_id, *args, **kwargs)
            finally:
                tracer.end(span)

        session.next_question = next_question
        session.post_answer = post_answer
        return session

    manager.create = traced_create
    return manager


def layer_summary(tracer: Tracer, storages: list, manager: SessionManager) -> dict:
    summary = tracer.summary()

    def total(name, key="seconds"):
        return summary.get(name, {}).get(key, 0.0)

    sizes = [size for storage in storages for size in storage.checkpoint_bytes]
    layers = {
        "serve.fetch_handler_s": total("serve.fetch"),
        "serve.post_handler_s": total("serve.post"),
        "serve.self_s": total("serve.fetch", "self_seconds") + total("serve.post", "self_seconds"),
        "storage.append_calls": total("storage.append", "calls"),
        "storage.append_s": total("storage.append"),
        "storage.checkpoint_calls": total("storage.checkpoint", "calls"),
        "storage.checkpoint_s": total("storage.checkpoint"),
        "storage.checkpoint_bytes_mean": sum(sizes) / len(sizes) if sizes else 0.0,
    }
    layers.update(kb_layers(session.miner for session in manager.sessions.values()))
    return layers


async def _serve(args, tracer: Tracer, storages: list) -> SessionManager:
    manager = _traced_manager(args.data_dir, tracer, storages)
    server = MinerServer(manager, "127.0.0.1", args.port)
    await server.start()

    def ready(srv) -> None:
        print(f"serving on http://{srv.host}:{srv.port}", flush=True)

    await server.run(ready=ready)
    return manager


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()
    tracer = Tracer()
    storages: list = []
    manager = asyncio.run(_serve(args, tracer, storages))
    # Sessions were drained (final checkpoints written) before run() returned.
    tracer.dump(Path(args.trace_out).with_name("server-spans.json"))
    with open(args.trace_out, "w", encoding="utf-8") as fh:
        json.dump({"layers": layer_summary(tracer, storages, manager)}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
