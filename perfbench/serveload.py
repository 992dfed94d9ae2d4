"""The ``serve-durable`` workload: a load generator driving a durable server.

``repro serve --data-dir`` runs in its own process (the traced run hosts
the same server through ``serve_host.py`` instead). Before any timing,
the generator computes each scenario's synchronous reference transcript
— every question the sync session asks and the answer its simulated
crowd gives — so serving a question costs the generator a dictionary
lookup, not a crowd simulation. Each served question must match the
reference (member, kind, rule) and each session must end on the
reference fingerprint.

A run has two phases, over questions 1–64 and 65–114 of each of the
16 sessions:

- **closed loop** (measured): one keep-alive connection sends the 1,024
  exchanges (one fetch plus one answer post) back to back, round robin
  over the sessions. Each exchange's time is a step; the rate they go
  through at is the server's throughput. Every repeat of a seed sends
  the same exchanges in the same order to sessions in the same state, so
  repeats compare step for step. A server can hold several copies of
  the 16 sessions (:meth:`ServeDurable.add_copies`): each copy is one
  more repeat of the closed loop for one server start-up. Copies after
  the first stop after the closed loop.
- **open loop** (one repeat per run): workers are independent users, so
  exchange ``k`` of a level is due at ``k / rate`` seconds whether or
  not earlier ones have finished, over two connections. Latency counts
  from when an exchange was due, so a stall also charges the exchanges
  queued behind it. Questions 65–89 of the first copy go at 200
  exchanges per second, 90–114 at 400. Other repeats finish the first
  copy in a closed loop.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from time import monotonic, perf_counter

from repro.miner import CrowdMiner
from repro.serve import Scenario, answer_to_doc
from repro.serve.http import JsonClient
from repro.storage.records import rule_key

import hostprobe
import stats
from workloads import Outcome, stream

HERE = Path(__file__).resolve().parent


class _RecordingCrowd:
    """Forwards to a crowd and records every answer it gives, in order."""

    def __init__(self, crowd) -> None:
        self._crowd = crowd
        self.transcript: list[tuple[str, str, str | None, dict]] = []

    def ask_closed(self, member_id, rule):
        answer = self._crowd.ask_closed(member_id, rule)
        self.transcript.append((member_id, "closed", rule_key(rule), answer_to_doc(answer)))
        return answer

    def ask_open(self, member_id, *args, **kwargs):
        answer = self._crowd.ask_open(member_id, *args, **kwargs)
        self.transcript.append((member_id, "open", None, answer_to_doc(answer)))
        return answer

    def __len__(self) -> int:
        return len(self._crowd)

    def __getattr__(self, name):
        return getattr(self._crowd, name)


def reference_transcript(scenario: Scenario):
    """``run_sync(scenario)`` with its crowd's answers recorded.

    Returns (member ids, transcript, fingerprint).
    """
    crowd = scenario.build_crowd()
    member_ids = list(crowd.member_ids)
    recorder = _RecordingCrowd(crowd)
    result = CrowdMiner(recorder, scenario.miner_config()).run()
    return member_ids, recorder.transcript, result.fingerprint()


class _Phase:
    """Measurements of one phase: the closed loop, or one open-loop rate."""

    def __init__(self, rate: float | None = None) -> None:
        self.rate = rate  #: offered exchanges per second; None for the closed loop
        self.service: list[float] = []  #: exchange end minus start
        self.samples: list[float] = []  #: host-speed samples between exchanges (closed loop)
        self.latency: list[float] = []  #: exchange end minus due time (open loop)
        self.lateness: list[float] = []  #: exchange start minus due time (open loop)
        self.lag: list[float] = []  #: start minus when the generator was free to send
        self.fetch: list[float] = []
        self.post: list[float] = []
        self.bytes = 0  #: JSON body bytes sent and received
        self.counted = 0
        self.elapsed = 0.0
        self.checks = stats.FailureBook()

    def tail(self) -> float:
        return stats.tail_percentile(len(self.latency))

    def passes(self, limit_s: float) -> bool:
        """Tail latency within the limit and no backlog left growing at the end."""
        if self.checks.failed:
            return False
        tail = self.lateness[-max(1, len(self.lateness) // 10):]
        return (
            stats.percentile(self.latency, self.tail()) <= limit_s
            and sum(tail) / len(tail) <= limit_s / 4
        )


def scenarios(seed: int) -> list[Scenario]:
    """bench_serve's 16 full-scale worlds, 114 questions per session.

    The seed moves their crowds and miners.
    """
    return [
        Scenario(
            n_members=10,
            transactions_per_member=60,
            budget=ServeDurable.budget,
            model_seed=100 + i,
            crowd_seed=stream(200 + i, seed),
            miner_seed=stream(300 + i, seed),
        )
        for i in range(ServeDurable.n_sessions)
    ]


def reference_transcripts(seed: int):
    """(scenarios, their reference transcripts), two processes at a time."""
    worlds = scenarios(seed)
    pool = multiprocessing.get_context("spawn").Pool(2)
    try:
        references = pool.map(reference_transcript, worlds)
    finally:
        pool.close()
        pool.join()
    return worlds, references


class ServeDurable:
    """16 durable sessions served over HTTP: a closed loop, then fixed rates."""

    name = "serve-durable"
    n_sessions = 16
    #: Questions 1-64 of every session: the measured closed loop.
    closed_steps = 64
    #: Offered exchange rates of the open loop, ascending; each level
    #: serves the next 25 questions of all 16 sessions (400 exchanges),
    #: and the sessions finish in the last one.
    rates = (200.0, 400.0)
    level_steps = 25
    budget = closed_steps + level_steps * len(rates)
    connections = 2  #: of the open loop
    latency_limit_s = 0.050
    request_timeout_s = 10.0
    sample_every = 8  #: closed-loop exchanges between host-speed samples (untraced runs)

    def __init__(self, references, traced: bool, open_loop: bool, out_dir: Path,
                 data_dir: Path) -> None:
        """Start the server and create every session: the timed set-up.

        ``references`` comes from :func:`reference_transcripts`, computed
        before any set-up is timed.
        """
        self.scenarios, self.references = references
        self.traced = traced
        self.open_loop = open_loop
        self.tracer = None  #: the generator's own spans (http.fetch, http.post), traced runs only
        self.data_dir = data_dir
        self.trace_path = out_dir / "server-trace.json"
        self.copies = 1
        self.process, self.port = self._spawn_server()
        try:
            asyncio.run(self._create_sessions(0))
        except BaseException:
            self.close()
            raise

    def add_copies(self, copies: int) -> None:
        """Create copies 1 .. ``copies - 1`` of the 16 sessions, after the timed set-up."""
        try:
            for copy in range(self.copies, copies):
                asyncio.run(self._create_sessions(copy))
        except BaseException:
            self.close()
            raise
        self.copies = max(self.copies, copies)

    def inputs_fingerprint(self) -> str:
        return repr([
            (s.model_seed, s.crowd_seed, s.miner_seed, fingerprint)
            for s, (_members, _transcript, fingerprint) in zip(self.scenarios, self.references)
        ])

    # -- server process --------------------------------------------------------

    def _spawn_server(self):
        if self.traced:
            command = [sys.executable, str(HERE / "serve_host.py"), "--trace-out",
                       str(self.trace_path)]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        command += ["--port", "0", "--data-dir", str(self.data_dir)]
        process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = process.stdout.readline()
        if not line.startswith("serving on http://"):
            process.kill()
            process.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        return process, int(line.rsplit(":", 1)[1])

    def close(self) -> int | None:
        """Stop the server gracefully; returns its peak RSS in kB (None if killed)."""
        process = self.process
        if process is None:
            return None
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            _pid, status, usage = _wait4(process, 60.0)
        except TimeoutError:
            process.kill()
            process.wait()
            return None
        process.returncode = os.waitstatus_to_exitcode(status)
        process.stdout.close()
        return usage.ru_maxrss

    @staticmethod
    def _session_id(i: int, copy: int) -> str:
        return f"c{copy}s{i}"

    def _client(self) -> JsonClient:
        return JsonClient("127.0.0.1", self.port)

    async def _request(self, client: JsonClient, method: str, path: str, doc=None):
        """``client.request`` with a deadline; returns ``(status, body)``."""
        return await asyncio.wait_for(client.request(method, path, doc), self.request_timeout_s)

    async def _create_sessions(self, copy: int) -> None:
        client = self._client()
        try:
            for i, scenario in enumerate(self.scenarios):
                members = self.references[i][0]
                spec = scenario.session_spec(members, id=self._session_id(i, copy))
                status, doc = await self._request(client, "POST", "/v1/sessions", spec)
                if status != 201:
                    raise RuntimeError(f"session create failed: {status} {doc!r}")
        finally:
            await client.aclose()

    # -- the measured run ------------------------------------------------------

    def run(self, tracer=None) -> Outcome:
        """Drive every copy's closed loop, then finish the first copy.

        The outcome's steps are the first copy's closed loop; each other
        copy's closed loop is one of its ``repeats``.
        """
        outcome = Outcome()
        self.tracer = tracer
        try:
            closed, rest = asyncio.run(self._drive())
            self._check_results(outcome)
        finally:
            rss_kb = self.close()
        phases = closed + rest
        for phase in phases:
            outcome.checks.merge(phase.checks)
        if rss_kb is None:
            outcome.checks.fail("the server did not shut down within 60 s")
        outcome.rss_mb = (rss_kb or 0) / 1024
        outcome.steps = closed[0].service
        outcome.samples = closed[0].samples
        outcome.repeats = [(phase.service, phase.samples) for phase in closed[1:]]
        outcome.questions = closed[0].counted
        outcome.wall_s = closed[0].elapsed
        if self.open_loop:
            outcome.levels = rest
        if self.traced:
            outcome.layers.update(self._layers(phases))
        return outcome

    def capacity_qps(self, levels) -> float:
        """The highest offered rate that met the latency limit (0 if none did)."""
        passing = [lv.rate for lv in levels if lv.passes(self.latency_limit_s)]
        return passing[-1] if passing else 0.0

    async def _drive(self) -> tuple[list[_Phase], list[_Phase]]:
        """(each copy's closed loop, the phases that finish the first copy)."""
        closed = []
        every = 0 if self.traced else self.sample_every
        for copy in range(self.copies):
            phase = _Phase()
            await self._closed_loop(copy, 0, self.closed_steps, phase, every)
            closed.append(phase)
        rest = []
        first = self.closed_steps
        for rate in self.rates:
            if self.open_loop:
                phase = _Phase(rate)
                await self._open_level(first, phase)
            else:
                phase = _Phase()
                await self._closed_loop(0, first, first + self.level_steps, phase)
            rest.append(phase)
            first += self.level_steps
        return closed, rest

    def _plan(self, first: int, last: int):
        """(k, session, step) of questions ``first``..``last - 1``, round robin over sessions."""
        n = self.n_sessions
        for k in range((last - first) * n):
            offset, i = divmod(k, n)
            if first + offset < len(self.references[i][1]):
                yield k, i, first + offset

    async def _closed_loop(
        self, copy: int, first: int, last: int, phase: _Phase, sample_every: int = 0
    ) -> None:
        """Exchanges back to back; a host-speed sample after every ``sample_every``-th."""
        client = self._client()
        started = perf_counter()
        try:
            for _k, i, step in self._plan(first, last):
                begin = perf_counter()
                if await self._exchange(client, copy, i, step, phase):
                    phase.counted += 1
                phase.service.append(perf_counter() - begin)
                if sample_every and len(phase.service) % sample_every == 0:
                    phase.samples.append(hostprobe.sample())
        finally:
            phase.elapsed = perf_counter() - started
            await client.aclose()

    async def _open_level(self, first: int, level: _Phase) -> None:
        plans = [[] for _ in range(self.connections)]
        for k, i, step in self._plan(first, first + self.level_steps):
            plans[i % self.connections].append((k, i, step))
        clients = [self._client() for _ in plans]
        started = perf_counter()
        try:
            await asyncio.gather(
                *(self._open_connection(client, plan, started, level)
                  for client, plan in zip(clients, plans))
            )
        finally:
            for client in clients:
                await client.aclose()
        level.elapsed = perf_counter() - started

    async def _open_connection(self, client, plan, started, level) -> None:
        rate = level.rate
        free_at = started
        for k, i, step in plan:
            due = started + k / rate
            now = perf_counter()
            if now < due:
                await asyncio.sleep(due - now)
            begin = perf_counter()
            level.lag.append(begin - max(due, free_at))
            level.lateness.append(begin - due)
            ok = await self._exchange(client, 0, i, step, level)
            free_at = perf_counter()
            level.latency.append(free_at - due)
            level.service.append(free_at - begin)
            if ok:
                level.counted += 1

    async def _exchange(self, client, copy: int, i: int, step: int, phase: _Phase) -> bool:
        """Fetch question ``step`` of session ``i`` of ``copy`` and post the reference answer."""
        session_id = self._session_id(i, copy)
        member, kind, rule, answer = self.references[i][1][step]
        try:
            t0 = perf_counter()
            status, doc = await self._request(
                client, "POST", f"/v1/sessions/{session_id}/question"
            )
            t1 = perf_counter()
            phase.fetch.append(t1 - t0)
            phase.bytes += int(client.last_headers.get("content-length", 0))
            if self.tracer is not None:
                self.tracer.add("http.fetch", t0, t1, session_id)
            if status != 200 or doc.get("status") != "ok":
                phase.checks.fail(f"{session_id}: fetch {status} {doc!r:.120}")
                return False
            question = doc["question"]
            if (question["member"], question["kind"], question.get("rule")) != (member, kind, rule):
                phase.checks.fail(f"{session_id}: served {question!r:.120} but the "
                                  f"reference asks {(member, kind, rule)!r}")
                return False
            body = {"question_id": question["question_id"], "answer": answer}
            status, doc = await self._request(
                client, "POST", f"/v1/sessions/{session_id}/answer", body
            )
            t2 = perf_counter()
            phase.post.append(t2 - t1)
            phase.bytes += len(json.dumps(body)) + int(client.last_headers.get("content-length", 0))
            if self.tracer is not None:
                self.tracer.add("http.post", t1, t2, f"{session_id}/{question['question_id']}")
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
            phase.checks.fail(f"{session_id}: {type(exc).__name__} {exc}")
            await client.aclose()
            return False
        if status != 200 or doc.get("status") != "counted":
            phase.checks.fail(f"{session_id}: answer {status} {doc!r:.120}")
            return False
        phase.checks.ok()
        return True

    def _check_results(self, outcome: Outcome) -> None:
        """Every session of the first copy finished on its reference fingerprint.

        The other copies each asked the closed loop's questions and
        agree with one another on where that left them.
        """

        async def check():
            client = self._client()
            try:
                for i, (_members, transcript, fingerprint) in enumerate(self.references):
                    sid = self._session_id(i, 0)
                    _status, doc = await self._request(
                        client, "POST", f"/v1/sessions/{sid}/question"
                    )
                    _status, result = await self._request(
                        client, "GET", f"/v1/sessions/{sid}/result"
                    )
                    outcome.fingerprints.append(result.get("fingerprint"))
                    if doc.get("status") != "done":
                        outcome.checks.fail(f"{sid} did not finish: {doc!r:.120}")
                    elif result.get("fingerprint") != fingerprint:
                        outcome.checks.fail(f"{sid} ended off its reference fingerprint")
                    elif result.get("questions_asked") != len(transcript):
                        outcome.checks.fail(f"{sid} asked {result.get('questions_asked')}")
                    prefixes = set()
                    for copy in range(1, self.copies):
                        sid = self._session_id(i, copy)
                        _status, result = await self._request(
                            client, "GET", f"/v1/sessions/{sid}/result"
                        )
                        prefixes.add(result.get("fingerprint"))
                        if result.get("questions_asked") != self.closed_steps:
                            outcome.checks.fail(f"{sid} asked {result.get('questions_asked')}")
                    if len(prefixes) > 1:
                        outcome.checks.fail(f"copies of session {i} ended on different fingerprints")
            finally:
                await client.aclose()

        asyncio.run(check())

    # -- per-layer metrics -----------------------------------------------------

    def _layers(self, phases) -> dict:
        fetch = [t for ph in phases for t in ph.fetch]
        post = [t for ph in phases for t in ph.post]
        exchanges = sum(len(ph.service) for ph in phases)
        lag = [t for ph in phases for t in ph.lag]
        out = {
            "http.fetch_p50_ms": 1e3 * stats.percentile(fetch, 50),
            "http.fetch_p99_ms": 1e3 * stats.percentile(fetch, 99),
            "http.post_p50_ms": 1e3 * stats.percentile(post, 50),
            "http.post_p99_ms": 1e3 * stats.percentile(post, 99),
            "http.bytes_per_exchange": sum(ph.bytes for ph in phases) / max(1, exchanges),
            "loadgen.lag_tail_ms": 1e3 * stats.percentile(lag, stats.tail_percentile(len(lag)))
            if lag else 0.0,
        }
        with open(self.trace_path, encoding="utf-8") as fh:
            out.update(json.load(fh)["layers"])
        handler = out["serve.fetch_handler_s"] + out["serve.post_handler_s"]
        roundtrip = sum(fetch) + sum(post)
        out["http.overhead_s"] = roundtrip - handler
        out["trace.uncovered_share"] = (roundtrip - handler) / roundtrip
        return out


def _wait4(process, timeout: float):
    """``os.wait4`` on ``process`` with a deadline; returns (pid, status, rusage)."""
    deadline = monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            return pid, status, usage
        if monotonic() > deadline:
            raise TimeoutError
        time.sleep(0.02)
