"""The ``serve`` workload: ``python -m repro.server`` under a seeded request mix.

The store is a compacted, manifest-published sweep of the population over
V1/V2/V3 with the predictor's weights already cached, so a server restart
costs what an operator pays: rebuilding the population from the manifest,
loading the store and restoring the model.

Load comes from this one process over at most ``nproc`` keep-alive
connections: first a closed loop (each connection sends its next request
when the previous one is answered), then an open loop at the fixed rate
:data:`OPEN_RPS`, where each request is due on a schedule and is timed from
its due time, so a stall also delays every request behind it.  Refused
requests (429/503) and wrong answers are failures; a failed request counts
as missing any latency limit (its latency is the whole schedule length).

The mix: 70% metric lookups of Zipf-drawn fingerprints (the 1000 x 3 x 2
distinct lookups dwarf the server's 256-entry cache, so both hits and misses
occur), 10% ``top_k``, 10% ``pareto`` and 10% single-cell ``predict`` of
held-out cells the store has never seen.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from common import (
    SRC,
    Outcome,
    digest,
    host_factor,
    process_peak_rss_mb,
    scratch_dir,
    tail_ms,
    timing_stats,
)

#: Offered rate of the open loop, fixed so that later changes are compared at
#: the same load: about a ninth of the closed-loop ``rps`` (~1800 req/s on a
#: 2-CPU host) at the commit that introduced this benchmark.  At half and at
#: a quarter of it, two connections and the 5 ms predict window queue
#: requests behind each predict, and the open-loop p99 swung by 75% and 56%
#: between seeds.
OPEN_RPS = 200.0

#: Relative tolerance of served predictions: micro-batching changes the BLAS
#: reduction order, which moves a prediction by about one ULP.
PREDICT_RTOL = 64 * np.finfo(float).eps

CONFIGS = ("V1", "V2", "V3")
PREDICT_CONFIG = "V1"
MIX = {"metric": 0.7, "top_k": 0.1, "pareto": 0.1, "predict": 0.1}
PARETO_FLOORS = (0.70, 0.75, 0.80)
ZIPF_EXPONENT = 1.1
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Closed-loop throughput is counted per window of this many seconds.
WINDOW_S = 1.0


class RequestTrace:
    """A seeded, index-addressable request sequence."""

    def __init__(self, rng: np.random.Generator, length: int, fingerprints, heldout):
        self.fingerprints = fingerprints
        self.heldout = heldout
        ranks = np.arange(1, len(fingerprints) + 1, dtype=float) ** -ZIPF_EXPONENT
        order = rng.permutation(len(fingerprints))
        self.kind = rng.choice(len(MIX), size=length, p=list(MIX.values()))
        self.item = np.where(
            self.kind == 0,
            order[rng.choice(len(fingerprints), size=length, p=ranks / ranks.sum())],
            rng.integers(0, 1 << 30, size=length),
        )
        self.config = rng.integers(0, len(CONFIGS), size=length)
        # 30 = lcm of the 2 metrics, 3 Pareto floors and 10 top_k sizes.
        self.variant = rng.integers(0, 30, size=length)

    def __len__(self) -> int:
        return len(self.kind)

    def digest(self) -> str:
        return digest(self.kind, self.item, self.config, self.variant)

    def request(self, index: int):
        from repro.service.api import MetricRequest, ParetoRequest, PredictRequest, TopKRequest

        kind, item = int(self.kind[index]), int(self.item[index])
        config, variant = CONFIGS[int(self.config[index])], int(self.variant[index])
        if kind == 0:
            metric = ("latency", "energy")[variant % 2]
            return MetricRequest(self.fingerprints[item], config, metric)
        if kind == 1:
            return TopKRequest(k=1 + variant % 10)
        if kind == 2:
            return ParetoRequest(config, PARETO_FLOORS[variant % len(PARETO_FLOORS)])
        cell = self.heldout[item % len(self.heldout)]
        return PredictRequest((cell,), PREDICT_CONFIG, "latency")


def first_requests(trace: RequestTrace):
    """One request of each kind; the pareto one gives ``best_sim_latency_ms``."""
    from repro.service.api import MetricRequest, ParetoRequest, PredictRequest, TopKRequest

    return [
        MetricRequest(trace.fingerprints[0], "V1", "latency"),
        TopKRequest(k=5),
        ParetoRequest("V1", 0.70),
        PredictRequest((trace.heldout[0],), PREDICT_CONFIG, "latency"),
    ]


def prepare(root, seed: int, models: int, heldout: int):
    """Sweep, compact and publish the store; cache the predictor's weights."""
    from repro.nasbench import NASBenchDataset, sample_unique_cells
    from repro.server.__main__ import build_service
    from repro.service import MeasurementStore

    dataset = NASBenchDataset.generate(num_models=models, seed=seed)
    store = MeasurementStore(root)
    store.extend(dataset, configs=CONFIGS)
    store.compact(dataset, configs=CONFIGS)
    store.publish_manifest(dataset, configs=CONFIGS)
    cells = sample_unique_cells(2 * heldout, seed=seed + 1, extra_cells=())
    unseen = [cell for cell in cells if cell not in dataset][:heldout]
    direct = build_service(root)
    direct.predict(unseen[:1], PREDICT_CONFIG)
    return direct, unseen


class LoadGenerator:
    """Closed and open loops over a fixed set of keep-alive clients."""

    def __init__(self, trace: RequestTrace, open_trace: RequestTrace):
        self.clients: list = []
        self.trace = trace
        self.open_trace = open_trace
        self.answers: list[tuple[object, object]] = []  # (request, response | error)
        #: Send-to-answer seconds of every request, for ``server.overhead_ms``.
        self.round_trips: list[float] = []

    async def send(self, client, request):
        from repro.server import ServerError

        start = time.perf_counter()
        try:
            response = await client.query(request)
        except ServerError as exc:
            response = exc
        self.round_trips.append(time.perf_counter() - start)
        self.answers.append((request, response))
        return None if isinstance(response, ServerError) else response

    async def closed(self, seconds: float) -> dict:
        """Requests, models and (model, config) values answered per second, by window."""
        windows = max(1, int(seconds / WINDOW_S))
        counts = np.zeros((windows, 3))
        position = [0]
        start = time.perf_counter()
        deadline = start + windows * WINDOW_S

        async def loop(client):
            while time.perf_counter() < deadline:
                index = position[0] % len(self.trace)
                position[0] += 1
                response = await self.send(client, self.trace.request(index))
                window = int((time.perf_counter() - start) / WINDOW_S)
                if response is not None and window < windows:
                    counts[window] += (1, *_result_size(response))

        await asyncio.gather(*(loop(client) for client in self.clients))
        return {"requests": position[0], "per_window": counts / WINDOW_S}

    async def open(self, seconds: float) -> dict:
        """Latencies from due time and sender lag, in wall seconds."""
        total = max(1, int(OPEN_RPS * seconds))
        position = [0]
        due_latency: list[float] = []
        predict_latency: list[float] = []
        lag: list[float] = []
        sent_at: list[float] = []
        epoch = time.perf_counter() + 0.01

        async def loop(client):
            while position[0] < total:
                index = position[0]
                position[0] += 1
                due = epoch + index / OPEN_RPS
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = time.perf_counter()
                lag.append(sent - due)
                sent_at.append(sent)
                request = self.open_trace.request(index % len(self.open_trace))
                response = await self.send(client, request)
                # A refused or failed request misses any latency limit.
                latency = total / OPEN_RPS if response is None else time.perf_counter() - due
                due_latency.append(latency)
                if request.kind == "predict":
                    predict_latency.append(latency)

        await asyncio.gather(*(loop(client) for client in self.clients))
        end_of_schedule = epoch + total / OPEN_RPS
        return {
            "requests": total,
            "latencies": due_latency,
            "predict_latencies": predict_latency,
            "lag": lag,
            "backlog": sum(1 for sent in sent_at if sent > end_of_schedule),
        }


def _result_size(response) -> tuple[int, int]:
    """(models, (model, config) values) one answer reports.

    Metric lookups and predictions answer for one model each; a ``top_k``
    answer reports k models on every configuration.  Pareto answers are not
    counted: their size is set by the population, not by the request.
    """
    if response.kind == "top_k":
        entries = response.result["entries"]
        return len(entries), sum(len(entry["latency_ms"]) for entry in entries)
    if response.kind == "pareto":
        return 0, 0
    return 1, 1


async def _clients(port: int):
    from repro.server import ServiceClient

    clients = [ServiceClient(port=port) for _ in range(CONNECTIONS)]
    for client in clients:
        await client.connect()
    return clients


async def _first_answers(client, trace: RequestTrace, load: LoadGenerator) -> list:
    return [await load.send(client, request) for request in first_requests(trace)]


class ServerProcess:
    """``python -m repro.server <store>`` on an ephemeral port."""

    def __init__(self, root):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", str(root), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


async def _restart(root, trace: RequestTrace, load: LoadGenerator):
    """Spawn a server and wait until it answered one request of each kind."""
    factor = host_factor()
    start = time.perf_counter()
    server = ServerProcess(root)
    try:
        clients = await _clients(server.port)
        first = await _first_answers(clients[0], trace, load)
    except BaseException:
        server.stop()
        raise
    return (time.perf_counter() - start) * factor, server, clients, first


async def _close(clients) -> None:
    for client in clients:
        await client.close()


async def _serve_subprocess(root, seconds: float, trace, load, restarts: int = 5):
    setups = []
    for attempt in range(restarts):
        setup_s, server, clients, first = await _restart(root, trace, load)
        setups.append(setup_s)
        if attempt < restarts - 1:
            await _close(clients)
            server.stop()
    load.clients = clients
    try:
        closed = await load.closed(seconds / 2)
        opened = await load.open(seconds / 2)
        stats = await clients[0].stats()
        rss = process_peak_rss_mb(server.process.pid)
    finally:
        await _close(clients)
        server.stop()
    return statistics.median(setups), first, closed, opened, stats, rss


async def _serve_in_process(root, seconds: float, trace, load) -> dict:
    """One traced-or-untraced pass with the server hosted in this process."""
    from repro.server import ServerConfig, SweepServer
    from repro.server.__main__ import build_service

    start = time.perf_counter()
    server = SweepServer(build_service(root), ServerConfig(port=0))
    await server.start()
    try:
        clients = load.clients = await _clients(server.port)
        first = await _first_answers(clients[0], trace, load)
        closed = await load.closed(seconds / 2)
        opened = await load.open(seconds / 2)
        stats = await clients[0].stats()
    finally:
        await _close(load.clients)
        await server.stop()
    return {
        "first": first,
        "closed": closed,
        "open": opened,
        "stats": stats,
        "wall": time.perf_counter() - start,
    }


def _check(direct, answers, heldout_truth) -> tuple[list[str], list[tuple[float, float]]]:
    """Compare every answer with the direct ``SweepService.query`` on the store."""
    from repro.server import ServerError
    from repro.service.api import canonical_request_key

    expected: dict[str, dict] = {}
    failures: list[str] = []
    predictions: list[tuple[float, float]] = []
    for request, answer in answers:
        if isinstance(answer, ServerError):
            failures.append(f"{request.kind} refused or failed: {answer}")
            continue
        key = canonical_request_key(request)
        if key not in expected:
            # Through the wire format, as the client decodes it (tuples → lists).
            expected[key] = json.loads(json.dumps(direct.query(request).to_dict()))
        want, got = expected[key], answer.to_dict()
        same = (got["kind"], got["store_digest"]) == (want["kind"], want["store_digest"])
        if request.kind == "predict":
            values = got["result"]["values"]
            same = same and np.allclose(
                values, want["result"]["values"], rtol=PREDICT_RTOL, atol=0.0
            )
            predictions.append((values[0], heldout_truth[request.cells[0].fingerprint]))
        else:
            same = same and got["result"] == want["result"]
        if not same:
            failures.append(f"{request.kind} answer differs from the direct query")
    return failures, predictions


def _first_digest(first) -> str:
    """Digest of the store-backed first answers (predictions are model output)."""
    return digest(*(repr(answer.result) for answer in first[:3] if answer is not None))


def _serve_layers(tracer, traced: dict, plain: dict, load: LoadGenerator, models: int) -> dict:
    from common import layer_report

    layers = layer_report(tracer, traced["wall"], models)
    rate = lambda result: np.median(result["closed"]["per_window"][:, 0])  # noqa: E731
    layers["trace_overhead_pct"] = 100.0 * (rate(plain) / rate(traced) - 1.0)
    query_ms = sum(
        sum(tracer.durations_ms(f"service.query.{kind}")) for kind in MIX
    )
    client_ms = sum(load.round_trips) * 1e3
    layers["server.overhead_ms"] = (client_ms - query_ms) / len(load.round_trips)
    return layers


def run(seed: int, seconds: float, traced: bool, models: int = 1000, heldout: int = 200) -> Outcome:
    """Set up the store, then serve it untraced (subprocess) or traced (in process)."""
    from repro.arch.config import get_config
    from repro.core.metrics import estimation_accuracy
    from repro.simulator import BatchSimulator

    from spans import Tracer, instrument

    with scratch_dir() as root:
        direct, unseen = prepare(root, seed, models, heldout)
        fingerprints = [record.fingerprint for record in direct.dataset]
        rng = np.random.default_rng(seed)
        trace = RequestTrace(rng, 200_000, fingerprints, unseen)
        open_trace = RequestTrace(rng, max(1, int(OPEN_RPS * seconds)), fingerprints, unseen)
        truth = BatchSimulator().evaluate_cells(unseen, get_config(PREDICT_CONFIG))[0]
        heldout_truth = {cell.fingerprint: float(value) for cell, value in zip(unseen, truth)}
        inputs = digest(
            *fingerprints,
            *(cell.fingerprint for cell in unseen),
            trace.digest(),
            open_trace.digest(),
        )
        metrics: dict[str, float] = {}
        layers: dict[str, float] = {}
        failures: list[str] = []

        if not traced:
            load = LoadGenerator(trace, open_trace)
            answers_from = [load]
            setup_s, first, closed, opened, stats, rss = asyncio.run(
                _serve_subprocess(root, seconds, trace, load)
            )
        else:
            tracer = Tracer()
            passes = []
            for instrumented in (False, True):
                load = LoadGenerator(trace, open_trace)
                with instrument(tracer) if instrumented else contextlib.nullcontext():
                    result = asyncio.run(_serve_in_process(root, seconds / 2, trace, load))
                passes.append((result, load))
            (plain, plain_load), (result, load) = passes
            answers_from = [plain_load, load]
            first, closed, opened, stats = (
                result[key] for key in ("first", "closed", "open", "stats")
            )
            layers = _serve_layers(tracer, result, plain, load, len(fingerprints))
            if _first_digest(plain["first"]) != _first_digest(first):
                failures.append("traced run's answers differ from the untraced run's")

        answers = [answer for source in answers_from for answer in source.answers]
        checked, predictions = _check(direct, answers, heldout_truth)
        failures += checked
        predict_accuracy = estimation_accuracy(
            np.array([p for p, _ in predictions]), np.array([t for _, t in predictions])
        )
        pareto = first[2].result["points"] if first[2] is not None else []
        best = min((point["latency_ms"] for point in pareto), default=float("nan"))
        predict_q, predict_p99 = tail_ms(np.array(opened["predict_latencies"] or [0.0]) * 1e3)
        lag_q, lag_p99 = tail_ms(np.array(opened["lag"]) * 1e3)
        cache = stats["cache"]
        layers.update(
            {
                "core.predict_accuracy": predict_accuracy,
                "server.predict_p99_ms": predict_p99,
                "server.requests_per_batch": stats["batching"]["requests_per_batch"],
                "server.cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
                "server.rejected": stats["requests_rejected"],
                "loadgen.lag_p99_ms": lag_p99,
                "loadgen.backlog": opened["backlog"],
            }
        )
        windows = closed["per_window"]
        notes = {
            "closed_requests": closed["requests"],
            "closed_window_rps": list(windows[:, 0]),
            "open_requests": opened["requests"],
            "open_rps": OPEN_RPS,
            "predict_samples": len(opened["predict_latencies"]),
            "predict_tail_percentile": predict_q,
            "predict_p99_ms": predict_p99,
            "predict_accuracy": predict_accuracy,
            "lag_tail_percentile": lag_q,
            "backlog": opened["backlog"],
            "best_sim_latency_ms": best,
            "failures": failures[:10],
        }
        latency = timing_stats("latency", opened["latencies"], notes)
        if not traced:
            # Load phases are not host-normalized: the reference loop times
            # this process only, not the server's CPU.  The fastest window is
            # used instead, as timeit does: slower ones are slowed by other
            # tenants of the host, not by the program.  Models and values per
            # request come from the whole loop, so that the mix of the few
            # requests in that one window does not move them.
            per_request = windows.sum(axis=0) / windows[:, 0].sum()
            rps, models_per_s, evals_per_s = windows[:, 0].max() * per_request
            metrics = {
                "setup_s": setup_s,
                "models_per_s": models_per_s,
                "evals_per_s": evals_per_s,
                "rps": rps,
                **latency,
                "peak_rss_mb": rss,
            }
        return Outcome(
            metrics=metrics,
            attempted=len(answers) + (1 if traced else 0),
            failed=len(failures),
            digests={
                "inputs": inputs,
                "outputs": digest(direct.store_digest, _first_digest(first)),
            },
            layers=layers,
            notes=notes,
        )
