"""HTTP load generation: keep-alive JSON clients and a closed loop.

A closed loop: each client thread sends its next request only after
the previous one answered, the way a caller of a scheduling service
waits for its schedule before it acts.  Latency is measured on the
client, from just before the request is written to just after the
whole response body is read.
"""

from __future__ import annotations

import gc
import http.client
import json
import threading
import time

REQUEST_ID_HEADER = "X-Repro-Request-Id"
#: longest a window may run past its nominal length to collect its
#: minimum sample count.
MAX_EXTRA_S = 60.0


class Client:
    """One keep-alive HTTP/1.1 connection to a local service."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout)
        return self._conn

    def request(self, method: str, path: str, body: bytes | None = None,
                request_id: str | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        if request_id is not None:
            headers[REQUEST_ID_HEADER] = request_id
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                data = resp.read()
                if resp.getheader("Connection", "").lower() == "close":
                    self.close()
                return resp.status, data
            except (ConnectionError, http.client.HTTPException):
                # the server closed an idle keep-alive connection:
                # reconnect once, then give up
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def get_json(self, path: str):
        status, data = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Sample:
    """One timed request: what was sent, what came back, how long."""

    __slots__ = ("index", "status", "body", "seconds", "request_id")

    def __init__(self, index, status, body, seconds, request_id):
        self.index = index
        self.status = status
        self.body = body
        self.seconds = seconds
        self.request_id = request_id


def closed_loop(port: int, path: str, bodies: list[bytes], seconds: float,
                threads: int = 2, min_samples: int = 1000,
                limit: int | None = None,
                id_prefix: str = "pb") -> tuple[list[Sample], float]:
    """Drive ``POST path`` from ``threads`` closed-loop clients.

    Request ``i`` carries ``bodies[i % len(bodies)]`` and request ID
    ``{id_prefix}-{i}``.  The window lasts ``seconds`` and is extended
    (by at most ``MAX_EXTRA_S``) until ``min_samples`` requests have
    answered, so the p99 always has ten samples beyond it.  Returns
    the samples in issue order and the window's wall time.  With
    ``limit``, no more than that many requests are sent.
    """
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    samples: list[Sample] = []
    errors: list[BaseException] = []
    start = hard_end = 0.0

    def more() -> bool:
        now = time.perf_counter()
        if now >= hard_end:
            return False
        return now < start + seconds or len(samples) < min_samples

    def worker() -> None:
        client = Client(port)
        try:
            while more():
                with lock:
                    i = next(counter)
                if limit is not None and i >= limit:
                    break
                rid = f"{id_prefix}-{i}"
                body = bodies[i % len(bodies)]
                t0 = time.perf_counter()
                status, data = client.request("POST", path, body, rid)
                dt = time.perf_counter() - t0
                with lock:
                    samples.append(Sample(i, status, data, dt, rid))
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
        finally:
            client.close()

    pool = [threading.Thread(target=worker, name=f"pb-client-{k}")
            for k in range(threads)]
    # the load generator's own garbage collections would stall both
    # clients at once and read as service tail latency
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        hard_end = start + seconds + MAX_EXTRA_S
        for t in pool:
            t.start()
        for t in pool:
            t.join()
    finally:
        gc.enable()
    wall = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"load generator failed: {errors[0]!r}")
    samples.sort(key=lambda s: s.index)
    return samples, wall


def get_all(port: int, paths: list[str], threads: int = 8) -> list:
    """``GET`` every path from ``threads`` keep-alive clients; returns
    ``(status, body)`` per path, in order."""
    results: list = [None] * len(paths)
    errors: list[BaseException] = []

    def worker(k: int) -> None:
        client = Client(port)
        try:
            for i in range(k, len(paths), threads):
                results[i] = client.request("GET", paths[i])
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
        finally:
            client.close()

    pool = [threading.Thread(target=worker, args=(k,))
            for k in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        raise RuntimeError(f"GET fan-out failed: {errors[0]!r}")
    return results
