"""The measured service process: spawn, readiness, memory, telemetry.

The service is started as ``python -m repro serve`` (or through the
tracing launcher) from the checkout's own ``src/``, with every file it
writes — journal, flight-recorder dumps, temp files, logs — kept under
one work directory inside the checkout.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from client import Client

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(workdir)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def vmhwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    text = Path(f"/proc/{pid}/status").read_text()
    kb = int(re.search(r"VmHWM:\s+(\d+)\s+kB", text).group(1))
    return kb / 1024.0


class ServiceProcess:
    """One ``repro serve`` subprocess (default settings unless
    ``extra`` adds flags)."""

    def __init__(self, workdir: Path, extra: list[str] = (),
                 launcher: list[str] | None = None) -> None:
        self.workdir = workdir
        self.port = free_port()
        dumps = workdir / "dumps"
        dumps.mkdir(parents=True, exist_ok=True)
        argv = ["serve", "--port", str(self.port),
                "--dump-dir", str(dumps), *extra]
        prog = launcher or [sys.executable, "-m", "repro"]
        self._log = open(workdir / f"serve-{self.port}.log", "wb")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [*prog, *argv], cwd=str(workdir),
            env=child_env(workdir),
            stdin=subprocess.DEVNULL, stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.client = Client(self.port, timeout=30.0)

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Poll ``/readyz`` until 200; seconds since spawn."""
        deadline = self.t_spawn + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"service exited with {self.proc.returncode}; "
                    f"log: {self.log_tail()}")
            try:
                status, _ = self.client.request("GET", "/readyz")
                if status == 200:
                    return time.perf_counter() - self.t_spawn
            except OSError:
                self.client.close()
            time.sleep(0.002)
        raise RuntimeError(f"service not ready after {timeout}s")

    def vmhwm_mb(self) -> float:
        return vmhwm_mb(self.proc.pid)

    def metrics(self) -> dict:
        status, data = self.client.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics -> {status}")
        return parse_prometheus(data.decode())

    def stats(self) -> dict:
        return self.client.get_json("/stats")

    def stop(self, timeout: float = 60.0) -> int:
        """Graceful drain (SIGTERM), escalating to SIGKILL."""
        self.client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode

    def kill(self) -> None:
        """SIGKILL (a crash: no drain, no shutdown snapshot)."""
        self.client.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()

    def log_tail(self, limit: int = 2000) -> str:
        try:
            self._log.flush()
            return (self.workdir / f"serve-{self.port}.log") \
                .read_text(errors="replace")[-limit:]
        except OSError:
            return ""


_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict:
    """``{(name, ((label, value), ...)): float}`` from exposition text
    (exemplars and comments dropped)."""
    out: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        line = line.split(" # ", 1)[0]
        m = _SAMPLE.match(line)
        if m is None:
            continue
        name, labels, value = m.groups()
        key = tuple(sorted(_LABEL.findall(labels or "")))
        try:
            out[(name, key)] = float(value)
        except ValueError:
            continue
    return out


def metric_sum(samples: dict, name: str, **labels) -> float:
    """Sum of every series of ``name`` whose labels include ``labels``."""
    want = set(labels.items())
    return sum(v for (n, key), v in samples.items()
               if n == name and want <= set(key))
