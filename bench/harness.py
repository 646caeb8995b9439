"""Server process control and the benchmark's own HTTP/1.1 client.

The client is deliberately independent of ``repro.server.loadgen``: a
change to the program's load generator must not move the benchmark's
numbers.  Requests are pre-encoded byte strings (request line, headers
and body), so the timed loop only writes bytes and parses a status line
and a ``Content-Length``.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")

_LISTEN_RE = re.compile(r"listening on http://([\d.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return os.path.isfile(os.path.join(SRC, "repro", "server", "http.py"))


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        stat = fh.read()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the full line (1-based).
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def host_steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / _CLK_TCK if len(fields) > 8 else 0.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """One ``tcm serve`` subprocess, optionally under ``traced_serve.py``.

    ``spawned_at`` is a ``perf_counter`` reading taken just before the
    spawn.  After readiness a thread keeps draining the server's output
    so a chatty server can never block on a full pipe.
    """

    def __init__(self, serve_args: Sequence[str], *,
                 spans_path: Optional[str] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                    *serve_args]
        else:
            argv = [sys.executable, os.path.join(BENCH, "traced_serve.py"),
                    "--spans", spans_path, "--", "serve", "--port", "0",
                    *serve_args]
        self.spans_path = spans_path
        self.output: List[str] = []
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        self._drain: Optional[threading.Thread] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until the server listens; returns the boot seconds."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.output.append(line)
            match = _LISTEN_RE.search(line)
            if match:
                ready_at = time.perf_counter()
                self.host = match.group(1)
                self.port = int(match.group(2))
                self._drain = threading.Thread(target=self._drain_output,
                                               daemon=True)
                self._drain.start()
                return ready_at - self.spawned_at
        self.kill()
        raise RuntimeError(
            "server never reported readiness (exit code "
            f"{self.proc.returncode}):\n" + "".join(self.output[-20:]))

    def _drain_output(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)

    def dump_spans(self, timeout: float = 30.0) -> str:
        """Ask a traced server to write its spans now; returns the path."""
        if self.spans_path is None:
            raise RuntimeError("server is not traced")
        if os.path.exists(self.spans_path):
            os.remove(self.spans_path)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not os.path.exists(self.spans_path):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("traced server wrote no spans")
            time.sleep(0.01)
        return self.spans_path

    def _reap(self, timeout: float) -> None:
        self.proc.wait(timeout=timeout)
        if self._drain is not None:
            self._drain.join(timeout=timeout)
        self.proc.stdout.close()

    def kill(self) -> None:
        """SIGKILL (a crash) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap(30.0)

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (a drained shutdown), reap; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self._reap(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        return self.proc.returncode


def encode_request(method: str, path: str, body: bytes, content_type: str,
                   accept: Optional[str] = None) -> bytes:
    """One complete keep-alive HTTP/1.1 request as bytes."""
    head = (f"{method} {path} HTTP/1.1\r\n"
            f"Host: bench\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n")
    if accept:
        head += f"Accept: {accept}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


class Connection:
    """A keep-alive connection that sends one request at a time."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, raw: bytes) -> Tuple[int, bytes]:
        """Send one pre-encoded request; returns (status, body)."""
        self.writer.write(raw)
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        at = head.lower().find(b"content-length:")
        if at < 0:
            raise ConnectionError("response without Content-Length")
        end = head.index(b"\r\n", at)
        length = int(head[at + 15:end])
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
