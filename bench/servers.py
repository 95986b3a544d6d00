"""Running the program under test as a subprocess: ``python -m repro serve``.

The server is the real CLI in its own process group, so the load generator
never shares its GIL and the whole tree (pool workers included) can be
killed and accounted for as one unit.  Ports come from ``--port 0`` and the
CLI's own banner; nothing listens on a fixed port.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from env import OUT, SRC
from loadgen import HttpClient

START_TIMEOUT = 60.0
_BANNER = re.compile(rb"serving on http://([^:/\s]+):(\d+)")


def temp_dir(prefix: str) -> tempfile.TemporaryDirectory:
    """A scratch directory inside the checkout, removed on exit."""
    OUT.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=prefix + "-", dir=OUT)


def _children(pid: int) -> list[int]:
    """Direct children of *pid*, read from /proc (empty where unsupported)."""
    found = []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(entry.parent.name))
    return found


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


class Server:
    """One ``python -m repro serve`` process tree on a data directory."""

    def __init__(self, data_dir: str, serve_args: tuple[str, ...] = ()) -> None:
        self.command = [sys.executable, "-m", "repro", "serve",
                        "--backend", "wsd", "--data-dir", data_dir,
                        "--host", "127.0.0.1", "--port", "0", *serve_args]
        self.log_path = Path(data_dir).with_suffix(".log")
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self._tree: list[int] = []

    def start(self, min_generation: int = 0) -> float:
        """Spawn and wait until ``/health`` answers 200 at *min_generation*.

        Returns the seconds from spawn to that answer (start-up + recovery).
        """
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.command, env=env, stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            self.address = self._read_banner(started + START_TIMEOUT)
            client = HttpClient(self.address, keepalive=False)
            while True:
                try:
                    status, health = client.get("/health")
                    if status == 200 and health["generation"] >= min_generation:
                        break
                    if status == 200:
                        raise RuntimeError(
                            f"recovered generation {health['generation']} is "
                            f"below the acknowledged {min_generation}")
                except OSError:
                    pass
                if time.perf_counter() > started + START_TIMEOUT:
                    raise RuntimeError("server did not become healthy")
                time.sleep(0.002)
        except BaseException:
            self.kill()
            raise
        elapsed = time.perf_counter() - started
        self._tree = self.tree()
        return elapsed

    def _read_banner(self, deadline: float) -> tuple[str, int]:
        assert self.process is not None and self.process.stdout is not None
        fd = self.process.stdout.fileno()
        seen = b""
        while True:
            match = _BANNER.search(seen)
            if match:
                return match.group(1).decode(), int(match.group(2))
            remaining = deadline - time.perf_counter()
            ready = select.select([fd], [], [], max(remaining, 0))[0]
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(
                    "server exited or stayed silent before its banner; "
                    "log tail: " + self.log_tail())
            seen += chunk

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-600:]
        except OSError:
            return ""

    def tree(self) -> list[int]:
        """The server pid and all its descendants."""
        assert self.process is not None
        pids, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            frontier.extend(_children(pid))
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident set (VmHWM) over the live process tree."""
        total_kb = 0
        for pid in self.tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            total_kb += int(match.group(1)) if match else 0
        return total_kb / 1024.0

    def kill(self) -> None:
        """SIGKILL the whole process group and wait until every pid ended."""
        process = self.process
        if process is None:
            return
        pids = set(self._tree) | set(self.tree()) if process.poll() is None \
            else set(self._tree)
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
        if process.stdout is not None:
            process.stdout.close()
        deadline = time.perf_counter() + 10.0
        pids.discard(process.pid)
        while any(_alive(pid) for pid in pids):
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server processes survived SIGKILL: {pids}")
            time.sleep(0.005)
        self.process = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()
