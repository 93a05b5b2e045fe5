"""The serving daemon as its own process, started through ``python -m repro.cli serve``.

:class:`DaemonProcess` spawns the deployed entry point (pinned to one CPU
with ``taskset`` when the machine has two or more), times spawn-to-ready,
reads the process's CPU time and peak RSS from ``/proc``, and stops it with
the wire ``shutdown`` op.  A daemon that does not exit with code 0 after the
shutdown, or has to be killed, fails the run.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import client

READY_TIMEOUT_S = 90.0
EXIT_TIMEOUT_S = 30.0
PR_SET_PDEATHSIG = 1


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid``, from ``/proc/<pid>/stat``."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2:].split()
    # Fields 14 and 15 of stat (utime, stime); the split starts at field 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def _terminate_with_parent() -> None:
    """In the child: have the kernel send SIGTERM if the benchmark process dies."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


class DaemonProcess:
    """One ``repro.cli serve`` process over a prepared model file and store."""

    def __init__(self, root: Path, work: Path, serve_args: Sequence[str], *,
                 cpu: Optional[int], env: dict):
        self._root = root
        self._work = work
        self._serve_args = list(serve_args)
        self._cpu = cpu
        self._env = env
        self.proc: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self.setup_s = 0.0

    def command(self, ready_file: Path) -> List[str]:
        command = [sys.executable, "-m", "repro.cli", "serve", *self._serve_args,
                   "--port", "0", "--ready-file", str(ready_file), "--allow-remote-shutdown"]
        if self._cpu is not None and shutil.which("taskset"):
            command = ["taskset", "-c", str(self._cpu), *command]
        return command

    def start(self) -> float:
        """Spawn the daemon and wait for its ready file; returns spawn-to-ready seconds."""
        ready = self._work / f"ready-{time.monotonic_ns()}.txt"
        log = open(self._work / "daemon.log", "ab")
        started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                self.command(ready), cwd=self._root, env=self._env,
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                preexec_fn=_terminate_with_parent,
            )
        finally:
            log.close()
        while True:
            if ready.exists():
                text = ready.read_text().strip()
                host, _, port = text.rpartition(":")
                if host and port.isdigit():
                    self.setup_s = time.perf_counter() - started
                    self.address = (host, int(port))
                    return self.setup_s
            if self.proc.poll() is not None:
                tail = (self._work / "daemon.log").read_bytes()[-2000:].decode(errors="replace")
                raise RuntimeError(
                    f"daemon exited with code {self.proc.returncode} before it was ready:\n{tail}"
                )
            if time.perf_counter() - started > READY_TIMEOUT_S:
                raise RuntimeError("daemon did not become ready in time")
            time.sleep(0.002)

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.pid)

    async def shutdown(self) -> None:
        """Stop the daemon with the ``shutdown`` op; raise unless it exits 0."""
        assert self.proc is not None
        reply = await client.control(self.address, "shutdown")
        if reply.get("status") != "draining":
            raise RuntimeError(f"unexpected shutdown reply {reply!r}")
        try:
            code = self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not exit after the shutdown op") from None
        if code != 0:
            raise RuntimeError(f"daemon exited with code {code} after the shutdown op")

    def kill(self) -> None:
        """Last-resort cleanup: kill and reap the process if it is still running."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
