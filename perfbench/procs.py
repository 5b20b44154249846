"""Program processes: the represent worker and ``repro serve`` launches.

Each process's stdout and stderr go to a log file in the run's scratch
directory, so no pipe can fill up and stall it.  Callers own every
process they start and end it with :meth:`ServerProc.stop` or
:meth:`ServerProc.kill`, both of which wait for the exit.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, child_env

LAUNCHER = os.path.join(BENCH_DIR, "launcher.py")
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")
_TICKS = os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


class ServerProc:
    """One ``repro serve`` process started through the launcher."""

    def __init__(self, tmp: str, label: str, serve_args: list[str], trace_out: str | None = None):
        self.log_path = os.path.join(tmp, f"{label}.log")
        self.url: str | None = None
        self.import_s: float | None = None
        self._log = open(self.log_path, "w")
        self.spawn_t = time.perf_counter()
        argv = [
            sys.executable, LAUNCHER, repr(time.time()), trace_out or "-", "--",
            *serve_args, "--port", "0",
        ]
        self.proc = subprocess.Popen(
            argv, stdout=self._log, stderr=subprocess.STDOUT, cwd=ROOT, env=child_env()
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_listening(self, timeout: float = 120.0) -> str:
        """Poll the log until the server prints its address; return the URL."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            with open(self.log_path) as handle:
                text = handle.read()
            match = _LISTENING.search(text)
            if match:
                found = re.search(r"perfbench import_s=(\S+)", text)
                self.import_s = float(found.group(1)) if found else None
                self.url = f"http://{match.group(1)}:{match.group(2)}"
                return self.url
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during boot:\n{text[-2000:]}")
            time.sleep(0.002)
        raise TimeoutError(f"server did not listen within {timeout}s")

    def signal_and_wait_file(self, path: str, timeout: float = 30.0) -> None:
        """Ask a traced server to write its spans now (SIGUSR1) and wait for them."""
        os.kill(self.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while not os.path.exists(path):
            if time.perf_counter() > deadline:
                raise TimeoutError("traced server did not write its spans")
            time.sleep(0.005)

    def stop(self, timeout: float = 60.0) -> int:
        """Graceful SIGTERM (drain, final snapshot), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode

    def kill(self) -> None:
        """SIGKILL and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()
