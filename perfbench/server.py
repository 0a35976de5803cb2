"""The real server as a subprocess: start, wait for READY, kill, reap.

Every start binds port 0 and learns its port from the ``READY`` line.  A
server that exits or stays silent past the timeout raises with the tail of
its stderr, and :meth:`ServerProcess.stop` always kills and reaps the
process, so a failed run leaves no server and no bound port behind.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

READY_TIMEOUT_S = 120.0


def cli_flags(options: dict) -> List[str]:
    """``serve`` flags for the service options a workload runs under."""
    flags = []
    for name, value in options.items():
        if isinstance(value, tuple):
            value = ",".join(f"{v:g}" for v in value)
        elif isinstance(value, float):
            value = f"{value:g}"
        flags += ["--" + name.replace("_", "-"), str(value)]
    return flags


class ServerProcess:
    """``python -m repro.cli serve`` on one data dir, restartable in place."""

    def __init__(self, src: Path, data_dir: Path, options: dict, log_dir: Path) -> None:
        self.cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--data-dir", str(data_dir),
            "--hra",
            "--scrub-interval", "0",
            # No periodic checkpoint: one landing mid-run would truncate the
            # WAL at a time-dependent point and make recover_s bimodal.
            "--snapshot-interval", "0",
            # The stock asyncio loop everywhere: uvloop is auto-detected, so a
            # machine that has it installed would measure another program.
            "--no-uvloop",
            *cli_flags(options),
        ]
        self.data_dir = data_dir
        # A fixed string-hash seed: with a random one (the default), the
        # layout of the server's key-indexed dicts changes from start to
        # start, and small reads ran 0.1 or 0.2 ms by the luck of the draw.
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
        self.log_dir = log_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._starts = 0
        self._reader: Optional[threading.Thread] = None
        self._stderr = None

    def start(self) -> None:
        """Spawn and wait for READY."""
        self._starts += 1
        err_path = self.log_dir / f"server-{id(self):x}-{self._starts}.err"
        self._stderr = open(err_path, "wb")
        lines: "queue.Queue[Optional[str]]" = queue.Queue()
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=self.env,
            text=True,
        )

        def pump(stream) -> None:
            # Drain stdout for the whole life of the process so the server
            # can never block on a full pipe.
            for line in stream:
                lines.put(line)
            lines.put(None)

        self._reader = threading.Thread(target=pump, args=(self.proc.stdout,), daemon=True)
        self._reader.start()
        deadline = began + READY_TIMEOUT_S
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is not None and line.startswith("READY "):
                fields = dict(part.split("=", 1) for part in line.split()[1:])
                self.port = int(fields["port"])
                return
            if line is None:
                proc = self.proc
                self.stop()
                raise RuntimeError(
                    f"server did not print READY within {READY_TIMEOUT_S:.0f}s "
                    f"(exit code {proc.returncode}); stderr tail:\n"
                    + _tail(err_path)
                )

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGKILL and reap (idempotent): the crash the recovery path expects."""
        proc, self.proc = self.proc, None
        if proc is not None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=10)  # the dead process's pipe is at EOF
            self._reader = None
        if proc is not None:
            proc.stdout.close()
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None


def _tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError as exc:
        return f"(stderr unavailable: {exc})"
