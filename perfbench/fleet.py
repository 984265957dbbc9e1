"""A local ``repro broker`` with ``repro worker`` subprocesses, always reaped.

``with Fleet(root, workdir, env) as fleet:`` starts the broker with a state
dir, starts the workers against it, and returns once the broker has
recorded every worker's ``worker-join`` event; ``fleet.up_s`` is that
start-up time. Leaving the block terminates every process, kills any that
outlive :data:`STOP_TIMEOUT_S`, and waits for all of them.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

STOP_TIMEOUT_S = 5.0


class FleetError(RuntimeError):
    """The fleet did not come up in time, or a process of it died."""


class Fleet:
    def __init__(
        self, root: Path, workdir: Path, env: dict, workers: int = 2, timeout: float = 60.0
    ) -> None:
        self.root = root
        self.workdir = workdir
        self.env = env
        self.workers = workers
        self.timeout = timeout
        self.procs: list[subprocess.Popen] = []
        self.address = ""
        self.up_s = 0.0

    def _spawn(self, args: list[str], log: str) -> subprocess.Popen:
        with open(self.workdir / log, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                cwd=self.root,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        self.procs.append(proc)
        return proc

    def _wait_for(self, ready, what: str, deadline: float) -> None:
        while not ready():
            dead = [" ".join(p.args[3:6]) for p in self.procs if p.poll() is not None]
            if dead:
                raise FleetError(f"{what}: {', '.join(dead)} exited early (logs in {self.workdir})")
            if time.monotonic() > deadline:
                raise FleetError(f"{what}: timed out after {self.timeout:.0f}s")
            time.sleep(0.01)

    def _joined(self) -> int:
        events = self.workdir / "state" / "events.jsonl"
        if not events.exists():
            return 0
        joined = 0
        for line in events.read_bytes().splitlines():
            try:
                joined += json.loads(line).get("event") == "worker-join"
            except ValueError:
                continue  # a line still being written
        return joined

    def __enter__(self) -> "Fleet":
        self.workdir.mkdir(parents=True, exist_ok=True)
        port_file = self.workdir / "broker.port"
        started = time.perf_counter()
        deadline = time.monotonic() + self.timeout
        try:
            state_dir = str(self.workdir / "state")
            self._spawn(
                ["broker", "--port-file", str(port_file), "--state-dir", state_dir], "broker.log"
            )
            self._wait_for(
                lambda: port_file.exists() and port_file.read_text().strip(), "broker", deadline
            )
            self.address = f"127.0.0.1:{port_file.read_text().strip()}"
            for i in range(self.workers):
                self._spawn(["worker", self.address, "--id", f"w{i}", "--quiet"], f"worker{i}.log")
            self._wait_for(lambda: self._joined() >= self.workers, "workers", deadline)
        except BaseException:
            self.close()
            raise
        self.up_s = time.perf_counter() - started
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Terminate, then kill what is left, and reap every process."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
