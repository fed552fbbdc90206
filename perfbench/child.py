"""Child processes timed without polling."""

from __future__ import annotations

import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class Child:
    """A finished child process; ``killed`` when it hit its time limit."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    killed: bool


def run_child(cmd: list[str], env: dict, limit_s: float) -> Child:
    """Run a command to completion with its output captured, killing it
    after ``limit_s`` seconds.

    The wait blocks instead of polling (``subprocess.run`` with a timeout
    polls with sleeps of up to 50 ms, which quantizes the wall time), and a
    timer thread enforces the limit.
    """
    killed = threading.Event()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(limit_s, kill)
    timer.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        timer.cancel()
        timer.join()
    return Child(proc.returncode, stdout, stderr, time.perf_counter() - t0,
                 killed.is_set())
