"""Run one pellsum CLI job in a fresh interpreter, under a wall-time cap.

A job is one CLI invocation. Its wall time runs from spawn to reaping, and
its CPU time is the kernel's account of that one child (wait4). Its peak
RSS is the VmHWM the child reads from /proc/self/status as it exits: the
child's ru_maxrss would also hold the harness's own size, inherited at
spawn. At the cap the child gets SIGTERM, which a traced child answers by
writing out its open spans; SIGKILL follows after a short grace period. A
job killed at the cap has no peak RSS.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from trace_child import TRACE_MARK

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CHILD = Path(__file__).with_name("trace_child.py")
RSS_MARK = b"\x1eperfbench-rss "
GRACE_S = 2.0
# `python -m pellsum`, plus one stderr line with the peak RSS at exit
PLAIN_CHILD = f"""
import atexit, runpy, sys
def peak_rss():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{RSS_MARK.decode()}" + kb + "\\n")
atexit.register(peak_rss)
runpy.run_module("pellsum", run_name="__main__", alter_sys=True)
"""


def child_env() -> dict:
    """The job's environment: the checkout's sources, PELLSUM_SHARDS unset."""
    env = dict(os.environ)
    env.pop("PELLSUM_SHARDS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    maxrss_kb: int | None
    rc: int
    stdout: bytes
    stderr: bytes
    timed_out: bool
    trace: dict | None


def run_job(argv, cap_s: float, traced: bool = False) -> JobResult:
    """Run `pellsum ARGV` (or its traced form) and wait until it has ended."""
    entry = [str(TRACE_CHILD)] if traced else ["-c", PLAIN_CHILD]
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *entry, *argv],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        out, err, timed_out = _drain(proc, start + cap_s)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = _marked(err, TRACE_MARK.encode())
    rss = _marked(err, RSS_MARK)
    return JobResult(
        wall,
        usage.ru_utime + usage.ru_stime,
        rss,
        proc.returncode,
        out,
        err,
        timed_out,
        trace,
    )


def _drain(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes, bool]:
    # Read both pipes until EOF so a large document never blocks the child;
    # past the deadline, SIGTERM, then SIGKILL after the grace period.
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    signals = [signal.SIGTERM, signal.SIGKILL]
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                if not signals:
                    break
                timed_out = True
                proc.send_signal(signals.pop(0))
                deadline += GRACE_S
                continue
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    proc.stdout.close()
    proc.stderr.close()
    return b"".join(chunks[out_fd]), b"".join(chunks[err_fd]), timed_out


def _marked(stderr: bytes, mark: bytes):
    lines = [line for line in stderr.split(b"\n") if line.startswith(mark)]
    return json.loads(lines[-1][len(mark):]) if lines else None
