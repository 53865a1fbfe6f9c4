"""Reach hook: record which functions under a source tree this process runs.

Python imports ``sitecustomize`` at start-up from any directory on
``PYTHONPATH``, so ``tools/reach.py`` puts this directory there for every
command it records. The hook does nothing unless both variables are set:

- ``REACH_RECORDS``: directory that receives one ``<pid>.tsv`` per process;
- ``REACH_SOURCE``: only code objects whose file lies under it are recorded.

A profile function sees every Python call in every thread. The first call
of a code object under ``REACH_SOURCE`` appends ``file<TAB>first line`` to
the process's file at once, unbuffered, so a forked child that leaves by
``os._exit`` (as multiprocessing workers do) or is killed still leaves what
it reached. A forked child keeps the parent's hook and writes its own file.
"""

from __future__ import annotations

import os
import sys
import threading


def _install(records: str, source: str) -> None:
    prefix = os.path.join(os.path.abspath(source), "")
    seen: set = set()
    handle = [0, -1]  # pid, file descriptor

    def record(filename: str, line: int) -> None:
        pid = os.getpid()
        if handle[0] != pid:
            flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
            handle[:] = [pid, os.open(os.path.join(records, f"{pid}.tsv"), flags, 0o644)]
        os.write(handle[1], f"{filename}\t{line}\n".encode())

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                filename = os.path.abspath(code.co_filename)
                if filename.startswith(prefix):
                    record(filename, code.co_firstlineno)

    sys.setprofile(profile)
    threading.setprofile(profile)


if os.environ.get("REACH_RECORDS") and os.environ.get("REACH_SOURCE"):
    _install(os.environ["REACH_RECORDS"], os.environ["REACH_SOURCE"])
