"""Start a ``repro`` process, optionally with the benchmark's span wrappers.

    python perfbench/launch.py [--trace-out DIR] -- serve --listen 127.0.0.1:0 ...
    python perfbench/launch.py --role worker --trace-out DIR -- --index 0 ...

The front-end role runs ``repro.cli.main`` with the remaining
arguments; the worker role runs ``repro.serve.worker.main``.  With
``--trace-out`` the launcher installs the role's wrappers first, makes
the supervisor spawn its workers through this same launcher (so worker
spans are recorded too), and writes the process's spans into ``DIR``
when the process exits.  Without it the launcher only forwards, and the
supervisor spawns ``python -m repro.serve.worker`` as usual.
"""

from __future__ import annotations

import argparse
import atexit
import os
import subprocess
import sys
from typing import Any, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402  (the benchmark's own module, beside this file)


class _SpawnThroughLauncher:
    """``subprocess`` as the supervisor sees it, with worker spawns
    rewritten to go through this launcher."""

    def __init__(self, trace_out: str) -> None:
        self._trace_out = trace_out

    def __getattr__(self, name: str) -> Any:
        return getattr(subprocess, name)

    def Popen(self, cmd: Sequence[str], *args: Any, **kwargs: Any) -> Any:  # noqa: N802
        cmd = list(cmd)
        if cmd[1:3] == ["-m", "repro.serve.worker"]:
            cmd = [
                cmd[0], os.path.abspath(__file__), "--role", "worker",
                "--trace-out", self._trace_out, "--", *cmd[3:],
            ]
        return subprocess.Popen(cmd, *args, **kwargs)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--role", choices=("frontend", "worker"),
                        default="frontend")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest

    if args.trace_out:
        recorder = spans.Recorder()
        recorder.install(args.role)
        path = os.path.join(args.trace_out, f"{args.role}-{os.getpid()}.json")
        atexit.register(recorder.dump, path)
        if args.role == "frontend":
            import repro.serve.supervisor as supervisor

            supervisor.subprocess = _SpawnThroughLauncher(args.trace_out)

    if args.role == "worker":
        from repro.serve.worker import main as worker_main

        return worker_main(rest)
    from repro.cli import main as cli_main

    return cli_main(rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
