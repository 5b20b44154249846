"""Start ``repro serve`` for the benchmark, traced or not.

Usage::

    python perfbench/launcher.py SPAWN_TIME TRACE_OUT -- <repro serve arguments>

``SPAWN_TIME`` is the parent's ``time.time()`` just before it started
this process; the launcher reports how long the interpreter took to
reach ``import repro`` done.  ``TRACE_OUT`` is ``-`` for an untraced
server, else the file the recorded spans are written to, on exit and on
SIGUSR1 (so a server that is about to be killed can hand them over).
"""

from __future__ import annotations

import signal
import sys
import time


def main(argv: list[str]) -> int:
    spawn_time, trace_out = float(argv[0]), argv[1]
    serve_args = argv[argv.index("--") + 1:]
    import repro  # noqa: F401 - the import is what is being timed
    from repro.cli import main as cli_main

    print(f"perfbench import_s={time.time() - spawn_time!r}", file=sys.stderr, flush=True)
    if trace_out == "-":
        return cli_main(["serve", *serve_args])
    from tracing import Recorder, install_server

    recorder = Recorder()
    install_server(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(trace_out))
    try:
        return cli_main(["serve", *serve_args])
    finally:
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
