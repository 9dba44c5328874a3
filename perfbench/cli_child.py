"""Run one `lhc` command as a child of the benchmark.

    python3 perfbench/cli_child.py sample|trace OUT.json ARGS...

The command samples the reference loop inside its own process, once at
start and then every CHILD_TICK_S, from before `lhc` is imported until it
returns (see refclock.py), and writes the chunk times to OUT.json for the
parent to turn the command's time into ref.
With `trace` it also installs the tracer, after `lhc.cli` is imported and
before `main` runs, so lazy tables stay as cold as in an untraced command,
and adds the spans to OUT.json.
"""

import json
import sys

from refclock import RefClock

CHILD_TICK_S = 0.010

if __name__ == "__main__":
    mode, out, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    clock = RefClock()
    clock.sample()
    clock.start(CHILD_TICK_S)
    import lhc.cli

    from tracing import Tracer

    tracer = Tracer()
    if mode == "trace":
        tracer.install()
    try:
        code = lhc.cli.main(args)
    finally:
        dump = {"samples": clock.stop()}
        if mode == "trace":
            dump.update(spans=tracer.spans, counts=tracer.counts)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    sys.exit(code)
