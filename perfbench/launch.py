"""Run one ``gframes`` command line the way the console script does.

    python3 perfbench/launch.py [--trace-out FILE] <gframes arguments>

With ``--trace-out`` the layer tracer is installed before ``gframes.cli.main``
runs, and its spans are written to FILE when the process ends, whether the
command returns, exits or raises.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import gframes.cli

    sys.argv = ["gframes", *argv]
    if trace_out is None:
        gframes.cli.main()
        return
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        gframes.cli.main()
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    main()
