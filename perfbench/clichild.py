"""One traced ``monomials`` request, for the traced cli-oneshot batches.

Usage: ``python clichild.py TRACE_OUT SUBCOMMAND ARGS...``.  Imports the CLI
as the ``monomials`` command would, notes when it is ready, installs the
tracer, runs the request, and writes the spans and counts to TRACE_OUT.  The
report goes to standard output and the exit code is the command's.
"""

import json
import sys
import time


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    from monomials import cli

    ready = time.time()
    from perfbench.tracer import Tracer

    tracer = Tracer().install()
    try:
        with tracer.item(0):
            code = cli.run(argv)
    finally:
        tracer.restore()
    with open(trace_out, "w") as fh:
        json.dump({"ready": ready, "raw": tracer.raw(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
