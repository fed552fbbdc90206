"""Run one leibnizalg CLI command with the benchmark's wrappers installed.

Usage: python3 launcher.py SPANS_OUT CLI_ARGS...

The command's stdout, stderr and exit code are those of the CLI; the
spans recorded around the wrapped functions are written to SPANS_OUT as
JSON when the command returns.
"""

import json
import sys

from tracer import Tracer, install


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["leibnizalg.cli"]
    tracer.begin_op()
    try:
        return cli.main(argv)
    finally:
        tracer.end_op()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.ops[0], fh)


if __name__ == "__main__":
    sys.exit(main())
