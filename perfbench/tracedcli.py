"""`python -m sparkfinger` with the tracer installed, for the traced CLI run.

Takes the sparkfinger command line unchanged and writes the span totals to
trace.json in the directory given by --out, which the benchmark always
passes.
"""
import json
import sys
from pathlib import Path

import tracer as tracing
from sparkfinger import cli


def main(argv):
    outdir = Path(argv[argv.index("--out") + 1])
    t = tracing.Tracer()
    t.install()
    try:
        return cli.main(argv)
    finally:
        (outdir / "trace.json").write_text(json.dumps(t.stats))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
