"""The process entry of the `sparkfinger` command: `python -m sparkfinger`
and the installed `sparkfinger` script both call run().

A CLI process is short-lived and makes no cyclic garbage per row, so run()
turns the cyclic collector off before cli (and through it numpy) loads, and
freezes every object before the interpreter exits: neither the imports nor
the exit-time collections walk numpy's objects. cli.main, the library and
any process that imports them leave the collector alone.

Standard output that refuses a write (a closed pipe, a full device) is one
`error:` line on stderr and exit 2; that holds for argparse's `--help` and
usage errors too, whose SystemExit status run() takes as main's. When
standard error refuses a write, run() points both streams at devnull,
writes nothing more and exits 2.
"""
import gc
import os
import sys


def run() -> int:
    """Run the command line in sys.argv; the exit status."""
    gc.disable()
    from . import cli

    try:
        try:
            status = cli.main()
        except SystemExit as exc:        # argparse: --help, a usage error
            status = exc.code
        sys.stdout.flush()
    except OSError as exc:
        # cli.main turns a config it cannot read and a CSV it cannot write
        # into an `error:` line, so what reaches here is standard output
        # refusing a write, or standard error refusing main's own report.
        # Point a refusing stream at devnull, so that the flush at shutdown
        # does not fail again.
        _to_devnull(sys.stdout)
        try:
            print(f"error: cannot write standard output: {exc.strerror}",
                  file=sys.stderr)
        except OSError:
            _to_devnull(sys.stderr)
        status = cli.EXIT_USAGE
    gc.freeze()
    return status


def _to_devnull(stream) -> None:
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


if __name__ == "__main__":
    sys.exit(run())
