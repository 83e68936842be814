"""``stefan`` CLI process with spans, for the traced cli rounds.

    python3 perfbench/traced_cli.py SPANS SUBCOMMAND ARGS...

Runs ``stefan.cli.main(SUBCOMMAND ARGS...)`` inside one root span with
every traced function patched, writes the spans to SPANS and exits with
the CLI's exit code.
"""

import sys

import stefan.cli

import tracer as tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.root(lambda: stefan.cli.main(argv))
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
