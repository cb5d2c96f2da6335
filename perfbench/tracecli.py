"""Run one stableleaf CLI command in this fresh interpreter, recording spans.

    python3 perfbench/tracecli.py SPANS_JSON <stableleaf arguments...>

Records the library import and the command's stage and report calls, writes
the spans to SPANS_JSON and exits with the command's exit code.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    with tracer.span("cli.import"):
        import stableleaf.cli as cli
    with tracing.patched(tracing.tracing_replacements(tracer)):
        code = cli.run_command(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
