"""Traced stand-in for ``python -m fraction_forge.cli``.

    python3 -X importtime perfbench/cli_shim.py OUT SPAWNED ARGS...

Times the import of the CLI, installs the benchmark's wrappers, calls
``cli.main(ARGS)`` and writes the spans, counters and phase times to OUT.
``SPAWNED`` is the wall-clock time at which the parent started this
process.  Exits with main's code, or with a traceback as the CLI would.
"""

import json
import sys
import time
from pathlib import Path

import spans


def main():
    out, spawned, argv = Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    record = {"spans": tracer.spans, "counters": tracer.counters}
    tracer.open("cli.import")
    import fraction_forge.cli as cli
    tracer.close()
    spans.install(tracer)
    record["pre_main_s"] = time.time() - spawned
    tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close()
        imported = tracer.spans[0]
        main_span = next(s for s in tracer.spans if s[0] == "cli.main")
        record["import_s"] = imported[2] - imported[1]
        record["main_s"] = main_span[2] - main_span[1]
        out.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
