"""Run one defectcyl CLI invocation with its phases timed and its layers traced.

    python bench/cli_driver.py SUBCOMMAND [OPTIONS...]

Writes the invocation's own output to stdout, exactly as
``python -m defectcyl`` would, then one JSON line on stderr:
{"rc", "import_s", "parse_config_s", "run_s", "totals", "spans"}, where
totals are layertrace sums and spans the tracer's spans. The phases are
timed from outside: ``import defectcyl.cli``, ``parse_config(argv)`` and
``run(config)``. If the CLI no longer has parse_config and run,
``main(argv)`` runs instead and those two times are left out.

The import is timed from a bare interpreter: this module loads only sys
and time before it, so modules the CLI imports (json, csv, re, ...) count
in import_s as they do in a real run.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import defectcyl.cli as cli

    info: dict = {"import_s": time.perf_counter() - start}
    import json

    import layertrace

    parse_config = getattr(cli, "parse_config", None)
    run = getattr(cli, "run", None)
    with layertrace.Tracer() as tracer:
        if parse_config is None or run is None:
            rc = cli.main(argv)
        else:
            start = time.perf_counter()
            config = parse_config(argv)
            info["parse_config_s"] = time.perf_counter() - start
            start = time.perf_counter()
            try:
                rc = run(config)
            except (ValueError, RuntimeError, OverflowError) as exc:  # as cli.main reports them
                print(f"error: {exc}", file=sys.stderr)
                rc = 1
            info["run_s"] = time.perf_counter() - start
    sys.stdout.flush()
    info["rc"] = rc
    info["totals"] = layertrace.totals(tracer.spans, tracer.missing)
    info["spans"] = tracer.spans
    print(json.dumps(info), file=sys.stderr)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
