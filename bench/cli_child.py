"""Run one ``semiortho`` command with the layer tracer installed.

Usage: python3 bench/cli_child.py STATS_OUT COMMAND [ARGS...]

Times ``import semiortho.cli`` in this fresh process, runs ``cli.main`` on the
arguments with every layer traced, and writes the trace
data (see ``tracing.empty_stats``) as JSON to STATS_OUT. For ``selftest`` the
layers are left untraced, so the suite times are the library's own, and the
per-suite seconds from the ``SuiteResult`` objects go under ``suites``. Exits
with the command's exit code.
"""

import json
import sys
import time


def main() -> int:
    stats_out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import semiortho.cli as cli

    import_ns = time.perf_counter_ns() - start

    import tracing

    tracer = tracing.Tracer()
    if argv[0] == "selftest":
        run_selftest = cli.run_selftest

        def recorded(*args, **kwargs):
            outcome = run_selftest(*args, **kwargs)
            tracer.stats["suites"] = {r.name: r.seconds for r in outcome.results}
            return outcome

        cli.run_selftest = recorded
        code = cli.main(argv)
    else:
        tracer.install()
        try:
            code = cli.main(argv)
        finally:
            tracer.uninstall()
    tracer.stats["import_ns"].append(import_ns)
    with open(stats_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
