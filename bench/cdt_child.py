"""Bootstrap for one cdt CLI process: ``python bench/cdt_child.py <cdt args>``.

Runs ``cdt.cli:console_main`` from the checkout's ``src``.  With
CDT_BENCH_TRACE=<path> it first installs the span wrappers and the F point
counter, and writes the aggregates (and, with CDT_BENCH_SPANS=1, the spans)
to <path> before exiting with the CLI's exit code.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

trace_path = os.environ.get("CDT_BENCH_TRACE")
if not trace_path:
    from cdt.cli import console_main

    console_main()
else:
    import functools
    import json

    import cdt.cli
    import cdt.expr

    sys.path.insert(0, str(BENCH_DIR))
    from tracing import PointCounter, Tracer

    fpoints = PointCounter()
    compile_expression = cdt.expr.compile_expression

    @functools.wraps(compile_expression)
    def counted_compile(text):
        return fpoints.wrap(compile_expression(text))

    cdt.expr.compile_expression = counted_compile
    tracer = Tracer()
    tracer.recording = os.environ.get("CDT_BENCH_SPANS") == "1"
    tracer.install()
    code = 0
    try:
        cdt.cli.console_main()
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        agg = tracer.take()
        agg["F_points"] = fpoints.points
        agg["spans"] = tracer.spans
        Path(trace_path).write_text(json.dumps(agg))
        sys.stdout.flush()
    sys.exit(code)
