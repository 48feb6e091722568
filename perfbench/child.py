"""One benchmark operation: a fresh interpreter running one centrallift command.

Usage (from the checkout root):

    python3 perfbench/child.py SRC RESULT [--trace SPANS] [--dry] -- ARGV...

Imports ``centrallift`` from SRC (and refuses any other copy), optionally
installs the span tracer, then calls ``cli.main(ARGV)``.  It writes a
JSON object to RESULT: the monotonic clock just before the first call
into the program (``t_ready``) and just after it returns (``t_done``),
the command's exit code and ``ru_maxrss`` of this process.  With
``--dry`` it stops before the call, which measures set-up alone.
"""

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1 :]
    src, result = os.path.abspath(opts[0]), opts[1]
    spans_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    dry = "--dry" in opts

    sys.path.insert(0, src)
    import centrallift
    from centrallift import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(centrallift.__file__))) != src:
        print(f"centrallift imported from {centrallift.__file__}, not {src}", file=sys.stderr)
        return 90

    tracer = None
    if spans_path:
        import spans  # found beside this script, which is sys.path[0]

        tracer = spans.Tracer()
        tracer.install()

    t_ready = time.monotonic_ns()
    code = None if dry else cli.main(cli_argv)
    t_done = time.monotonic_ns()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result, "w", encoding="utf-8") as handle:
        json.dump(
            {"t_ready": t_ready, "t_done": t_done, "exit": code, "maxrss_kb": maxrss_kb},
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
