"""Start one multfun CLI command the way the `multfun` console script does.

    python3 launch.py [--trace SPANS.json --run-id ID [--memory]] -- <multfun arguments>

multfun must be importable (the benchmark puts the checkout's src/ on
PYTHONPATH).  With --trace the layers are wrapped before multfun.cli.run is
called and the spans are written to SPANS.json when the command returns;
--memory adds the tracemalloc peaks (see tracer.py).
"""

import sys


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, cli_argv = argv[:split], argv[split + 1:]
    if not opts:
        from multfun import cli
        return cli.run(cli_argv)
    import tracer as tracing
    from multfun import cli

    trace_path, run_id = opts[opts.index("--trace") + 1], opts[opts.index("--run-id") + 1]
    tracer = tracing.Tracer(run_id, memory="--memory" in opts)
    tracing.install(tracer)
    try:
        return cli.run(cli_argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
