"""Run one ftg command in this fresh interpreter and report how it went.

    python3 perfbench/child.py '{"argv": [...], "trace": false, "data": null, "t_spawn": 123.4}'

``t_spawn`` is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared by processes on one machine), so
``setup_s`` covers interpreter start, the imports a CLI call pays for (the
package plus the SciPy submodules it imports lazily) and loading the input.
``wall_s`` is the command itself. The command's stdout is captured and sent
back for checking; the result is one JSON line on this process's stdout.
"""

import json
import sys
import time
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    import contextlib
    import io
    import resource

    import ftgamma.cli
    import scipy.integrate  # noqa: F401  imported lazily by ftgamma; each call pays them
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401
    from ftgamma import load_external_fraud

    if spec["data"]:
        with open(spec["data"], "rb") as fh:
            fh.read()
    else:
        load_external_fraud()
    t_ready = time.perf_counter()

    tracer = None
    if spec["trace"]:
        import layers
        from tracer import Tracer

        tracer = Tracer(layers.PACKAGE, layers.MODULES, layers.make_hooks())
        tracer.install()
        hits0, misses0 = layers.cache_info()

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = ftgamma.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of the command is a failed command
            traceback.print_exc()
            rc = "crash"
    t1 = time.perf_counter()

    result = {
        "setup_s": t_ready - spec["t_spawn"],
        "wall_s": t1 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr_tail": err.getvalue()[-2000:],
    }
    if tracer is not None:
        tracer.uninstall()
        hits1, misses1 = layers.cache_info()
        result.update(tracer.summary())
        result["cache_hits"] = hits1 - hits0
        result["cache_misses"] = misses1 - misses0
        result["fit_ftg_ms"] = (1e3 * tracer.durations("fit.fit_ftg")).tolist()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
