"""One pass of a workload, in a fresh process.

    python3 perfbench/onepass.py ROOT PLAN OUTROOT SPAWNED MODE

ROOT is the checkout, PLAN the JSON list of commands, OUTROOT where each
command writes its outputs, SPAWNED the CLOCK_MONOTONIC reading taken by
the parent just before it started this process, and MODE one of
``setup`` (import and resolve only), ``plain`` or ``traced``.

Each command runs through ``hesim.cli.main`` in this process. The
reference kernel runs after set-up and after every command, so each time
comes with the kernel's time measured next to it. The last line of
standard output is a JSON object with the pass's measurements. Imports
stay to the standard library until set-up is measured.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _call_cli(main, argv: list) -> tuple:
    """Exit code and captured standard error of one CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI exits 1 on anything it does not handle
            traceback.print_exc(file=err)
            rc = 1
    return rc, err.getvalue()


def _reference(np, x) -> tuple:
    """Wall and CPU time of a fixed piece of work that does not touch hesim.

    It mixes what the workloads spend their time on: element-wise numpy on
    a 256x256 array, a single-threaded BLAS product, and interpreted Python.
    Load from outside the process slows it much as it slows the commands.
    """
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(6):
        y = np.exp(-x * x) * np.cos(3.0 * x)
        (y @ y[:64].T).sum()
    s = 0
    for i in range(100_000):
        s += i * i
    return time.perf_counter() - w0, time.process_time() - c0


def _bytes_under(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def main() -> int:
    root, plan_path, outroot, spawned, mode = sys.argv[1:6]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    with open(plan_path) as fh:
        commands = json.load(fh)

    import hesim.cli

    if not os.path.abspath(hesim.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"hesim imported from {hesim.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    rc, err = _call_cli(hesim.cli.main, [*commands[0]["argv"], "--dry-run"])
    setup_s = time.monotonic() - float(spawned)
    if rc != 0:
        print(f"resolving the first config failed ({rc}): {err}", file=sys.stderr)
        return 2
    import numpy

    x = numpy.linspace(-3.0, 3.0, 256 * 256).reshape(256, 256)
    _reference(numpy, x)  # warm-up
    ref = _reference(numpy, x)
    result = {"setup_s": setup_s, "setup_ref_s": ref[0]}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    import workloads
    from tracer import Tracer

    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    runs = []
    times = {}
    for cmd in commands:
        outdir = os.path.join(outroot, cmd["name"])
        before = tracer.snapshot() if tracer else None
        w0, c0 = time.perf_counter(), time.process_time()
        rc, err = _call_cli(hesim.cli.main, [*cmd["argv"], "--out", outdir])
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        after = tracer.snapshot() if tracer else None
        ref_after = _reference(numpy, x)
        # the command's time and the mean reference time around it
        times[cmd["name"]] = (
            wall, cpu, (ref[0] + ref_after[0]) / 2, (ref[1] + ref_after[1]) / 2
        )
        ref = ref_after
        runs.append((cmd, outdir, rc, err, before, after))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.active = False

    failed = 0
    problems = []
    digests = {}
    for cmd, outdir, rc, err, before, after in runs:
        cmd_failed, cmd_problems = workloads.check(cmd, outdir, rc, err)
        if os.path.isdir(outdir):
            got = digests[cmd["name"]] = workloads.digest(outdir)
            if cmd.get("digest") and got != cmd["digest"]:
                cmd_problems.append(f"artifact digest {got}, recorded {cmd['digest']}")
        failed += bool(cmd_failed or cmd_problems)
        problems += [f"{cmd['name']}: {p}" for p in cmd_problems]
        if tracer:
            for name, want in cmd["expect_calls"].items():
                calls = after[name] - before[name]
                if calls != want:
                    problems.append(f"{cmd['name']}: {calls} calls of {name}, expected {want}")

    if tracer:
        problems += [f"binding left unwrapped: {site}" for site in tracer.unwrapped]
        layers = {k: list(v) for k, v in tracer.metrics().items()}
        layers["artifacts.bytes"] = [_bytes_under(outroot), "bytes"]
        result.update(layers=layers, missing=tracer.missing)
    result.update(
        times=times,
        peak_rss_mb=peak_rss_mb,
        attempted=len(commands),
        failed=failed,
        problems=problems,
        digests=digests,
        numpy=numpy.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
