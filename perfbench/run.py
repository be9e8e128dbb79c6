"""hesim benchmark: run one workload through the CLI and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one workload, or ``all`` to run every workload in turn. It runs
from anywhere and uses the checkout it sits in. Each pass of the workload is
a fresh process (``onepass.py``) that imports ``hesim.cli`` from ``src/``
and runs the workload's commands in-process, writing under a temporary
directory inside the checkout that is removed at the end. Passes repeat
until ``--seconds`` is used up, at least one of each kind. A time is the
sum over commands of each command's median across passes, at reference
speed (see REF_KERNEL_S); the host's own times are printed beside it.
``--trace 1``
alternates plain and traced passes and reports the per-layer metrics. The
last line of standard output is the JSON result. See perfbench/README.md
for workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 10  # set-up only processes per run, after one warm-up
TIME_LIMIT_S = 170.0  # the whole run, passes included
# Times are reported at reference speed: divided by the time of a fixed
# kernel (onepass._reference) measured next to them, times REF_KERNEL_S.
# That is the time on a host where the kernel takes REF_KERNEL_S, its
# median on the 2-core host the benchmark was tuned on. Load from other
# tenants of a shared host moves a command's time by up to 50% within
# seconds and drifts for minutes; it moves the kernel's time with it.
REF_KERNEL_S = 0.018


class PassError(RuntimeError):
    pass


def _spawn(mode: str, plan: str, outroot: str, env: dict, deadline: float) -> dict:
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "onepass.py"), str(ROOT), plan, outroot,
             repr(spawned), mode],
            env=env, capture_output=True, text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise PassError(f"{mode} pass ran past the {TIME_LIMIT_S:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _pass_time(passes: list, index: int, at_reference: bool = True) -> float:
    """Sum over commands of each command's median time across passes.

    0 is wall time, 1 CPU time. At reference speed, each time is first
    divided by the reference kernel's time measured around it in the same
    process (index + 2) and multiplied by REF_KERNEL_S.
    """
    def one(p, name):
        t = p["times"][name]
        return REF_KERNEL_S * t[index] / t[index + 2] if at_reference else t[index]

    return sum(median([one(p, n) for p in passes]) for n in passes[0]["times"])


def _digest_problems(passes: list) -> list:
    first = passes[0]["digests"]
    if any(p["digests"] != first for p in passes[1:]):
        return ["artifact bytes differ between passes of the same inputs"]
    return []


def _load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def _record_digests(workload: str, seed: int, digests: dict) -> None:
    table = _load_digests()
    table.setdefault(workload, {})[str(seed)] = digests
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run(workload: str, args, tmp: str) -> dict:
    """Run one workload, print its report lines, and return its result."""
    threads, make_commands = workloads.WORKLOADS[workload]
    env = dict(
        os.environ,
        HE_SIM_THREADS=str(threads),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp)
    cfgdir = os.path.join(tmp, "config")
    os.makedirs(cfgdir)
    plan = os.path.join(tmp, "plan.json")
    commands = make_commands(args.seed, cfgdir)
    recorded = _load_digests().get(workload, {}).get(str(args.seed), {})
    for cmd in commands:
        cmd["digest"] = recorded.get(cmd["name"])
    with open(plan, "w") as fh:
        json.dump(commands, fh)

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    # the first start in a fresh checkout also compiles bytecode: not timed
    _spawn("setup", plan, tmp, env, deadline)

    def probe(n):
        return [_spawn("setup", plan, tmp, env, deadline) for _ in range(n)]

    setup = probe(SETUP_PROBES // 2)

    modes = ("plain", "traced") if args.trace else ("plain",)
    passes = {m: [] for m in modes}
    durations = []
    measure_start = time.monotonic()
    while True:
        mode = modes[sum(map(len, passes.values())) % len(modes)]
        outroot = os.path.join(tmp, "pass")
        t0 = time.monotonic()
        result = _spawn(mode, plan, outroot, env, deadline)
        durations.append(time.monotonic() - t0)
        shutil.rmtree(outroot, ignore_errors=True)
        passes[mode].append(result)
        setup.append(result)
        # stop where the next pass would most likely end past --seconds
        elapsed = time.monotonic() - measure_start
        if all(passes.values()) and elapsed + median(durations) / 2 > args.seconds:
            break

    setup += probe(SETUP_PROBES - SETUP_PROBES // 2)
    plain = passes["plain"]
    every = plain + passes.get("traced", [])
    e2e = {
        "setup_s": (
            REF_KERNEL_S * median([p["setup_s"] / p["setup_ref_s"] for p in setup]), "s"
        ),
        "wall_s": (_pass_time(plain, 0), "s"),
        "cpu_s": (_pass_time(plain, 1), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in plain]), "MB"),
    }
    host = {  # the same times as the host measured them
        "setup_s": median([p["setup_s"] for p in setup]),
        "wall_s": _pass_time(plain, 0, at_reference=False),
        "cpu_s": _pass_time(plain, 1, at_reference=False),
        "ref_kernel_s": median([p["setup_ref_s"] for p in setup]),
    }
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    problems = list(dict.fromkeys(q for p in every for q in p["problems"]))
    problems += _digest_problems(every)
    if args.record_digests:
        _record_digests(workload, args.seed, every[0]["digests"])

    reported = e2e
    if args.trace:
        traced = passes["traced"]
        reported = {
            name: (median([p["layers"][name][0] for p in traced]), unit)
            for name, (_, unit) in traced[0]["layers"].items()
        }
        reported["trace.overhead_s"] = (_pass_time(traced, 0) - e2e["wall_s"][0], "s")

    info = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "HE_SIM_THREADS": env["HE_SIM_THREADS"],
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": every[0]["numpy"],
        "passes": {m: len(p) for m, p in passes.items()},
        "pass_wall_s": [round(sum(t[0] for t in p["times"].values()), 3) for p in plain],
        "setup_samples": len(setup),
        "host": {k: round(v, 4) for k, v in host.items()},
    }
    print("env " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in {**e2e, **reported}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_rate = {failed / attempted:.6g} ({failed} of {attempted} commands)")
    for name in passes.get("traced", [{}])[0].get("missing", []):
        print(f"warning: {name} no longer exists; its layer metrics read 0")
    for problem in problems:
        print(f"problem: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="store this run's artifact digests as the reference for its seed",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hesim" / "cli.py").is_file():
        print(f"no hesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {}
        for name in names:
            print(f"## {name}")
            results[name] = run(name, args, tmp)
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is still using it
            pass
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"{name}: " + json.dumps(result))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
