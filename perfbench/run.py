"""orbifusion benchmark: one workload, closed loop, one fresh process per pass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog|d2n|cli --seed N --seconds S --trace 0|1

Runs passes of the workload one after another, each in a new Python
process (see one_pass.py), until another pass would end after S
seconds; at least two passes run. With --trace 0 the last line of stdout
is a JSON object whose metrics are the end-to-end figures, each the
median over the passes (setup_s also counts SETUP_PROBES set-up-only
processes before each pass); with --trace 1 the passes are traced and the
metrics are the per-layer figures, again medians over passes. Progress
goes to stderr, and the whole record of the run to
.perfbench/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spans import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END_UNITS = {"wall_s": "s", "max_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
WORKLOADS = ("catalog", "d2n", "cli")
# a median needs two passes, even when one pass takes over half the run
MIN_PASSES = 2
# extra processes per pass that only set up, so setup_s is a median of
# several samples per pass rather than of one
SETUP_PROBES = 2
# a run must end within 180 s; a pass that would overrun this is killed
RUN_LIMIT_S = 170


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread: the host has two cores, and a second BLAS thread
    # competes with the other process of a pass for them
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _run_pass(args, env, timeout: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "one_pass.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--spawned", repr(time.monotonic()),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"a {args.workload} pass ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"a {args.workload} pass exited with code {proc.returncode}")
    return json.loads(out.decode("utf-8").strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "orbifusion", "cli.py")):
        print(f"no orbifusion sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = _env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)

    passes, setup_samples = [], []
    start = time.monotonic()
    while True:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = _run_pass(args, env, RUN_LIMIT_S - (time.monotonic() - start), setup_only=True)
                setup_samples.append(probe["setup_s"])
        rec = _run_pass(args, env, RUN_LIMIT_S - (time.monotonic() - start))
        passes.append(rec)
        setup_samples.append(rec["setup_s"])
        print(f"pass {len(passes)}: wall {rec['wall_s']:.3f} s, setup {rec['setup_s']:.3f} s, "
              f"slowest {rec['max_op']} {rec['max_op_s']:.3f} s, peak {rec['peak_rss_mb']:.0f} MB, "
              f"{rec['failed']}/{rec['attempted']} failed", file=sys.stderr)
        for name, why in rec["failures"].items():
            print(f"  failed {name}: {why}", file=sys.stderr)
        for message in rec["errors"]:
            print(f"  WRONG {message}", file=sys.stderr)
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    if args.trace:
        metrics = {
            name: {"value": statistics.median(p["layers"][name] for p in passes), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": statistics.median(p[name] for p in passes), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        metrics["setup_s"]["value"] = statistics.median(setup_samples)
    result = {
        "correct": not any(p["errors"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    out_dir = os.path.join(ROOT, ".perfbench")
    shutil.rmtree(os.path.join(out_dir, "work"), ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "result": result, "setup_samples": setup_samples, "passes": passes},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
