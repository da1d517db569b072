"""One pass of one workload, in the fresh process that run.py starts.

Usage: one_pass.py --workload NAME --seed N --trace 0|1 --spawned T [--setup-only]

T is the CLOCK_MONOTONIC reading taken by run.py just before it
started this process; setup_s is the time from T to the first timed
operation. Prints one JSON line: the pass's end-to-end figures, its
failed operations, the check messages and, when traced, the per-layer
metrics and the spans (rows [layer, operation, parent index within
its process, start, end], in CLOCK_MONOTONIC seconds). With
--setup-only the process stops where the first operation would start
and prints setup_s alone.
"""

import time

_import_start = time.perf_counter()
import orbifusion.cli  # noqa: E402

_import_end = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--spawned", required=True, type=float)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop before the first operation and print only setup_s")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(orbifusion.cli.__file__).startswith(src):
        raise SystemExit(f"orbifusion was imported from {orbifusion.cli.__file__}, not from {src}")

    tracer = None
    layer_dir = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.add("cli.import", _import_start, _import_end)
        spans.install(tracer)
        layer_dir = os.path.join(ROOT, ".perfbench", "layers")
        shutil.rmtree(layer_dir, ignore_errors=True)
        os.makedirs(layer_dir)

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload["setup"](args.seed, ROOT)
    ops = workload["ops"](inputs, layer_dir)

    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    outputs, failures, op_s = {}, {}, {}
    first = time.perf_counter()
    for name, fn in ops:
        if tracer is not None:
            tracer.op = name
        start = time.perf_counter()
        try:
            with tracer.span("op") if tracer is not None else contextlib.nullcontext():
                outputs[name] = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            failures[name] = f"{type(exc).__name__}: {exc}"
        op_s[name] = time.perf_counter() - start
    wall_s = time.perf_counter() - first
    who = resource.RUSAGE_CHILDREN if workload["rss"] == "children" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.paused = True
    check_start = time.perf_counter()
    errors = workload["check"](inputs, outputs)
    check_s = time.perf_counter() - check_start

    layers = trace = None
    if tracer is not None:
        parts, trace = [tracer.layers()], tracer.spans
        for name in sorted(os.listdir(layer_dir)):
            with open(os.path.join(layer_dir, name), encoding="utf-8") as fh:
                child = json.load(fh)
            parts.append(child["layers"])
            op = name[: -len(".json")]
            trace += [[layer, op, parent, start, end] for layer, _, parent, start, end in child["spans"]]
        shutil.rmtree(layer_dir)
        layers = spans.layer_metrics(spans.merge_layers(parts))

    slowest = max(op_s, key=op_s.get)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "max_op_s": op_s[slowest],
        "max_op": slowest,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "errors": errors,
        "check_s": check_s,
        "op_s": op_s,
        "layers": layers,
        "spans": trace,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
