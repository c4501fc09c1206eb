#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of rbx.

    python3 perfbench/run.py --workload claims --seed 1 --seconds 30 --trace 0

Each operation is one `rbx.cli.main([...])` call in this process, with
stdout captured and --jobs left at its default of 1; a pass runs every
operation of the workload once, in an order drawn from --seed.  Passes
repeat until --seconds is used up.  Every output is checked with the
independent code in check.py; all passes must print the same bytes.

--trace 0 reports the end-to-end metrics: setup_s (process start until
rbx is imported and the inputs are read), pass_s (median pass time), both
at nominal host speed (see hostspeed.py), and peak_rss_mb.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, with the tracing overhead; spans go to perfbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Exit status 2, with no result, when rbx cannot be imported from
the checkout's src/.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()


def process_age() -> float:
    """Seconds since this process started, from /proc when it is there."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import check  # noqa: E402
from hostspeed import HostSpeedSampler  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

WORKLOADS = ("claims", "enumerate-dense", "classify")

# A run makes at least this many untraced passes, even past --seconds; a
# traced run at least one untraced and one traced pass.
MIN_PASSES = 2

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("search.enumerate_rb.self_s", "s"),
    ("search.enumerate_automorphisms.self_s", "s"),
    ("search.enumerate_derivations.self_s", "s"),
    ("rb.check_rb.calls", "count"),
    ("rb.check_rb.self_s", "s"),
    ("rb.check_rb.calls_per_operator", "ratio"),
    ("rb.check_derivation_weight.calls", "count"),
    ("rb.check_derivation_weight.self_s", "s"),
    ("rb.is_splitting.self_s", "s"),
    ("rb.diagnostics.self_s", "s"),
    ("algebras.check_automorphism.calls", "count"),
    ("algebras.check_automorphism.self_s", "s"),
    ("search.auto_leaf_yield", "ratio"),
    ("linalg.rank_nullspace.self_s", "s"),
    ("linalg.Matrix.rank.self_s", "s"),
    ("orbits.orbit_classify.self_s", "s"),
    *((f"orbits.verify_claim.{cid}.s", "s") for cid in check.CLAIMS),
    ("formats.algebra_from_text.self_s", "s"),
    ("cli.main.self_s", "s"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_pct", "%"),
)


# ---------------------------------------------------------------------------
# workloads: their operations and the checks of their outputs
# ---------------------------------------------------------------------------


def _input(name: str) -> str:
    return str(check.INPUTS / name)


def operations(workload: str) -> list[tuple[str, list[str]]]:
    if workload == "claims":
        return [
            (cid, ["verify", "--claim", cid, "--p", str(c.p), "--weight", str(c.weight)])
            for cid, c in check.CLAIMS.items()
        ]
    if workload == "enumerate-dense":
        return [
            ("tp4-f2-rb-w1", ["enumerate", "--algebra", _input("tp4_f2.alg"),
                              "--allow-char2", "--weight", "1"]),
            ("gr2-f3-derivation-w1", ["enumerate", "--algebra", _input("gr2_f3.alg"),
                                      "--kind", "derivation", "--weight", "1"]),
        ]
    return [
        (f"gr2-f3-classify-w{w}", ["classify", "--algebra", _input("gr2_f3.alg"), "--weight", str(w)])
        for w in (0, 1)
    ]


def check_outputs(workload: str, outputs: dict):
    """Raise check.CheckFailed unless every output (code, text) is right."""
    if workload == "claims":
        m2 = check.load_algebra("m2_f3.alg")
        m2_group = (m2, check.m2_group(m2))
        for cid, (code, text) in outputs.items():
            check.check_claim(cid, text, code, m2_group)
        return
    gr2 = check.load_algebra("gr2_f3.alg")
    gr2_autos = check.MatrixGroup(check.automorphisms(gr2), gr2.dim, gr2.p)
    for label, (code, text) in outputs.items():
        check.require(code == 0, f"{label}: exit code {code}")
        if label == "tp4-f2-rb-w1":
            tp4 = check.load_algebra("tp4_f2.alg")
            autos = check.MatrixGroup(check.automorphisms(tp4), tp4.dim, tp4.p)
            check.check_enumeration(text, tp4, "rb", 1, check.FIGURES["TP4-F2-w1"], autos)
        elif label == "gr2-f3-derivation-w1":
            check.check_enumeration(
                text, gr2, "derivation", 1, check.FIGURES["Gr2-F3-derivations-w1"], gr2_autos
            )
        else:
            w = int(label[-1])
            total = check.FIGURES[f"Gr2-F3-w{w}"]
            check.check_classify(text, gr2, w, total, gr2_autos)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, cli_main, ops):
        self.cli_main = cli_main
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.outputs: dict = {}
        self.mismatch: list[str] = []

    def run_op(self, label: str, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            self.failed += 1
            print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        if code not in (0, 1):
            self.failed += 1
            print(f"{label}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
            return
        result = (code, out.getvalue())
        first = self.outputs.setdefault(label, result)
        if first != result:
            self.mismatch.append(label)

    def one_pass(self, tracer: Tracer | None = None) -> HostSpeedSampler:
        gc.collect()
        with HostSpeedSampler() as sampler:
            if tracer is not None:
                tracer.clock = sampler.clock
                tracer.install()
            try:
                for label, argv in self.ops:
                    self.run_op(label, argv)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        return sampler


def layer_metrics(summary: dict, speed: float) -> dict:
    by_name = summary["by_name"]

    def self_s(name):
        return by_name.get(name, (0, 0.0, 0.0))[1] * speed

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    values = {}
    for metric, _ in PER_LAYER:
        if metric.startswith("orbits.verify_claim."):
            cid = metric[len("orbits.verify_claim."):-len(".s")]
            values[metric] = summary["claims"].get(cid, 0.0) * speed
        elif metric.startswith("layer."):
            layer = metric.split(".")[1]
            values[metric] = sum(self_s(n) for n in by_name if n.split(".")[0] == layer)
        elif metric.endswith(".self_s"):
            values[metric] = self_s(metric[: -len(".self_s")])
        elif metric.endswith(".calls"):
            values[metric] = calls(metric[: -len(".calls")])
    ops = summary["operators"]
    values["rb.check_rb.calls_per_operator"] = summary["check_rb_in_search"] / ops if ops else 0.0
    leaves = summary["auto_leaves"]
    values["search.auto_leaf_yield"] = summary["automorphisms"] / leaves if leaves else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rbx" / "__init__.py").is_file():
        print(f"error: no rbx package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rbx.cli

    if Path(rbx.cli.__file__).resolve().parent != SRC / "rbx":
        print(f"error: imported rbx from {rbx.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops = operations(args.workload)
    # set-up ends once the input files have been read
    for _, op_argv in ops:
        if "--algebra" in op_argv:
            Path(op_argv[op_argv.index("--algebra") + 1]).read_text(encoding="utf-8")
    random.Random(args.seed).shuffle(ops)
    setup_wall_s = process_age()

    # rbx.cli.main is looked up on each call, so traced passes go through
    # the tracer's wrapper
    runner = Runner(lambda a: rbx.cli.main(a), ops)
    untraced: list[HostSpeedSampler] = []
    traced: list[tuple[HostSpeedSampler, dict]] = []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    last = 0.0
    min_passes = 1 if tracer is not None else MIN_PASSES
    peak_rss_mb = 0.0
    while len(untraced) < min_passes or time.perf_counter() - start + last <= args.seconds:
        t = time.perf_counter()
        untraced.append(runner.one_pass())
        if len(untraced) == MIN_PASSES:
            # read at a fixed pass, since how many passes fit in --seconds
            # follows the host's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            first = len(tracer.spans)
            sampler = runner.one_pass(tracer)
            traced.append((sampler, tracer.summary(first)))
        last = time.perf_counter() - t

    correct = True
    try:
        check.require(not runner.mismatch, f"passes printed different output: {runner.mismatch}")
        check_outputs(args.workload, runner.outputs)
    except check.CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)

    pass_s = statistics.median(s.nominal_s for s in untraced)
    # The host's speed drifts over minutes, so the first pass, which starts
    # right after set-up, gives the speed to convert set-up to nominal too.
    setup_s = setup_wall_s * untraced[0].speed
    print(f"setup: wall {setup_wall_s:.3f}s nominal {setup_s:.3f}s", file=sys.stderr)
    for k, s in enumerate(untraced):
        print(
            f"pass {k}: wall {s.busy_s:.3f}s host speed {s.speed:.3f} "
            f"nominal {s.nominal_s:.3f}s ({len(s.chunks)} samples)",
            file=sys.stderr,
        )
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "pass_s": pass_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        per_pass = [layer_metrics(summary, s.speed) for s, summary in traced]
        metrics = {
            name: statistics.median(v[name] for v in per_pass)
            for name, _ in PER_LAYER
            if name != "trace.overhead_pct"
        }
        traced_s = statistics.median(s.nominal_s for s, _ in traced)
        metrics["trace.overhead_pct"] = (traced_s / pass_s - 1.0) * 100.0
        units = dict(PER_LAYER)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
