#!/usr/bin/env python3
"""polytoric benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src and nowhere else.  The workload's inputs are generated from the seed
and written to files before timing.  Ops then run one at a time, in whole
passes over the input list, until --seconds of op time have been spent;
each op is one input through `polytoric.cli.main(argv)` in this process or
through the library pipeline.  Every answer is checked against the
benchmark's own oracles, and every pass must reproduce the first pass's
output bytes.

Op times are reported in reference-normalized seconds: a fixed
pure-Python reference op is timed between consecutive ops, and each op's
wall time is scaled by REFERENCE_S over the mean of the two reference times
around it.  On a shared host whose speed drifts by tens of percent within
seconds, this keeps host drift out of the figures while any change in the
program's own cost passes through unchanged.  Raw wall-clock figures are
printed beside them on stderr.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced and half with every listed public function wrapped (see
layers.py), then times each sweep input once, and prints the per-layer
metrics.  The last line of stdout is the JSON result; a readable summary
goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

SETUP_SAMPLES = 7
TAIL_BEYOND = 10  # samples above the reported tail percentile
# Nominal duration of reference_op(): its median on a 2-vCPU 2.0 GHz Xeon
# VM under CPython 3.11, the hardware the bounds were set on.
REFERENCE_S = 0.0013
SWEEPS = (
    ("polymatroid.validate", (9, 10, 11, 12)),
    ("structure.closed_inseparable_family", (13, 14, 15)),
)


class Op(NamedTuple):
    case: int  # index into the case list
    wall_s: float
    ok: bool
    op_id: int
    norm_s: float  # wall_s in reference-normalized seconds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(root: str) -> None:
    """Import polytoric from <root>/src; exit 2 when the checkout lacks it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "polytoric", "cli.py")):
        die(f"no polytoric sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import polytoric
    import polytoric.cli  # noqa: F401  (loads every module the tracer wraps)

    if not os.path.abspath(polytoric.__file__).startswith(os.path.join(src, "")):
        die(f"polytoric was imported from {polytoric.__file__}, not {src}")


def reference_op() -> float:
    """Wall time of a fixed dict, tuple and sort workload (best of two,
    with the cyclic garbage collector paused so the heap left by the
    previous op does not leak into it)."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            table = {}
            for i in range(1500):
                table[(i, i * 7 % 13, i >> 3)] = [i, i + 1]
            total = 0
            for key, value in table.items():
                total += value[0] * key[1]
            sorted(table, key=lambda k: (k[1], -k[0]))
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


class Runner:
    """Runs cases, keeps each case's first output, and collects errors."""

    def __init__(self, cases):
        self.cli = sys.modules["polytoric.cli"]
        self.polymatroid = sys.modules["polytoric.polymatroid"]
        self.structure = sys.modules["polytoric.structure"]
        self.divisors = sys.modules["polytoric.divisors"]
        self.cases = cases
        self.first = {}  # case index -> (stdout, stderr) of its first op
        self.digests = {}
        self.errors = []
        self.last_reference = reference_op()

    def _call(self, case):
        if case.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                code = self.cli.main(case.argv)
                elapsed = time.perf_counter() - start
            return elapsed, code, out.getvalue(), err.getvalue()
        ctor, args = case.lib
        start = time.perf_counter()
        p = getattr(self.polymatroid.Polymatroid, ctor)(*args)
        fam = self.structure.closed_inseparable_family(p)
        pres = self.divisors.class_group(fam)
        canon = self.divisors.canonical_class(fam, pres)
        a = self.divisors.is_gorenstein(fam)
        elapsed = time.perf_counter() - start
        out = json.dumps({
            "family": [[m.mask, m.rank, m.size] for m in fam.members],
            "free_rank": pres.invariants.free_rank,
            "torsion": pres.invariants.torsion,
            "relation": list(pres.relation),
            "canonical": list(canon.coords),
            "a": a,
        })
        return elapsed, 0, out, ""

    def op(self, index: int, ops: list, tracer=None) -> float:
        """Run case `index` once and append its Op; returns its wall time.

        ok covers the exit code and byte identity with the case's first
        run; answers are checked once, in check().
        """
        case = self.cases[index]
        op_id = len(ops)
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            elapsed, code, out, err = self._call(case)
        except Exception:  # an op that raises counts as failed; keep going
            elapsed, code, out, err = time.perf_counter() - start, None, "", ""
            self.errors.append(f"{case.label}: {traceback.format_exc(limit=3)}")
        finally:
            if tracer is not None:
                tracer.end_op()
        before, self.last_reference = self.last_reference, reference_op()
        scale = REFERENCE_S / ((before + self.last_reference) / 2)
        digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
        if code is not None and index not in self.digests:
            self.digests[index] = digest
            self.first[index] = (out, err)
        ok = code == case.expect_code and digest == self.digests.get(index)
        if code is not None and not ok:
            self.errors.append(f"{case.label}: exit {code} (expected {case.expect_code})"
                               " or output differs from the first pass")
        ops.append(Op(index, elapsed, ok, op_id, elapsed * scale))
        return elapsed

    def check(self) -> set:
        """Indices of cases whose first output fails its oracle."""
        bad = set()
        for index, (out, err) in self.first.items():
            case = self.cases[index]
            try:
                problems = case.check(out, err)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                bad.add(index)
                self.errors.append(f"{case.label}: {'; '.join(problems[:3])}")
        return bad


def closed_loop(runner, cases: int, seconds: float, ops: list, tracer=None) -> None:
    """Whole passes over the first `cases` cases until `seconds` of op
    time are spent."""
    spent = 0.0
    deadline = time.perf_counter() + 3 * seconds  # bounds a run of failing ops
    while spent < seconds and time.perf_counter() < deadline:
        for index in range(cases):
            spent += runner.op(index, ops, tracer)


def setup_seconds(root: str, workdir: str) -> list:
    """Reference-normalized wall time of fresh-interpreter
    `python -m polytoric.cli analyze` on a tiny input, repeated; the first
    (bytecode-compiling) run is not kept."""
    path = os.path.join(workdir, "tiny.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": 2, "kind": "box", "v": [1, 1]}, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [sys.executable, "-m", "polytoric.cli", "analyze", path]
    samples = []
    before = reference_op()
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, cwd=root, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            die(f"cold-start analyze exited {done.returncode}: {done.stderr!r}")
        after = reference_op()
        samples.append(elapsed * REFERENCE_S / ((before + after) / 2))
        before = after
    return samples[1:]


def tail(times: list) -> tuple:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it (the largest sample if there are fewer)."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0) if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def pass_rate(ops, field: str = "norm_s") -> float:
    """Median over whole passes of ops per second of op time; a median
    over passes keeps a few seconds of host noise out of the figure."""
    rates, count, spent = [], 0, 0.0
    for op in ops:
        if op.case == 0 and count:
            rates.append(count / spent)
            count, spent = 0, 0.0
        count += 1
        spent += getattr(op, field)
    rates.append(count / spent)
    return statistics.median(rates)


def end_to_end(ops, setup: list, failed: int, attempted: int) -> tuple:
    """The end-to-end metrics over `ops`, and the figures reported beside
    them: tail percentile, op count, failed share and raw wall times."""
    good = [op for op in ops if op.ok]
    if not good:
        die("every op failed; no timing to report")
    norm = [op.norm_s for op in good]
    wall = [op.wall_s for op in good]
    tail_s, tail_pct = tail(norm)
    return {
        "ops_per_s": (pass_rate(ops), "1/s"),
        "op_p50_s": (statistics.median(norm), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }, {
        "op_tail_pct": (tail_pct, "%"),
        "op_count": (len(good), "count"),
        "failed_frac": (failed / attempted, "fraction"),
        "wall.ops_per_s": (pass_rate(ops, "wall_s"), "1/s"),
        "wall.op_p50_s": (statistics.median(wall), "s"),
        "wall.op_tail_s": (tail(wall)[0], "s"),
    }


def per_layer(runner, traced, main_cases, tracer, e2e) -> dict:
    """Mean self seconds (reference-normalized) and calls per op of each
    wrapped function over the traced pass ops, result-size counts, tracing
    overhead, and the per-n sweep (0 on a workload with no sweep op of
    that size)."""
    passes = [op for op in traced if op.case < main_cases]
    sweep = [op for op in traced if op.case >= main_cases]
    metrics = {k: (v, "s" if k.endswith("self_s") else "count")
               for k, v in tracer.per_op(scales(passes)).items()}
    metrics["trace.ops_per_s_ratio"] = (pass_rate(passes) / e2e["ops_per_s"][0], "ratio")
    for fn, sizes in SWEEPS:
        for n in sizes:
            chosen = [op for op in sweep if runner.cases[op.case].n == n]
            value = tracer.per_op(scales(chosen))[f"{fn}.self_s"] if chosen else 0.0
            metrics[f"{fn}.self_s.n{n}"] = (value, "s")
    return metrics


def scales(ops) -> dict:
    return {op.op_id: op.norm_s / op.wall_s if op.wall_s else 1.0 for op in ops}


def report(args, runner, ops, metrics) -> None:
    """Readable summary on stderr: every metric, then time per input."""
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:52s} {shown:>12s} {unit}", file=sys.stderr)
    per_case = {}
    for op in ops:
        per_case.setdefault(op.case, []).append(op)
    for index, case_ops in sorted(per_case.items()):
        case = runner.cases[index]
        print(f"  input {case.label:36s} n={case.n:<3d} ops={len(case_ops):<4d} "
              f"median={statistics.median(op.norm_s for op in case_ops):.4f}s "
              f"wall={statistics.median(op.wall_s for op in case_ops):.4f}s", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    import_program(root)
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    build, build_sweep = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(root, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        builder = workloads.Builder(workdir, random.Random(f"{args.workload}/{args.seed}"))
        build(builder)
        main_cases = len(builder.cases)
        if args.trace and build_sweep is not None:
            build_sweep(builder)
        setup = setup_seconds(root, workdir)

        runner = Runner(builder.cases)
        ops = []
        tracer = None
        if not args.trace:
            closed_loop(runner, main_cases, args.seconds, ops)
            untraced = len(ops)
        else:
            closed_loop(runner, main_cases, args.seconds / 2, ops)
            untraced = len(ops)
            tracer = layers.Tracer()
            tracer.install()
            try:
                closed_loop(runner, main_cases, args.seconds / 2, ops, tracer)
                for index in range(main_cases, len(builder.cases)):
                    runner.op(index, ops, tracer)
            finally:
                tracer.uninstall()
        bad_cases = runner.check()
        failed = sum(1 for op in ops if not op.ok or op.case in bad_cases)
        for line in runner.errors[:20]:
            print(f"FAILED {line}", file=sys.stderr)
        e2e, extra = end_to_end(ops[:untraced], setup, failed, len(ops))
        metrics = e2e
        if tracer is not None:
            metrics = per_layer(runner, ops[untraced:], main_cases, tracer, e2e)
            metrics.update((k, extra[k]) for k in ("op_tail_pct", "op_count", "failed_frac"))
            outdir = os.path.join(root, ".perfbench-out")
            os.makedirs(outdir, exist_ok=True)
            tracer.write(os.path.join(outdir, f"spans-{args.workload}-{args.seed}.jsonl"))
        report(args, runner, ops, {**e2e, **extra, **metrics})
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run's inputs are still there


if __name__ == "__main__":
    sys.exit(main())
