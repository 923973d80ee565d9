"""Layered benchmark for escalier.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the library is imported from ./src. One
client, one thread, closed loop: the workload's fixed op list (made from
--seed) runs pass after pass, each op as many times as the workload's
runs() gives it, its runs spread evenly over the passes. Every op list
holds at least MIN_OPS ops. Every op is timed alone. Its output is
checked and fingerprinted outside the timed region: in full on the first
pass, and against the first pass's fingerprint afterwards.

Every run of an op is a latency sample, and throughput is the samples
over the seconds they took. On a shared machine the host's speed drifts
by tens of percent within seconds; figures taken over every run, spread
over the whole run, average that drift, where the best of a few runs
of an op would follow its fastest moments, which come and go. Every op
gets the same number of runs on every seed and host. The op lists are
sized so that the passes take at most about --seconds on a 2-vCPU host;
the run does not stop early, and the line before the result reports the
seconds the run took.

--trace 0 prints the end-to-end metrics. --trace 1 runs TRACED_PAIRS
pairs of an untraced and a traced pass and prints the per-layer metrics;
it writes the spans to perfbench/out/. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the
line before it carries the sample counts, the per-pass query count and
the calibration loop timings. Exit code 0 when every check passed, 1
when one failed, 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import SPANNED_MODULES, Tracer
from workloads import P, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MODULES = ("terms", "words", "polynomials", "nc_polynomials", "oracle", "staircase", "peeling", "crypto", "forge")
SETUPS = 25         # set-ups timed between the untraced passes; setup_s is their median
MIN_OPS = 100       # ops per pass: leaves at least 10 samples beyond the 90th percentile
TRACED_PAIRS = 2    # untraced + traced pass pairs in the traced run
CLI_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "throughput_ops": "ops/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "terms.order_key.calls": "count",
    "terms.divides.calls": "count",
    "terms.lcm.calls": "count",
    "polynomials.buchberger.calls": "count",
    "polynomials.buchberger.self_s": "s",
    "polynomials.s_polynomial.calls": "count",
    "polynomials.normal_form.calls": "count",
    "polynomials.normal_form.self_s": "s",
    "polynomials.normal_form.zero_frac": "ratio",
    "polynomials.mul.self_s": "s",
    "polynomials.basis_size": "count",
    "oracle.construct.self_s": "s",
    "oracle.member_T.calls": "count",
    "oracle.member_T.self_s": "s",
    "oracle.can_term.calls": "count",
    "oracle.can_term.self_s": "s",
    "oracle.can_poly.calls": "count",
    "oracle.can_poly.fanout": "ratio",
    "oracle.masked_can.calls": "count",
    "staircase.reconstruct.calls": "count",
    "staircase.reconstruct.self_s": "s",
    "staircase.queries.linear": "count",
    "staircase.queries.binary": "count",
    "staircase.queries_per_gen": "ratio",
    "staircase.box_frac": "ratio",
    "words.word_key.calls": "count",
    "words.is_factor.calls": "count",
    "nc_polynomials.nc_normal_form.calls": "count",
    "nc_polynomials.nc_normal_form.self_s": "s",
    "nc_polynomials.overlap_check.self_s": "s",
    "peeling.covering_basis.self_s": "s",
    "peeling.peel.calls": "count",
    "peeling.peel.self_s": "s",
    "peeling.queries_per_peel": "ratio",
    "crypto.keygen.self_s": "s",
    "crypto.encrypt.self_s": "s",
    "crypto.decrypt.self_s": "s",
    "crypto.recover_basis_element.self_s": "s",
    "crypto.attack_commutative.self_s": "s",
    "crypto.nc_attack_probe.self_s": "s",
    "forge.build_counterexample.self_s": "s",
    "forge.demonstrate_bound_necessity.self_s": "s",
    "polynomials.self_s": "s",
    "oracle.self_s": "s",
    "staircase.self_s": "s",
    "nc_polynomials.self_s": "s",
    "peeling.self_s": "s",
    "crypto.self_s": "s",
    "forge.self_s": "s",
    "cli.import_ms": "ms",
    "cli.recon_ms.p50": "ms",
    "cli.attack_ms.p50": "ms",
    "trace.overhead_frac": "ratio",
    "oracle_queries": "count",
    "fail_frac": "ratio",
}


def _escalier_modules() -> dict:
    return {m: mod for m, mod in sys.modules.items() if m == "escalier" or m.startswith("escalier.")}


def fresh_import():
    """Import every escalier module from ./src, dropping earlier copies so
    each set-up pays the whole import."""
    for name in _escalier_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("escalier")
    if Path(pkg.__file__).resolve().parent != SRC / "escalier":
        raise ImportError(f"escalier imported from {pkg.__file__}, not from ./src")
    return SimpleNamespace(**{m: importlib.import_module(f"escalier.{m}") for m in MODULES})


def timed_setup(workload, seed: int) -> float:
    """Seconds for a fresh import plus generating the inputs from the seed.
    The modules in use are put back afterwards, so the running op list is
    untouched, and the garbage is collected before any op is timed."""
    saved = _escalier_modules()
    start = perf_counter()
    workload.build(fresh_import(), random.Random(seed))
    elapsed = perf_counter() - start
    for name in _escalier_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    gc.collect()
    return elapsed


def calibrate_ms() -> float:
    """Best of three timings of a fixed pure-Python loop, to tell host
    drift apart from the program. No metric is divided by it."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, perf_counter() - start)
    return best * 1000


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Runner:
    """Runs passes over the op list and checks their outputs."""

    def __init__(self, workload, lib, ops):
        self.workload = workload
        self.lib = lib
        self.ops = ops
        self.fingerprints: dict = {}  # op index -> fingerprint of its checked output
        self.queries: dict = {}       # op index -> ledger queries of its first run
        self.runs: dict = {i: [] for i in range(len(ops))}  # op index -> untraced seconds
        # an op with fewer than RUNS runs runs every `stride` passes; ops
        # of one stride take turns, so the passes are about as long
        self.stride, self.phase = [], []
        taken: dict = {}
        for op in ops:
            stride = workload.RUNS // workload.runs(op)
            self.stride.append(stride)
            self.phase.append(taken.get(stride, 0) % stride)
            taken[stride] = taken.get(stride, 0) + 1
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def fail(self, where, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {why}")

    def _check(self, index: int, op, out) -> None:
        fingerprint = self.workload.fingerprint(self.lib, op, out)
        known = self.fingerprints.get(index)
        if known is not None:
            # the fingerprint covers the query count: this is the determinism guard
            if fingerprint != known:
                self.fail(f"op {index}", "output or query count differs from its first run")
            return
        problems = self.workload.check(self.lib, op, out)
        if problems:
            self.fail(f"op {index}", "; ".join(problems))
        else:
            self.fingerprints[index] = fingerprint
            self.queries[index] = out.queries

    def run_pass(self, tracer=None, k=None) -> float:
        """Run the ops due in untraced pass k (by default every op);
        -> seconds spent inside ops."""
        total = 0.0
        for index, op in enumerate(self.ops):
            if k is not None and k % self.stride[index] != self.phase[index]:
                continue
            self.attempted += 1
            if tracer:
                tracer.op_id += 1
                tracer.active = True
            start = perf_counter()
            try:
                out = self.workload.run(self.lib, op)
            except Exception:
                self.fail(f"op {index}", traceback.format_exc(limit=3).strip().splitlines()[-1])
                continue
            finally:
                elapsed = perf_counter() - start
                if tracer:
                    tracer.active = False
            total += elapsed
            if not tracer:
                self.runs[index].append(elapsed)
            self._check(index, op, out)
        return total


def untraced(runner, setup) -> tuple:
    """RUNS passes, with the SETUPS timed set-ups shared out between
    them, so that the set-ups sample the host over the whole run. Every
    run of an op is a latency sample; throughput is the samples over the
    seconds they took; setup_s is the median set-up."""
    passes = runner.workload.RUNS
    setups, pass_s = [], []
    for k in range(passes):
        setups += [setup() for _ in range(SETUPS * (k + 1) // passes - SETUPS * k // passes)]
        pass_s.append(runner.run_pass(k=k))
    samples = sorted(t for ts in runner.runs.values() for t in ts)
    if not samples:  # every op raised; the run is reported as failed
        samples = [math.inf]
    metrics = {
        "latency_ms.p50": percentile(samples, 0.50) * 1000,
        "latency_ms.p90": percentile(samples, 0.90) * 1000,
        "throughput_ops": len(samples) / sum(samples),
        "setup_s": statistics.median(setups),
    }
    info = {
        "samples": len(samples),
        "samples_beyond_p90": len(samples) - math.ceil(0.9 * len(samples)),
        "runs_per_op": sorted({len(ts) for ts in runner.runs.values()}),
        "passes": passes,
        "pass_s": pass_s,
        "setup_runs_s": setups,
    }
    return metrics, info


def traced(runner, lib, span_path: Path) -> tuple:
    """TRACED_PAIRS pairs of an untraced and a traced pass."""
    tracer = Tracer(lib)
    plain_s, traced_s = [], []
    counts, self_times = None, []
    try:
        for _ in range(TRACED_PAIRS):
            plain_s.append(runner.run_pass())
            tracer.install()
            try:
                tracer.begin_pass()
                traced_s.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            if counts is None:
                counts = tracer.pass_counts()
            elif tracer.pass_counts() != counts:
                runner.fail("trace", "per-layer counts differ between two traced passes")
            self_times.append(dict(tracer.self_s))
    finally:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(span_path)

    def self_s(name):
        return statistics.median(st.get(name, 0.0) for st in self_times)

    def layer_self_s(layer):
        return statistics.median(
            sum((v for k, v in st.items() if k.startswith(layer + ".")), 0.0) for st in self_times
        )

    def ratio(a, b):
        return a / b if b else 0.0

    c = counts
    recon_queries = c.get("recon_queries_linear", 0) + c.get("recon_queries_binary", 0)
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".calls"):
            metrics[name] = c.get(name, 0)
        elif name.endswith(".self_s") and name.count(".") == 2:
            metrics[name] = self_s(name[: -len(".self_s")])
    metrics.update(
        {
            "polynomials.normal_form.zero_frac": ratio(c.get("nf_zero_in_buchberger", 0), c.get("nf_in_buchberger", 0)),
            "polynomials.basis_size": ratio(c.get("basis_elements", 0), c.get("polynomials.buchberger.calls", 0)),
            "oracle.can_poly.fanout": ratio(c.get("can_term_in_can_poly", 0), c.get("oracle.can_poly.calls", 0)),
            "staircase.queries.linear": c.get("recon_queries_linear", 0),
            "staircase.queries.binary": c.get("recon_queries_binary", 0),
            "staircase.queries_per_gen": ratio(recon_queries, c.get("recon_generators", 0)),
            "staircase.box_frac": ratio(recon_queries, c.get("recon_box", 0)),
            "peeling.queries_per_peel": ratio(c.get("peel_queries", 0), c.get("peeling.peel.calls", 0)),
            "trace.overhead_frac": statistics.median(traced_s) / statistics.median(plain_s) - 1,
        }
    )
    for layer in SPANNED_MODULES:
        metrics[f"{layer}.self_s"] = layer_self_s(layer)
    info = {
        "pass_s": {"untraced": plain_s, "traced": traced_s},
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "counts": counts,
    }
    return metrics, info


def cli_probe(workload, lib, ops) -> tuple:
    """Subprocess timings of `python -m escalier` on generated files.
    -> (metrics, CLI runs checked, problems)."""
    env = {"PYTHONPATH": str(SRC)}

    def timed(argv) -> tuple:
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=ROOT, timeout=60
        )
        return (perf_counter() - start) * 1000, proc

    problems = []
    checked = 0
    imports = [timed(["-c", "import escalier"])[0] for _ in range(CLI_REPEATS)]
    metrics = {"cli.import_ms": statistics.median(imports), "cli.recon_ms.p50": 0.0, "cli.attack_ms.p50": 0.0}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        if workload.name == "recon-staircase":
            times = []
            order = lib.terms.TermOrder("deglex")
            for i, op in enumerate(ops[:CLI_REPEATS]):
                ideal = op[i % len(op)]
                path = tmp / f"recon{i}.ideal"
                path.write_text(lib.polynomials.render_ideal_file(ideal.polys, order, ideal.n, P))
                argv = ["-m", "escalier", "recon", "--ideal", str(path), "--bound", str(ideal.bound)]
                ms, proc = timed(argv + (["--binary-search"] if ideal.binary else []))
                times.append(ms)
                checked += 1
                got = proc.returncode == 0 and lib.staircase.parse_result(proc.stdout).generators
                if got != ideal.gens:
                    problems.append(f"cli recon {i}: wrong generators or exit {proc.returncode}")
            metrics["cli.recon_ms.p50"] = statistics.median(times)
        if workload.name == "crypto-session":
            times = []
            for i, op in enumerate(ops[:CLI_REPEATS]):
                order = lib.terms.TermOrder(op.kind)
                keys = lib.crypto.keygen(
                    op.polys, order, workload.PUBLIC, workload.NOISE, workload.TERMS, random.Random(op.key_seed)
                )
                priv, pub = tmp / f"priv{i}.ideal", tmp / f"pub{i}.key"
                priv.write_text(lib.polynomials.render_ideal_file(keys.basis.elements, order, op.n, P))
                pub.write_text(lib.crypto.render_public_key(keys.public))
                ms, proc = timed(["-m", "escalier", "attack", "--private", str(priv), "--public", str(pub)])
                times.append(ms)
                checked += 1
                got = proc.returncode == 0 and lib.staircase.parse_result(proc.stdout).reduced_basis
                if got is False or set(got) != set(keys.basis.elements):
                    problems.append(f"cli attack {i}: wrong basis or exit {proc.returncode}")
            metrics["cli.attack_ms.p50"] = statistics.median(times)
    return metrics, checked, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if not (SRC / "escalier" / "__init__.py").is_file():
        print(f"error: no escalier sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    calibration_start = calibrate_ms()

    try:
        lib = fresh_import()
    except ImportError as e:
        print(f"error: cannot import escalier: {e}", file=sys.stderr)
        return 2
    ops = workload.build(lib, random.Random(args.seed))
    if len(ops) < MIN_OPS:
        print(f"error: {workload.name} makes {len(ops)} ops per pass, fewer than {MIN_OPS}", file=sys.stderr)
        return 2
    if any(workload.RUNS % workload.runs(op) for op in ops):
        print(f"error: {workload.name} gives an op a run count that does not divide {workload.RUNS}", file=sys.stderr)
        return 2

    runner = Runner(workload, lib, ops)
    info = {"workload": workload.name, "seed": args.seed, "ops_per_pass": len(ops)}
    start = perf_counter()
    if args.trace:
        span_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        metrics, extra = traced(runner, lib, span_path)
        cli_metrics, checked, cli_problems = cli_probe(workload, lib, ops)
        metrics.update(cli_metrics)
        runner.attempted += checked
        for p in cli_problems:
            runner.fail("cli", p)
        info["spans_file"] = str(span_path.relative_to(ROOT))
    else:
        metrics, extra = untraced(runner, lambda: timed_setup(workload, args.seed))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info.update(extra)
    info["run_s"] = {"budget": args.seconds, "took": perf_counter() - start}

    oracle_queries = sum(runner.queries.values())
    fail_frac = runner.failed / runner.attempted
    if args.trace:
        metrics["oracle_queries"] = oracle_queries
        metrics["fail_frac"] = fail_frac
    info.update(
        {
            "oracle_queries_per_pass": oracle_queries,
            "fail_frac": fail_frac,
            "calibration_ms": {"start": calibration_start, "end": calibrate_ms()},
            "problems": runner.problems,
        }
    )
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
