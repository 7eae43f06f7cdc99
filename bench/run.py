"""Benchmark for ordalg: four workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sampled-suites --seed 0 --seconds 26 --trace 0

One process runs one workload, single-threaded and closed-loop: the next
op starts only when the previous one has returned.  The workloads are

    sampled-suites      seeded axiom/pair/phi suite calls on small orders
    exhaustive-duality  enumeration, eta, adjunction and grid instances
    fine-certificates   sw_approximate on an eps ladder and Dieudonne traces
    cli-corpus          one ``python -m ordalg.cli`` process per op

(see bench/WORKLOADS.md for why each exists and what it stresses).

``--trace 0`` measures.  Ops run in whole rounds until at least
``--seconds`` of op time has passed and the workload's tail percentile has
at least ten samples above it; each op is verified after its clock stops.
Before each op, outside its clock, a reference kernel of fixed
standard-library work is timed, and every time is scaled to the speed of
a host on which that kernel takes 2 ms (``to_reference``), because the
host's speed swings by up to 2x.  Printed metrics:

    ref_ops_per_s   verified ops per second of op time, at reference speed
    ref_op_ms_p50   median op latency, at reference speed
    ref_op_ms_tail  op latency at the workload's fixed tail percentile,
                    at reference speed
    verified_frac   verified ops / attempted ops
    peak_rss_mb     peak resident memory (of the largest child for cli-corpus)
    setup_s         median time to import ordalg and build the inputs, over
                    the set-ups made before the first round, at reference speed

``--trace 1`` runs the first round twice, untraced and then with every
layer's public callables wrapped (bench/tracer.py), checks that both
passes agree, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, including the
environment, digests, exact counts, the tail percentile with its sample
count and the raw wall-clock timings, goes to ``--out`` (default bench/out).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from cli_corpus import CliCorpus, child_env, run_child  # noqa: E402
from tracer import BENCH, LAYERS, Tracer  # noqa: E402
from workloads import (ExhaustiveDuality, FineCertificates, Outcome,  # noqa: E402
                       SampledSuites)

WORKLOADS = ("sampled-suites", "exhaustive-duality", "fine-certificates", "cli-corpus")
SETUP_REPEATS = 15
BASELINE_REPEATS = 7
TAIL_ABOVE = 10           # each workload's tail percentile leaves at least this many above
REF_KERNEL_NS = 2_000_000  # the reference kernel's time on the reference host
KERNEL_WINDOW = 9          # kernel samples that scale one op

END_TO_END_UNITS = {"ref_ops_per_s": "1/s", "ref_op_ms_p50": "ms", "ref_op_ms_tail": "ms",
                    "verified_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


class MissingProgram(Exception):
    """The checkout does not hold an importable ordalg under src/."""


# -- host speed -----------------------------------------------------------------

def reference_kernel() -> int:
    """Fixed pure-Python work whose duration tells how fast the host runs now.

    It uses only the standard library (Fraction arithmetic with narrow and
    wide denominators, small dicts, sets and tuples), so no change to
    ordalg can change its cost.
    """
    acc, values = Fraction(0), {}
    for i in range(1, 160):
        x = Fraction(i % 17 - 8, 1 << (i % 12))
        acc = max(acc, x) + x * Fraction(3, 8)
        values[i % 5, i % 3] = acc
    rel = frozenset((a, b) for a in range(10) for b in range(10) if a <= b)
    ups = {a: tuple(b for b in range(10) if (a, b) in rel) for a in range(10)}
    return len(ups) + len(sorted(values.values()))


def kernel_ns() -> int:
    """One timed sample of the reference kernel (two calls).

    The collector is paused, so that a collection of the workload's
    objects does not land in the sample.
    """
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        reference_kernel()
        reference_kernel()
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def to_reference(times_ns: list, kernels_ns: list) -> list:
    """Scale each time to the reference host speed.

    Time i is multiplied by REF_KERNEL_NS over the mean kernel time near
    it: the mean of the KERNEL_WINDOW samples taken nearest to it, less
    their largest and smallest.  A mean, not a median, because the host
    flips between a fast and a slow state many times a second, and the
    mean follows the share of time spent in each.
    """
    half = KERNEL_WINDOW // 2
    out = []
    for i, t in enumerate(times_ns):
        lo = max(0, min(i - half, len(kernels_ns) - KERNEL_WINDOW))
        window = sorted(kernels_ns[lo:lo + KERNEL_WINDOW])
        window = window[1:-1] if len(window) > 2 else window
        out.append(t * REF_KERNEL_NS * len(window) / sum(window))
    return out


# -- set-up -------------------------------------------------------------------

def import_ordalg(with_cli: bool):
    """Import ordalg afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "ordalg" or n.startswith("ordalg.")]:
        del sys.modules[name]
    try:
        oa = importlib.import_module("ordalg")
        if with_cli:
            importlib.import_module("ordalg.cli")
    except ImportError as exc:
        raise MissingProgram(f"cannot import ordalg from {SRC}: {exc}") from exc
    if not os.path.abspath(oa.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"ordalg was imported from {oa.__file__}, not from {SRC}")
    return oa


def make_workload(name: str, workdir: str):
    if name == "cli-corpus":
        return CliCorpus(ROOT, workdir)
    return {"sampled-suites": SampledSuites, "exhaustive-duality": ExhaustiveDuality,
            "fine-certificates": FineCertificates}[name]()


def timed_setups(workload, seed: int, repeats: int) -> dict:
    """Import ordalg afresh and set the workload up, ``repeats`` times.

    Returns the raw set-up times and the same times at reference speed, in
    seconds, and the kernel samples: one before each set-up and one after
    the last, so each set-up is scaled by the mean of the two around it.
    """
    for _ in range(3):
        kernel_ns()  # warm up
    raw, kernels = [], [kernel_ns()]
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        workload.setup(import_ordalg(with_cli=workload.name == "cli-corpus"), seed)
        raw.append(time.perf_counter_ns() - t0)
        kernels.append(kernel_ns())
    scaled = [t * REF_KERNEL_NS / statistics.median(kernels[i:i + 2]) for i, t in enumerate(raw)]
    return {"raw": [t / 1e9 for t in raw], "ref": [t / 1e9 for t in scaled],
            "kernel_us": [t // 1000 for t in kernels]}


# -- environment ----------------------------------------------------------------

def cli_baselines(repeats: int, with_import: bool) -> dict:
    """Median child start-up, bare and with ``import ordalg.cli``, interleaved."""
    env = child_env(ROOT)
    programs = {"interp_ms": "pass"}
    if with_import:
        programs["import_ms"] = "import ordalg.cli"
    times = {key: [] for key in programs}
    for _ in range(repeats):
        for key, program in programs.items():
            t0 = time.perf_counter()
            status = run_child([sys.executable, "-c", program], ROOT, env)[0]
            times[key].append(time.perf_counter() - t0)
            if status != 0:
                raise MissingProgram(f"python -c {program!r} exited with {status}")
    out = {key: statistics.median(ts) * 1000 for key, ts in times.items()}
    if with_import:
        out["import_ms"] -= out["interp_ms"]
    return out


def _command_output(argv) -> str | None:
    if shutil.which(argv[0]) is None:
        return None
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(interp_ms: float) -> dict:
    env = child_env(ROOT)
    nproc = _command_output(["nproc"])
    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "nproc": int(nproc) if nproc else len(os.sched_getaffinity(0)),
        "git_revision": (_command_output(["git", "rev-parse", "HEAD"])
                         if os.path.isdir(os.path.join(ROOT, ".git")) else None),
        "child_PYTHONPATH": env.get("PYTHONPATH"),
        "child_PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE"),
        "python_c_pass_ms": interp_ms,
    }


# -- the closed loop -------------------------------------------------------------

class Phase:
    """Latencies, outcomes and counts of one pass over the op stream."""

    def __init__(self):
        self.latency_ns = []
        self.kernel_ns = []       # a reference kernel sample before each op
        self.op_ns = 0
        self.ok = 0
        self.failures = []
        self.counts = {}
        self.round0 = []          # per-op digests of round 0
        self.first_digest = {}    # input key -> digest of its first run
        self.repeats = 0
        self.rounds = 0
        self.windows = {}

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.round0).encode()).hexdigest()


def samples_above(n: int, percentile: float) -> int:
    """How many of n samples lie above the nearest-rank percentile."""
    return n - min(n, max(1, math.ceil(percentile / 100 * n)))


def drive(workload, *, seconds: float = 0.0, rounds: int = 0, tail_percentile: float = 0.0,
          tracer=None) -> Phase:
    """Run whole rounds until the round count, the op time and the tail are all reached."""
    phase = Phase()
    clock = time.perf_counter_ns
    while (phase.rounds < rounds or phase.op_ns < seconds * 1e9
           or (tail_percentile and samples_above(phase.attempted, tail_percentile) < TAIL_ABOVE)):
        for op in workload.round(phase.rounds):
            op_id = phase.attempted
            inputs = workload.prepare(op)
            error = None
            phase.kernel_ns.append(kernel_ns())
            if tracer is not None:
                tracer.begin_op(op_id)
            t0 = clock()
            try:
                result = workload.run(op, inputs)
            except Exception as exc:  # an op that raises counts as failed
                error = exc
            t1 = clock()
            if tracer is not None:
                tracer.end_op()
                phase.windows[op_id] = (t0, t1)
            phase.latency_ns.append(t1 - t0)
            phase.op_ns += t1 - t0
            record(phase, workload, op, inputs, None if error else result, error)
        phase.rounds += 1
    return phase


def record(phase: Phase, workload, op, inputs, result, error) -> None:
    if error is None:
        try:
            outcome = workload.check(op, inputs, result)
        except Exception as exc:  # a check that cannot run is a failed op
            outcome = Outcome(False, "", note=f"check raised {type(exc).__name__}: {exc}")
    else:
        outcome = Outcome(False, "", note=f"{type(error).__name__}: {error}")
    if op.key in phase.first_digest:
        phase.repeats += 1
        if phase.first_digest[op.key] != outcome.digest:
            outcome.ok = False
            outcome.note += " result differs from an earlier run of the same input"
    else:
        phase.first_digest[op.key] = outcome.digest
    if phase.rounds == 0:
        phase.round0.append(outcome.digest)
    if outcome.ok:
        phase.ok += 1
        for k, v in outcome.counts.items():
            phase.counts[k] = phase.counts.get(k, 0) + v
    elif len(phase.failures) < 20:
        phase.failures.append({"op": phase.attempted - 1, "kind": op.kind,
                               "key": repr(op.key), "note": outcome.note})


def latency_summary(latency_ns: list, tail_percentile: float) -> dict:
    """Median and tail latency; the tail is a nearest-rank percentile."""
    lat = sorted(latency_ns)
    n = len(lat)
    above = samples_above(n, tail_percentile)
    return {"samples": n, "p50_ms": statistics.median(lat) / 1e6,
            "tail_ms": lat[n - above - 1] / 1e6, "tail_percentile": tail_percentile,
            "samples_above_tail": above}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- per-layer metrics ---------------------------------------------------------

ARITH = tuple(f"fnalg.RationalFn.{m}" for m in
              ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__neg__", "scale"))
LATTICE = tuple(f"fnalg.RationalFn.{m}" for m in
                ("join", "meet", "le", "ge", "pos_part", "neg_part", "__abs__"))

PER_LAYER_UNITS = {
    "fnalg.init.calls": "count", "fnalg.arith.us_per_call": "us",
    "fnalg.lattice.us_per_call": "us", "fnalg.self_s": "s",
    "order.envelope.calls": "count", "order.envelope.us_per_call": "us",
    "order.closure.calls": "count", "order.closure.us_per_call": "us",
    "order.enumerate.self_s": "s", "order.monotone_maps.self_s": "s", "order.self_s": "s",
    "proximity.decide.calls": "count", "proximity.decide.us_per_call": "us",
    "proximity.witness.calls": "count", "proximity.prox_rounds_per_s": "1/s",
    "proximity.combined_order.calls": "count", "proximity.self_s": "s",
    "sbal.skeleton_rounds_per_s": "1/s", "sbal.pair.us_per_call": "us", "sbal.self_s": "s",
    "spectrum.induced_order.us_per_call": "us", "spectrum.dual_morphism.calls": "count",
    "spectrum.dual_morphism.us_per_call": "us", "spectrum.adjunction.accept_ratio": "ratio",
    "spectrum.adjunction.candidates": "count", "spectrum.self_s": "s",
    "sbal_plus.grid_fns_per_s": "1/s", "sbal_plus.self_s": "s",
    "approx.grid_entries": "count", "approx.family_per_grid": "ratio",
    "approx.sw.ms_per_call": "ms", "approx.dieudonne.steps_per_s": "1/s", "approx.self_s": "s",
    "rng.calls": "count", "rng.self_s": "s",
    "cli.interp_ms": "ms", "cli.import_ms": "ms", "cli.main.self_ms": "ms",
    "cli.stdout_bytes": "bytes", "cli.self_s": "s",
    "bench.self_s": "s", "trace.spans": "count",
    "trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}

# Deterministic counts that later claims may rest on.
EXACT_COUNTS = ("fnalg.init.calls", "order.closure.calls", "proximity.decide.calls",
                "approx.grid_entries", "spectrum.adjunction.accept_ratio",
                "spectrum.adjunction.candidates", "cli.stdout_bytes")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary, counts: dict, baselines: dict, untraced: Phase,
                  traced: Phase) -> dict:
    s, c = summary, counts
    self_s = summary.layer_self_s
    untraced_rate = _ratio(untraced.ok, untraced.op_ns / 1e9)
    traced_rate = _ratio(traced.ok, traced.op_ns / 1e9)
    values = {
        "fnalg.init.calls": s.calls("fnalg.RationalFn.__init__"),
        "fnalg.arith.us_per_call": s.us_per_call(*ARITH),
        "fnalg.lattice.us_per_call": s.us_per_call(*LATTICE),
        "order.envelope.calls": s.calls("order.monotone_envelope"),
        "order.envelope.us_per_call": s.us_per_call("order.monotone_envelope"),
        "order.closure.calls": s.calls("order.QuasiOrder.__init__"),
        "order.closure.us_per_call": s.us_per_call("order.QuasiOrder.__init__"),
        "order.enumerate.self_s": s.self_s("order.enumerate_posets"),
        "order.monotone_maps.self_s": s.self_s("order.enumerate_monotone_maps"),
        "proximity.decide.calls": s.calls("proximity.ProximityOracle.decide"),
        "proximity.decide.us_per_call": s.us_per_call("proximity.ProximityOracle.decide"),
        "proximity.witness.calls": s.calls("proximity.ProximityOracle.witness"),
        "proximity.prox_rounds_per_s": _ratio(c.get("prox_rounds", 0),
                                              s.inclusive_s("proximity.check_axioms")),
        "proximity.combined_order.calls": s.calls("proximity.combined_order"),
        "sbal.skeleton_rounds_per_s": _ratio(c.get("skel_rounds", 0),
                                             s.inclusive_s("sbal.check_skeleton_axioms")),
        "sbal.pair.us_per_call": s.us_per_call(*s.matching("sbal.EnvelopePair.")),
        "spectrum.induced_order.us_per_call": s.us_per_call("spectrum.induced_order"),
        "spectrum.dual_morphism.calls": s.calls("spectrum.dual_morphism"),
        "spectrum.dual_morphism.us_per_call": s.us_per_call("spectrum.dual_morphism"),
        "spectrum.adjunction.accept_ratio": _ratio(c.get("morphisms", 0),
                                                   c.get("candidates", 0)),
        "spectrum.adjunction.candidates": c.get("candidates", 0),
        "sbal_plus.grid_fns_per_s": _ratio(c.get("grid_fns", 0),
                                           s.inclusive_s("sbal_plus.roundtrip_pq")),
        "approx.grid_entries": c.get("grid_entries", 0),
        "approx.family_per_grid": _ratio(c.get("family", 0), c.get("grid_entries", 0)),
        "approx.sw.ms_per_call": s.us_per_call("approx.sw_approximate") / 1000,
        "approx.dieudonne.steps_per_s": _ratio(c.get("steps", 0),
                                               s.inclusive_s("approx.dieudonne_sequence")),
        "rng.calls": s.calls(*s.matching("rng.")),
        "cli.interp_ms": baselines["interp_ms"],
        "cli.import_ms": baselines["import_ms"],
        "cli.main.self_ms": _ratio(self_s["cli"] * 1000, s.calls("cli.main")),
        "cli.stdout_bytes": c.get("stdout_bytes", 0),
        "trace.spans": summary.spans,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_ops_per_s": untraced_rate - traced_rate,
    }
    for layer in LAYERS + (BENCH,):
        values[f"{layer}.self_s"] = self_s[layer]
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}


# -- the two modes ---------------------------------------------------------------

def measure(workload, args, setups, details) -> tuple:
    phase = drive(workload, seconds=args.seconds, rounds=1,
                  tail_percentile=workload.TAIL_PERCENTILE)
    ref_ns = to_reference(phase.latency_ns, phase.kernel_ns)
    lat = latency_summary(ref_ns, workload.TAIL_PERCENTILE)
    raw = latency_summary(phase.latency_ns, workload.TAIL_PERCENTILE)
    children = workload.name == "cli-corpus"
    metrics = {
        "ref_ops_per_s": phase.ok / (sum(ref_ns) / 1e9),
        "ref_op_ms_p50": lat["p50_ms"],
        "ref_op_ms_tail": lat["tail_ms"],
        "verified_frac": phase.ok / phase.attempted,
        "peak_rss_mb": peak_rss_mb(children),
        "setup_s": statistics.median(setups["ref"]),
    }
    details.update(phase_details(phase))
    details["latency"] = lat
    details["raw"] = {"ops_per_s": phase.ok / (phase.op_ns / 1e9), "op_ms_p50": raw["p50_ms"],
                      "op_ms_tail": raw["tail_ms"], "setup_s": statistics.median(setups["raw"])}
    details["peak_rss_of"] = "largest child (RUSAGE_CHILDREN)" if children else "this process"
    return phase, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def phase_details(phase: Phase) -> dict:
    return {"attempted": phase.attempted, "failed": phase.attempted - phase.ok,
            "fail_frac": (phase.attempted - phase.ok) / phase.attempted,
            "rounds": phase.rounds, "op_time_s": phase.op_ns / 1e9,
            "latency_us": [t // 1000 for t in phase.latency_ns],
            "kernel_us": [t // 1000 for t in phase.kernel_ns],
            "repeat_frac": phase.repeats / phase.attempted,
            "digest": phase.digest, "counts": phase.counts, "failures": phase.failures}


def traced(workload, baselines, details) -> tuple:
    untraced = drive(workload, rounds=1)
    tracer = Tracer()
    details["wrapped_callables"] = tracer.install()
    try:
        traced_phase = drive(workload, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    summary = tracer.analyse(traced_phase.windows)
    problems = list(summary.problems[:20])
    if traced_phase.digest != untraced.digest:
        problems.append("traced digest differs from the untraced one")
    if (traced_phase.attempted, traced_phase.ok, traced_phase.counts) != (
            untraced.attempted, untraced.ok, untraced.counts):
        problems.append("traced op counts differ from the untraced ones")
    metrics = layer_metrics(summary, traced_phase.counts, baselines, untraced, traced_phase)
    details["untraced"] = phase_details(untraced)
    details["traced"] = phase_details(traced_phase)
    details["tracer_problems"] = problems
    details["exact_counts"] = {k: metrics[k]["value"] for k in EXACT_COUNTS}
    wall = sum(summary.layer_self_s.values())
    details["layer_share"] = {layer: round(t / wall, 4) for layer, t in sorted(
        summary.layer_self_s.items(), key=lambda kv: -kv[1])}
    details["by_name"] = [{"name": name, "calls": calls, "inclusive_s": inc / 1e9,
                           "self_s": own / 1e9}
                          for name, (calls, inc, own) in sorted(
                              summary.by_name.items(), key=lambda kv: -kv[1][2])]
    return traced_phase, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure, rounded up to whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for the full results record")
    parser.add_argument("--dump-reports", metavar="DIR",
                        help="cli-corpus: write each corpus entry's CLI stdout here")
    args = parser.parse_args(argv)
    out_dir = os.path.abspath(args.out)
    dump_dir = os.path.abspath(args.dump_reports) if args.dump_reports else None
    if not os.path.isfile(os.path.join(SRC, "ordalg", "__init__.py")):
        print(f"bench: no ordalg package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.makedirs(out_dir, exist_ok=True)

    workload = make_workload(args.workload, os.path.join(out_dir, f"corpus-{os.getpid()}"))
    try:
        try:
            setups = timed_setups(workload, args.seed, SETUP_REPEATS)
            baselines = cli_baselines(BASELINE_REPEATS if args.trace else 3,
                                      with_import=bool(args.trace))
        except MissingProgram as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": environment(baselines["interp_ms"]),
                   "setup_s_samples": setups}
        problems = []
        if isinstance(workload, CliCorpus):
            problems += workload.capture_references()
            workload.in_process = bool(args.trace)
        if args.trace:
            phase, metrics, tracer_problems = traced(workload, baselines, details)
            problems += tracer_problems
        else:
            phase, metrics = measure(workload, args, details["setup_s_samples"], details)
        if dump_dir and isinstance(workload, CliCorpus):
            workload.dump(dump_dir)
    finally:
        if isinstance(workload, CliCorpus):
            workload.close()

    details["problems"] = problems
    details["peak_rss_self_mb"] = peak_rss_mb(children=False)
    correct = not problems and phase.ok == phase.attempted
    details["correct"] = correct
    details["metrics"] = metrics
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True, default=str)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {phase.ok}/{phase.attempted} ops verified,"
          f" digest {phase.digest[:16]}, record in {os.path.relpath(path)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": phase.attempted,
                      "failed": phase.attempted - phase.ok, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
