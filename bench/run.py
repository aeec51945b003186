"""Benchmark of the goeritz package: time to a checked answer on four
workloads, and a traced run for per-module numbers.

    python3 bench/run.py --workload obstruct_presets --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from ./src next to this
directory.  --trace 0 measures the end-to-end metrics with no tracing;
--trace 1 measures the per-layer metrics (spans around every public goeritz
function, exact search-node counts by budget bisection, tracing overhead).
Every answer is checked; the last line of stdout is one JSON object, and the
exit status is 1 when any answer was wrong, 2 when the run could not start.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "goeritz" / "__init__.py").is_file():
    print(f"error: no goeritz package under {SRC}; run from a checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

from goeritz import lattice  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from tracer import TIMED  # noqa: E402
from workloads import TAGS  # noqa: E402

OUT = ROOT / "bench" / "out"
# setup_s is the median of SETUP_REPEATS set-ups before the timed loop and
# more (up to SETUP_MAX, while they take under SETUP_SECONDS in all) spread
# over it: a set-up of a few milliseconds needs many samples for a steady
# median, and slow spells of a shared host last about a second, so samples
# taken all at once can all fall into one.
SETUP_REPEATS, SETUP_MAX, SETUP_SECONDS = 5, 100, 1.0
STARTUP_SAMPLES = 5

END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_s.K_4", "s"),
    ("latency_p50_s.K_5", "s"),
    ("latency_p50_s.12a1019", "s"),
]

# Per pass over the workload's inputs: seconds spent in, or counts of, each
# layer.  TIMED lists the functions reported as <name>.s.
PER_LAYER = [(f"{name}.s", "s") for name in TIMED] + [
    ("lattice.enumerate_embeddings.calls", "count"),
    ("lattice.enumerate_embeddings.share", "%"),
    ("lattice.nodes", "count"),
    ("lattice.nodes.K_4", "count"),
    ("lattice.nodes.K_5", "count"),
    ("lattice.nodes.12a1019", "count"),
    ("lattice.classes", "count"),
    ("equivariance.find_equivariant_witness.self_s", "s"),
    ("equivariance.outcome.witness", "count"),
    ("equivariance.outcome.refuted_rational", "count"),
    ("equivariance.outcome.refuted_search", "count"),
    ("equivariance.rational_refute_frac", "ratio"),
    ("equivariance.classes_tested_frac", "ratio"),
    ("obstruction.self_s", "s"),
    ("obstruction.problems", "count"),
    ("obstruction.distinct_problems", "count"),
    ("intlinalg.matmul.calls", "count"),
    ("cli.startup_s", "s"),
    ("cli.main.s", "s"),
    ("cli.subprocess.s", "s"),
    ("family.fixtures.s", "s"),
    ("trace.overhead_s", "s"),
]


def run_ops(ops, indices, on_op=None):
    """Run ops[k] for k in indices, one at a time; returns (latencies,
    outputs) where an output is (k, result, error message or None)."""
    latencies, outputs = [], []
    for k in indices:
        if on_op:
            on_op(k)
        t0 = perf_counter()
        try:
            out, err = ops[k].run(), None
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        outputs.append((k, out, err))
    return latencies, outputs


def timed_loop(ops, seconds, after_pass):
    """Whole passes over ops until they have taken `seconds` (closed loop:
    each op starts when the last one ends).  Whole passes keep the mix of
    inputs the same in every run.  Each answer is checked, untimed, as soon
    as it arrives and then dropped, so that the benchmark's own memory does
    not slow the program's garbage collection.  after_pass(share of
    `seconds` done) runs between passes, untimed.  Returns each op's
    latencies, one per pass, and the failures."""
    latencies, problems, busy = [[] for _ in ops], [], 0.0
    while busy < seconds:
        for k in range(len(ops)):
            lat, out = run_ops(ops, [k])
            latencies[k].append(lat[0])
            busy += lat[0]
            problems += failures(ops, out)
        after_pass(min(1.0, busy / seconds))
    return latencies, problems


def timed_setup(make, times):
    gc.collect()
    t0 = perf_counter()
    inst = make()
    times.append(perf_counter() - t0)
    return inst


def more_setups(make, times, share):
    """Timed set-ups, discarded, up to `share` of the set-up budget."""
    while len(times) < SETUP_MAX * share and sum(times) < SETUP_SECONDS * share:
        timed_setup(make, times)


def failures(ops, outputs):
    found = []
    for k, out, err in outputs:
        if err is None:
            try:
                err = ops[k].check(out)
            except Exception as exc:  # output too malformed to check
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        if err:
            found.append(f"op {k} ({ops[k].tag or 'generated'}): {err}")
    return found


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(inst, make, setup_times, seconds):
    ops = inst.ops
    run_ops(ops, range(inst.warmup_ops))
    latencies, problems = timed_loop(
        ops, seconds, lambda share: more_setups(make, setup_times, share))
    rss = peak_rss_mb()
    _, vout = run_ops(inst.verify, range(len(inst.verify)))
    problems += failures(inst.verify, vout)
    # An op's latency in a run is its fastest pass: the host's slow spells
    # last from a second to over a minute, and a median over all samples
    # moved with the share of the run they covered (see bench/README.md).
    best = [min(lats) for lats in latencies]
    passes = len(latencies[0])
    ranked = sorted(best, reverse=True)
    pct = 100.0 * (1 - (inst.tail_rank - 0.5) / len(ops))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(best),
        "latency_tail_s": ranked[inst.tail_rank - 1],
        "throughput_ops_s": len(ops) / sum(best),
        "peak_rss_mb": rss,
    }
    for tag in TAGS:
        metrics[f"latency_p50_s.{tag}"] = statistics.median(
            b for op, b in zip(ops, best) if op.tag == tag)
    notes = {
        "latencies": f"each of {len(ops)} ops at its fastest of {passes} passes",
        "latency_tail_s": f"p{pct:.1f} of the ops: rank {inst.tail_rank} from the slowest",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "throughput_ops_s": "one caller, closed loop, at the ops' fastest latencies; "
                            f"{passes * len(ops) / sum(map(sum, latencies)):.4g} ops/s over "
                            "all passes",
    }
    return metrics, dict(END_TO_END), notes, passes * len(ops) + len(vout), problems


def traced_ops(ops):
    """One pass over ops under a fresh tracer: latencies, outputs, spans
    and the tag of the op behind each span."""
    t, first_span = tr.Tracer(), {}
    t.install()
    try:
        lat, out = run_ops(ops, range(len(ops)),
                           on_op=lambda k: first_span.setdefault(k, len(t.spans)))
    finally:
        t.remove()
    return lat, out, t.spans, tr.span_tags(t.spans, first_span, ops)


def count_nodes(spans, tags, nodes, table, label):
    """Exact nodes searched by every enumerate_embeddings call in spans, by
    tag.  The search depends only on sign * G and the corank, so each
    distinct problem is bisected once; nodes caches counts by problem and
    table lists each new one."""
    by_tag: dict[str, int] = {}
    for i, s in enumerate(spans):
        if s[0] == "lattice.enumerate_embeddings":
            key = s[4]["key"]
            if key not in nodes:
                nodes[key] = tr.exact_nodes(s[4]["problem"], lattice.enumerate_embeddings)
                table.append((label(tags[i]), s[4]["problem"], nodes[key]))
            by_tag[tags[i]] = by_tag.get(tags[i], 0) + nodes[key]
    return by_tag


def per_layer(inst, setup_fn, seconds):
    t = tr.Tracer()
    t.install()
    try:
        setup_fn()
    finally:
        t.remove()
    family_s = tr.summarize(t.spans)["layer_s"].get("family", 0.0)

    # Untraced and traced passes alternate, and so does which goes first,
    # so that both see the same machine.
    ops = inst.ops
    run_ops(ops, range(inst.warmup_ops))
    attempted, problems = 0, []
    plain, traced, per_pass, first = [], [], [], None
    start = perf_counter()
    while not per_pass or perf_counter() - start < seconds:
        for with_trace in (False, True) if len(per_pass) % 2 == 0 else (True, False):
            if with_trace:
                lat, out, spans, tags = traced_ops(ops)
                per_pass.append(tr.pass_metrics(spans))
                first = first or (spans, tags)
                traced.append(sum(lat))
            else:
                lat, out = run_ops(ops, range(len(ops)))
                plain.append(sum(lat))
            problems += failures(ops, out)
            attempted += len(out)

    nodes, table = {}, []
    by_tag = count_nodes(*first, nodes, table, lambda tag: tag or "generated")
    # The checks include unrestricted relabellings, whose node counts
    # depend on the seed; they are listed, not added to the metrics.
    _, vout, vspans, vtags = traced_ops(inst.verify)
    problems += failures(inst.verify, vout)
    attempted += len(vout)
    count_nodes(vspans, vtags, nodes, table, lambda tag: f"{tag} (check)")

    metrics = {k: statistics.fmean(m[k] for m in per_pass) for k in per_pass[0]}
    metrics.update({
        "lattice.enumerate_embeddings.share":
            100.0 * metrics["lattice.enumerate_embeddings.s"] / statistics.fmean(traced),
        "lattice.nodes": sum(by_tag.values()),
        **{f"lattice.nodes.{tag}": by_tag.get(tag, 0) for tag in TAGS},
        "family.fixtures.s": family_s,
        "trace.overhead_s": statistics.fmean(traced) - statistics.fmean(plain),
        "cli.startup_s": 0.0,
        "cli.subprocess.s": 0.0,
    })
    if inst.subprocesses is not None:
        metrics["cli.startup_s"] = _cli_startup()
        lat, out = run_ops(inst.subprocesses, range(len(inst.subprocesses)))
        metrics["cli.subprocess.s"] = sum(lat)
        problems += failures(inst.subprocesses, out)
        attempted += len(out)
    notes = {
        f"nodes {k}": f"{tag}, rank {lat.rank}, corank {corank}: {n} nodes"
        for k, (tag, (lat, corank, _), n) in enumerate(table)
    }
    notes["trace.overhead_s"] = (
        f"traced {statistics.fmean(traced):.4f} s - untraced {statistics.fmean(plain):.4f} s "
        f"per pass, {len(per_pass)} pass(es) each")
    detail = {
        "nodes": [
            {"tag": tag, "rank": lat.rank, "corank": corank, "sign": sign, "nodes": n,
             "form": [list(r) for r in lat.matrix]}
            for tag, (lat, corank, sign), n in table
        ],
        "spans": [s[:4] for s in first[0]],
        "summary": tr.summarize(first[0]),
    }
    return metrics, dict(PER_LAYER), notes, attempted, problems, detail


def _cli_startup():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(STARTUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import goeritz.cli"], env=env, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    ctx = {"src": str(SRC), "workdir": str(OUT / f"work-{os.getpid()}")}
    setup = workloads.WORKLOADS[workload]
    make = lambda: setup(random.Random(f"{workload}/{seed}"), ctx)
    setup_times = []
    inst = None
    try:
        # One untimed set-up first fills the workloads' seed-independent
        # caches (see workloads.py); the timed ones build the seeded inputs.
        # Only the instance that is prepared needs its cleanup.
        make()
        for _ in range(SETUP_REPEATS):
            inst = timed_setup(make, setup_times)
        inst.prepare()
        if trace:
            metrics, units, notes, attempted, problems, detail = per_layer(inst, make, seconds)
            OUT.mkdir(parents=True, exist_ok=True)
            path = OUT / f"trace-{workload}-seed{seed}.json"
            with open(path, "w") as fh:
                json.dump({"workload": workload, "seed": seed, "metrics": metrics, **detail}, fh)
            notes["trace file"] = str(path.relative_to(ROOT))
        else:
            metrics, units, notes, attempted, problems = end_to_end(inst, make, setup_times,
                                                                    seconds)
    finally:
        if inst is not None:
            inst.cleanup()
        shutil.rmtree(ctx["workdir"], ignore_errors=True)

    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<48} {len(problems) / attempted:>14.6g} ratio "
          f"({len(problems)} of {attempted})")
    for key, text in notes.items():
        print(f"  note {key}: {text}")
    for msg in problems[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The CLI reads its defaults from these; the benchmark runs with none.
    for name in ("GO_BUDGET", "GO_JOBS"):
        os.environ.pop(name, None)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
