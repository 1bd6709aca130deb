"""Benchmark entry point.

    python3 perfbench/run.py --workload label-large --seed 0 --seconds 30 --trace 0

Runs one workload in this process against the ``intervallabel`` sources
under ``src/`` of the checkout this file sits in, checks every output with
the benchmark's own checker, and prints one JSON object as the last line
of standard output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics of a traced run.  Spans and
results are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from speed import SpeedLog  # noqa: E402

from workloads import LAYERS, OMEGA_CAP, WORKLOADS, check_instance, make_api, run_instance  # noqa: E402

SETUP_REPEATS = 5


def import_program():
    """Import ``intervallabel`` afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "intervallabel" or m.startswith("intervallabel.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    il = importlib.import_module("intervallabel")
    if not Path(il.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"intervallabel came from {il.__file__}, not {SRC}")
    return il


def set_up(w, seed: int, log: SpeedLog):
    """Import the program and generate the first round's documents,
    ``SETUP_REPEATS`` times; returns the last results and the median of
    the raw and of the speed-scaled times."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        log.sample()
        t0 = time.perf_counter()
        il = import_program()
        first = w.round(seed, 0)
        dt = time.perf_counter() - t0
        log.sample()
        raw.append(dt)
        scaled.append(dt * log.factor(len(log.took) - 2, len(log.took) - 1))
    return il, first, statistics.median(raw), statistics.median(scaled)


class Tally:
    """Times and counts of one kind of round (traced or untraced)."""

    def __init__(self) -> None:
        self.ids: list[str] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.edges = 0
        self.vertices = 0
        self.square_complete = 0
        self.oracle_instances = 0
        self.omega_exact = 0
        self.report_instances = 0

    def add(self, w, inst, out, fx, dt: float, scale: float) -> None:
        self.ids.append(inst.id)
        self.raw.append(dt)
        self.scaled.append(dt * scale)
        self.edges += out["g"].m
        self.vertices += out["g"].n * len(w.points)
        if w.oracle:
            self.oracle_instances += 1
            self.square_complete += fx.square_complete
        else:
            self.report_instances += 1
            self.omega_exact += inst.doc["class"] == "circular_arc" and out["g"].n <= OMEGA_CAP

    def rate(self, times=None) -> float:
        times = self.scaled if times is None else times
        return len(times) / sum(times) if times else 0.0


def _share(part: int, base: int) -> float:
    return 100.0 * part / base if base else 0.0


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    w = WORKLOADS[workload]
    log = SpeedLog()
    il, docs, setup_raw, setup_s = set_up(w, seed, log)
    tracer = Tracer() if traced else None
    plain_api = make_api(il)
    traced_api = make_api(il, tracer) if traced else None
    tallies = {False: Tally(), True: Tally()}
    attempted = failed = 0
    wrong: list[str] = []
    # A traced run alternates untraced and traced rounds, so it has at
    # least one of each.
    rounds = max(2, w.rounds(seconds)) if traced else w.rounds(seconds)
    # Instances whose closing probe is still to come: (tally, inst, out,
    # facts, seconds, index of the probe before it).
    pending: list[tuple] = []

    def settle() -> None:
        after = len(log.took) - 1
        for tally, inst, out, fx, dt, before in pending:
            tally.add(w, inst, out, fx, dt, log.factor(before, after))
        pending.clear()

    for r in range(rounds):
        if r:
            docs = w.round(seed, r)
        in_trace = traced and r % 2 == 1
        api = traced_api if in_trace else plain_api
        if in_trace:
            il.verify.compute_stats = tracer.wrap("graph.compute_stats", il.graph.compute_stats)
        for inst in docs:
            attempted += 1
            if log.due():
                log.sample()
                settle()
            before = len(log.took) - 1
            if in_trace:
                tracer.instance = inst.id
                span = tracer.begin("instance")
            try:
                t0 = time.perf_counter()
                out = run_instance(w, api, inst.text)
                dt = time.perf_counter() - t0
            except Exception:
                failed += 1
                print(f"{inst.id}: program raised", file=sys.stderr)
                traceback.print_exc()
                continue
            finally:
                if in_trace:
                    tracer.end(span)
            if log.due():
                log.sample()
                settle()
            problems, fx = check_instance(w, inst, out)
            if problems:
                wrong += [f"{inst.id}: {p}" for p in problems]
            pending.append((tallies[in_trace], inst, out, fx, dt, before))
        il.verify.compute_stats = il.graph.compute_stats
    log.sample()
    settle()

    for line in wrong[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    plain = tallies[False]
    if traced:
        metrics = traced_metrics(tracer, tallies[True], plain)
        tracer.write(OUT / f"trace-{workload}-seed{seed}.json")
    else:
        metrics = {
            "instances_per_s": (plain.rate(), "1/s"),
            "instance_ms_p50": (1000 * statistics.median(plain.scaled), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    n_traced = len(tallies[True].raw)
    print(
        f"{workload} seed={seed} rounds={rounds} instances={len(plain.raw) + n_traced}"
        f" untraced_samples={len(plain.raw)} traced_samples={n_traced} probes={len(log.took)}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if plain.raw:
        print(
            f"  raw wall time: instances_per_s = {plain.rate(plain.raw):.6g} 1/s,"
            f" instance_ms_p50 = {1000 * statistics.median(plain.raw):.6g} ms,"
            f" setup_s = {setup_raw:.6g} s, median probe = {statistics.median(log.took) * 1e3:.4g} ms"
        )
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    OUT.mkdir(exist_ok=True)
    detail = {
        "instances": [
            {"id": i, "traced": t, "raw_s": a, "scaled_s": b}
            for t in (False, True)
            for i, a, b in zip(tallies[t].ids, tallies[t].raw, tallies[t].scaled)
        ],
        "probes": list(zip(log.at, log.took)),
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({**result, **detail}) + "\n")
    return result


def traced_metrics(tracer: Tracer, tr: Tally, plain: Tally) -> dict:
    busy = tracer.busy()
    metrics = {}
    layer_total = 0.0
    for layer in LAYERS:
        secs, calls = busy.get(layer, (0.0, 0))
        layer_total += secs
        metrics[f"{layer}.busy_s"] = (secs, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
    inst_self, _ = busy.get("instance", (0.0, 0))
    traced_rate, plain_rate = tr.rate(), plain.rate()
    metrics.update(
        {
            "reps.edges": (tr.edges, "count"),
            "labeling.vertices": (tr.vertices, "count"),
            "oracle.instances": (tr.oracle_instances, "count"),
            "oracle.complete_square_share": (_share(tr.square_complete, tr.oracle_instances), "%"),
            "stats.report_instances": (tr.report_instances, "count"),
            "stats.omega_exact_share": (_share(tr.omega_exact, tr.report_instances), "%"),
            "trace.layer_share": (_share(layer_total, layer_total + inst_self), "%"),
            "trace.instances_per_s": (traced_rate, "1/s"),
            "trace.untraced_instances_per_s": (plain_rate, "1/s"),
            "trace.overhead": (100.0 * (1 - traced_rate / plain_rate) if plain_rate else 0.0, "%"),
        }
    )
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "intervallabel" / "__init__.py").is_file():
        print(f"error: no intervallabel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
