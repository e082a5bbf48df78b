"""kdeband benchmark: closed-loop bandwidth-selection requests from one user.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere; kdeband is imported from the ``src/`` next to this
directory.  The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer
metrics.  The line before it holds every other metric, the correctness
checks, each request's time and the environment.  A traced run also writes
its spans to ``.perfbench/spans-<workload>-seed<seed>.json``.

``--smoke`` runs every workload at a tiny size with one timed request (and
one traced request with ``--trace 1``), and fails unless every metric is printed
with its unit, every correctness check ran and passed, and the result
line's metrics are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import metrics as m
from bootstrap import OUT, ROOT, THREAD_VARS, import_kdeband, keep_freed_memory, pin_threads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = {0: 3, 1: 1}  # set-ups per run: median of three where setup_s is reported
# setup_s is the set-up time scaled to the host speed at which the gauge
# takes this long, for the reason request_per_gauge is a ratio: between two
# sets of ten gauss-1d-cli runs a quarter of an hour apart, the host's load
# moved the median set-up time by 39% and its ratio to the gauge by 0.4%.
GAUGE_REFERENCE_S = 0.07
CHILD_TIMEOUT_S = 150
# The keys of workloads.WORKLOADS, spelled out because that module imports
# numpy and so must wait until the thread pools are pinned.  The first three
# are the benchmarked ones; the last two show a kdeband defect on some seeds.
WORKLOAD_NAMES = ("gauss-1d-density", "gauss-1d-cli", "gauss-3d-density",
                  "trimodal-1d-density", "hernquist-1d-cli")


@dataclass
class Record:
    sample: int  # index into the workload's samples
    traced: bool
    timed: bool  # False for the warm-up and the allocation probe
    seconds: float = 0.0
    gauge_s: float = 0.0  # the host gauge, run just before the request
    outcome: object = None
    ok: bool = False


def parse_args(argv):
    p = argparse.ArgumentParser(description="kdeband benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, fewest requests; without --workload, check every workload")
    args = p.parse_args(argv)
    if args.workload is None and not args.smoke:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run_setups(args, work: str, count: int) -> list[dict]:
    """Time ``count`` set-ups, each in a fresh interpreter, one after another."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", work] + (["--smoke"] if args.smoke else [])
    results = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up exited with {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def measure(wl, tracer, gauge, args) -> tuple[list[Record], list]:
    """Warm up, send requests until the deadline, then (traced) probe allocations.

    Requests go to the samples in turn, at least one to each.  A traced run
    alternates untraced and traced requests, so both sides of
    ``trace_overhead_frac`` see the same conditions; for the same reason
    every request, traced or not, follows a run of the host gauge.
    """
    records: list[Record] = []
    refs = [None] * len(wl.sample_seeds)  # each sample's first outcome

    def send(j: int, traced: bool, timed: bool = True) -> None:
        rec = Record(j, traced, timed)
        records.append(rec)
        rec.gauge_s = gauge()
        try:
            if traced:
                with tracer.request(len(records) - 1), tracer.span("request") as sp:
                    rec.outcome = wl.request(tracer, j)
            else:
                with tracer.span("request") as sp:
                    rec.outcome = wl.request(tracer, j)
        except Exception:  # a failed request is counted, and the run goes on
            traceback.print_exc()
            return
        rec.seconds = sp.seconds
        if refs[j] is None:
            refs[j] = rec.outcome
        rec.ok = bool(rec.outcome.converged) and rec.outcome.same_as(refs[j])

    send(0, False, timed=False)
    deadline = time.perf_counter() + args.seconds
    sent = 0
    while True:
        j = sent % len(refs)
        send(j, False)
        if args.trace:
            send(j, True)
        sent += 1
        if sent >= len(refs) and (args.smoke or time.perf_counter() >= deadline):
            break
    if args.trace:
        tracemalloc.start()
        try:
            send(0, True, timed=False)
        finally:
            tracemalloc.stop()
    return records, refs


def environment(args, wl) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        **wl.describe(),
    }


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def request_per_gauge(timed, samples: int) -> float | None:
    """Median over the samples of each sample's median request-to-gauge ratio.

    A sample whose selection takes unusually many updates (5 or 6 on the
    1D Gaussian, against 3 on most) moves the median of eight samples less
    than their mean.
    """
    medians = [median(r.seconds / r.gauge_s for r in timed if r.sample == j) for j in range(samples)]
    return None if None in medians else median(medians)


def end_to_end(records, samples, setups, peak_rss_mb, h_rel_err, failed) -> dict:
    timed = [r for r in records if r.timed and r.ok and not r.traced]
    seconds = [r.seconds for r in timed]
    tail, pct = m.tail(seconds)
    gauge_s = median(r.gauge_s for r in timed)
    setup_wall_s = median(s["setup_s"] for s in setups)
    return {
        "request_per_gauge": m.figure(request_per_gauge(timed, samples), "ratio"),
        "request_s": m.figure(median(seconds), "s"),
        "gauge_s": m.figure(gauge_s, "s"),
        "select_s": m.figure(median(r.outcome.select_s for r in timed), "s"),
        "peak_rss_mb": m.figure(peak_rss_mb, "MB"),
        "setup_s": m.figure(setup_wall_s * GAUGE_REFERENCE_S / gauge_s if gauge_s else None, "s"),
        "setup_wall_s": m.figure(setup_wall_s, "s"),
        "eval_s": m.figure(median(r.outcome.eval_s for r in timed
                                  if r.outcome.eval_s is not None), "s"),
        "request_s_tail": {**m.figure(tail, "s"), "percentile": pct, "requests": len(seconds)},
        "h_rel_err": m.figure(h_rel_err, "ratio"),
        "failed_frac": m.figure(failed / len(records), "ratio"),
    }


def per_layer(wl, records, tracer) -> dict:
    from tracing import request_figures

    figures = request_figures(tracer.spans)
    traced = [i for i, r in enumerate(records) if r.traced and r.timed and r.ok]
    out = {name: m.figure(median(figures[i].get(name, 0.0) for i in traced), unit)
           for name, unit in {**m.DECLARED_PER_LAYER, **m.DETAIL_PER_LAYER}.items()}
    untraced_s = median(r.seconds for r in records if r.timed and r.ok and not r.traced)
    traced_s = median(records[i].seconds for i in traced)
    out["trace_overhead_frac"] = m.figure(
        traced_s / untraced_s - 1.0 if traced_s and untraced_s else None, "ratio")
    out["samplers.sample_s"] = m.figure(wl.sample_s, "s")
    out["cli.input_mb"] = m.figure(wl.input_mb, "MB")
    out["estimator.deposit_peak_alloc_mb"] = m.figure(max(tracer.alloc_peaks_mb, default=0.0), "MB")
    return out


def write_spans(args, tracer, records) -> str:
    path = OUT / f"spans-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    doc = {
        "workload": args.workload, "seed": args.seed,
        "absent_targets": sorted(tracer.absent),
        "requests": {i: {"timed": r.timed} for i, r in enumerate(records) if r.traced},
        "spans": [s.as_dict() for s in tracer.spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return str(path.relative_to(ROOT))


def run_workload(args) -> dict:
    kd = import_kdeband()
    # These import numpy, so they wait until the thread pools are pinned.
    from gauge import gauge
    from tracing import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        setups = run_setups(args, work, SETUP_RUNS[args.trace])
        wl = WORKLOADS[args.workload](kd, args.seed, args.smoke, work)
        wl.prepare()
        records, refs = measure(wl, tracer, gauge, args)
        # Read before the checks, which hold more data than the requests.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            checks, h_rel_err = wl.checks(refs)
        except Exception as exc:  # a check that crashes is a failed check
            traceback.print_exc()
            checks, h_rel_err = {"error": {"ran": True, "ok": False, "value": repr(exc)}}, None

    checks["requests_converged"] = {
        "ran": True, "ok": all(r.outcome is not None and r.outcome.converged for r in records)}
    checks["repeats_bit_identical"] = {
        "ran": True, "repeats": len(records) - len(refs),
        "ok": None not in refs and all(r.outcome.same_as(refs[r.sample])
                                       for r in records if r.outcome)}
    all_checks_ok = all(c["ok"] for c in checks.values())
    attempted = len(records)
    failed = sum(not r.ok for r in records) if all_checks_ok else attempted

    detail = {"env": environment(args, wl), "checks": checks,
              "requests": [[r.sample, int(r.traced), r.seconds, r.ok, r.gauge_s]
                           for r in records]}
    if args.trace:
        metrics = per_layer(wl, records, tracer)
        declared = m.DECLARED_PER_LAYER
        detail["absent_targets"] = sorted(tracer.absent)
        detail["spans_file"] = write_spans(args, tracer, records)
    else:
        metrics = end_to_end(records, len(refs), setups, peak_rss_mb, h_rel_err, failed)
        declared = m.DECLARED_END_TO_END
    detail["metrics"] = metrics
    print(json.dumps({"detail": detail}))
    return {
        "correct": bool(failed == 0 and all_checks_ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in declared},
    }


def smoke() -> int:
    """Run every workload tiny, untraced and traced; check what each prints."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: ({e["name"]: e["unit"] for e in declared["end_to_end"]},
            {**m.DECLARED_END_TO_END, **m.DETAIL_END_TO_END}),
        1: ({e["name"]: e["unit"] for e in declared["per_layer"]},
            {**m.DECLARED_PER_LAYER, **m.DETAIL_PER_LAYER}),
    }
    problems = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            tag = f"{name} --trace {trace}"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
            on_line, everything = expected[trace]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{tag}: not correct: {result} {detail['checks']}")
            if {k: v.get("unit") for k, v in result["metrics"].items()} != on_line:
                problems.append(f"{tag}: result metrics differ from BENCHMARK.json")
            for metric, unit in everything.items():
                got = detail["metrics"].get(metric)
                if got is None or got.get("unit") != unit or "value" not in got:
                    problems.append(f"{tag}: {metric} not printed with unit {unit}")
            for check, state in detail["checks"].items():
                if not state.get("ran"):
                    problems.append(f"{tag}: check {check} did not run")
            print(f"smoke {tag}: {len(detail['checks'])} checks ran, "
                  f"{len(result['metrics'])} result metrics", flush=True)
    for problem in problems:
        print(f"smoke FAIL {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()  # before numpy is imported, here and in every child process
    keep_freed_memory()
    if args.workload is None:
        return smoke()
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
