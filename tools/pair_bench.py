"""Paired benchmark runs of this tree against a git revision.

    python tools/pair_bench.py REV --label NAME [--pairs 10] [--seconds 25]
                               [--seed 1] [--workload NAME ...]

Exports REV with ``git archive`` to a temporary directory and runs
``perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0`` in
fresh processes, from that export and from the tree this file sits in
(working files as they are, committed or not).  Pair i of a workload runs
both trees on seed ``--seed`` + i, the revision first in even pairs (i = 0,
2, ...) and this tree first in odd ones, so neither side always runs
first.  The workloads default to those ``BENCHMARK.json`` declares.

For each workload and end-to-end metric it prints each side's median and
quartiles, the ratio of the medians (this tree over REV), how many
pairs this tree wins by the metric's ``better`` direction (a tie wins for
neither) and a verdict (see ``verdict``).  It writes the same, with every
pair's values, to ``BENCH_<label>.json`` next to ``BENCHMARK.json``.  A
run that exits non-zero, or whose result is not ``correct`` or has failed
operations, stops the tool with its output: no BENCH file is written.

Standard library only; ``perfbench/`` is run, never edited.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The (lower quartile, median, upper quartile) of the values, by
    ``statistics.quantiles``' inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[float, float]], better: str, bound: float | None = None) -> dict:
    """Summarize (revision, change) value pairs of one metric whose
    ``better`` direction is "lower" or "higher", with the verdict under
    the metric's relative ``bound`` where one is given."""
    base = quartiles([b for b, _ in pairs])
    change = quartiles([c for _, c in pairs])
    sign = 1.0 if better == "lower" else -1.0
    s = {
        "better": better,
        "pairs": len(pairs),
        "base_q1": base[0], "base_median": base[1], "base_q3": base[2],
        "change_q1": change[0], "change_median": change[1], "change_q3": change[2],
        "base_iqr": base[2] - base[0],
        "ratio": change[1] / base[1],
        "change_wins": sum(sign * (c - b) < 0.0 for b, c in pairs),
    }
    if bound is not None:
        s["bound"], s["verdict"] = bound, verdict(s, bound)
    return s


def verdict(s: dict, bound: float) -> str:
    """"gain" where the change wins at least 9 in 10 of the pairs and its
    median is better than the revision's by more than the revision's
    interquartile range; "worse" where its median is worse by more than
    ``bound`` times the revision's median; else "within bound"."""
    sign = 1.0 if s["better"] == "lower" else -1.0
    ahead = sign * (s["base_median"] - s["change_median"])
    if 10 * s["change_wins"] >= 9 * s["pairs"] and ahead > s["base_iqr"]:
        return "gain"
    if -ahead > bound * abs(s["base_median"]):
        return "worse"
    return "within bound"


def format_summary(workload: str, metric: str, s: dict) -> str:
    """One printed line of a summary, ending in its verdict if it has one."""
    return (f"{workload:18s} {metric:18s} "
            f"base {s['base_median']:.4g} [{s['base_q1']:.4g}, {s['base_q3']:.4g}]  "
            f"change {s['change_median']:.4g} [{s['change_q1']:.4g}, {s['change_q3']:.4g}]  "
            f"ratio {s['ratio']:.4f}  change wins {s['change_wins']}/{s['pairs']}"
            + (f"  {s['verdict']}" if "verdict" in s else ""))


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract ``git archive REV`` into dest; the commit's full hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=_git("archive", commit), check=True)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run from the tree; its result line."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"] != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"pair_bench: {tree} {workload} seed {seed} is not correct "
                         f"(exit {proc.returncode}): {result}")
    return result


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", help="the git revision to compare this tree against")
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=declared["run_seconds"])
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in declared["workloads"]],
                   help="repeatable; default: every declared workload")
    args = p.parse_args(argv)
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    metrics = {m["name"]: m for m in declared["end_to_end"]}

    doc = {"label": args.label, "pairs": args.pairs, "seconds": args.seconds,
           "seed": args.seed, "change_head": _git("rev-parse", "HEAD").decode().strip(),
           "change_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
           "env": {"python": platform.python_version(), "machine": platform.machine(),
                   "platform": platform.platform()},
           "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pair_bench-") as tmp:
        base = Path(tmp)
        doc["base_rev"], doc["base_commit"] = args.rev, export(args.rev, base)
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = [("base", base), ("change", ROOT)]
                if i % 2:
                    order.reverse()
                values = {side: run_once(tree, workload, seed, args.seconds)["metrics"]
                          for side, tree in order}
                runs.append({"seed": seed, "first": order[0][0],
                             **{side: {name: values[side][name]["value"] for name in metrics}
                                for side in ("base", "change")}})
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} done", flush=True)
            summary = {name: summarize([(r["base"][name], r["change"][name]) for r in runs],
                                       m["better"], m["bound"])
                       for name, m in metrics.items()}
            doc["workloads"][workload] = {"runs": runs, "summary": summary}
    for workload, data in doc["workloads"].items():
        for name, s in data["summary"].items():
            print(format_summary(workload, name, s))
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
