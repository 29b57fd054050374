"""Compare two revisions on one benchmark workload, in alternating pairs.

::

    python tools/ab.py REV_A REV_B --workload kmedian_sites --seed 3 --seconds 30 --pairs 10

Both revisions are ``git archive``d into one temporary directory, which is
removed on exit.  Each pair runs ``perfbench/run.py --trace 0`` once in
each tree, the two in turn, and which side runs first alternates from pair
to pair.  For every end-to-end metric that ``BENCHMARK.json`` (REV_A's)
declares, the report gives each side's median [quartiles], how many pairs
REV_B won by the metric's ``better`` direction (ties count for neither),
REV_A's spread (its interquartile range over its median) and a verdict:

* ``better``: REV_B won at least 9 in 10 of at least 10 pairs, and its
  median beats REV_A's by more than REV_A's interquartile range (with
  fewer pairs such a reading is ``gain, too few pairs``);
* ``WORSE``: REV_B's median is worse than REV_A's by more than the bound;
* ``unresolved``: REV_A's spread is wider than the bound, and not every
  run of REV_B beats every run of REV_A;
* ``identical`` when every run of both sides reads the same, otherwise
  ``within bound``.

Then REV_B's ``tools/bitid.py`` (this checkout's, when REV_B has none) runs
on both trees and the two digests are diffed, so one command answers both
"how fast" and "same results".  The exit code is non-zero only when a run
fails: a benchmark run that exits non-zero or reports ``correct: false``,
or a digest run that exits non-zero.  A verdict or a digest difference is
a report, not a failure.
"""

from __future__ import annotations

import argparse
import difflib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: A gain is claimed only from this many pairs, won in this share of them.
PAIRS_TO_CLAIM = 10
SHARE_TO_WIN = 0.9


def archive(rev: str, dest: Path) -> None:
    """Extract the committed tree of ``rev`` into ``dest``."""
    dest.mkdir(parents=True)
    git = subprocess.Popen(["git", "archive", "--format=tar", rev], stdout=subprocess.PIPE,
                           cwd=HERE.parent)
    tar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout, check=False)
    git.stdout.close()
    if git.wait() != 0 or tar.returncode != 0:
        raise SystemExit(f"ab: cannot archive {rev!r}")


def bench_run(tree: Path, args) -> dict:
    """One untraced perfbench run in ``tree``: its result object, with
    ``ok`` false when it exited non-zero or reported ``correct: false``."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "metrics": {}}
    result["ok"] = proc.returncode == 0 and result.get("correct") is True
    if not result["ok"]:
        print("\n".join(lines[-20:]), file=sys.stderr)
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(a, b, better: str, bound: float, pairs: int) -> tuple:
    """``(wins, spread, verdict)`` for one metric's paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    scale = abs(med_a) or 1.0
    spread = (q3 - q1) / scale
    gain = sign * (med_b - med_a)
    if len(set(a) | set(b)) == 1:
        return wins, spread, "identical"
    if gain > q3 - q1 and wins >= SHARE_TO_WIN * pairs:
        return wins, spread, "better" if pairs >= PAIRS_TO_CLAIM else "gain, too few pairs"
    if -gain / scale > bound:
        return wins, spread, "WORSE"
    every_run_better = min(sign * y for y in b) > max(sign * x for x in a)
    if spread > bound and not every_run_better:
        return wins, spread, "unresolved"
    return wins, spread, "within bound"


def report(spec: dict, runs: dict, pairs: int) -> None:
    print(f"{'metric':<20} {'unit':<6} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B wins':>7} {'A spread':>9} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in runs["A"] if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for r in runs["B"] if name in r["metrics"]]
        if len(a) != pairs or len(b) != pairs:
            print(f"{name:<20} {metric['unit']:<6} (missing from some runs)")
            continue
        wins, spread, word = verdict(a, b, metric["better"], metric["bound"], pairs)
        cells = []
        for values in (a, b):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"{name:<20} {metric['unit']:<6} {cells[0]:<34} {cells[1]:<34} "
              f"{wins:>3}/{pairs:<3} {spread:>8.1%} {metric['bound']:>6.0%}  {word}")


def digest(script: Path, tree: Path):
    proc = subprocess.run([sys.executable, str(script), str(tree)],
                          stdout=subprocess.PIPE, text=True, check=False)
    return proc.stdout.splitlines() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        trees = {"A": Path(workdir, "a"), "B": Path(workdir, "b")}
        archive(args.rev_a, trees["A"])
        archive(args.rev_b, trees["B"])
        spec = json.loads((trees["A"] / "BENCHMARK.json").read_text())
        print(f"ab: A={args.rev_a} B={args.rev_b}, {args.workload} seed {args.seed}, "
              f"{args.seconds:g} s runs, {args.pairs} pairs", flush=True)

        failed = False
        runs = {"A": [], "B": []}
        for pair in range(args.pairs):
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for side in order:
                result = bench_run(trees[side], args)
                failed = failed or not result["ok"]
                runs[side].append(result)
            rate = {s: runs[s][-1]["metrics"].get("jobs_per_s", {}).get("value", 0.0) for s in "AB"}
            print(f"pair {pair + 1} ({order[0]} first): jobs_per_s "
                  f"A {rate['A']:.2f} B {rate['B']:.2f}", flush=True)
        report(spec, runs, args.pairs)

        script, source = trees["B"] / "tools" / "bitid.py", "B's tools/bitid.py"
        if not script.is_file():
            script, source = HERE / "bitid.py", f"{HERE / 'bitid.py'}"
        lines = {side: digest(script, trees[side]) for side in "AB"}
        if None in lines.values():
            print(f"bit-identity: {source} failed on " + " and ".join(
                side for side in "AB" if lines[side] is None))
            return 1
        diff = list(difflib.unified_diff(lines["A"], lines["B"], "A", "B", lineterm="", n=0))
        changed = sum(line.startswith("+") for line in diff[2:])
        print(f"bit-identity ({source}): {len(lines['B'])} lines, {changed} differ")
        for line in diff:
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
