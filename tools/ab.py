"""A/B the kgbench benchmark: this working tree against a git revision.

    python3 tools/ab.py HEAD --workload kg_build --pairs 10

Run from the root of a checkout.  ``<rev>`` is exported with ``git archive``
into a temporary directory, and the working tree's tracked and untracked
non-ignored files are copied into another, so both sides run from fresh
copies in the same place with no compiled caches or run leftovers (the
repository itself is not touched).  Then
``kgbench/run.py --trace 0`` runs on both trees in interleaved pairs, the
revision first on odd pairs, pair i with seed i.  Prints each pair's
end-to-end metrics, then per metric the median change/base ratio, the
interquartile range of the pair ratios, the number of pairs in which the
change was better and the exact two-sided sign-test p-value of that count
(ties dropped): a ratio whose IQR straddles 1 or whose p is large is not
resolved by this many pairs.  After every run the tool kills, and names,
each process whose command line names one of its two trees (the run's
Ray session directory lives under the tree it runs from); Ray clusters
of other users on the host are left alone.  The exit code is non-zero if
a run failed or a check did not pass, or if such a process is still
alive at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()


def export(rev: str, dest: str) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def snapshot(dest: str) -> None:
    """Copy the working tree's tracked and untracked non-ignored files (a
    tracked file deleted in the working tree is left out) into ``dest``."""
    listed = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True).stdout
    for rel in filter(None, listed.decode().split("\0")):
        src, dst = os.path.join(ROOT, rel), os.path.join(dest, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The metrics of one ``--trace 0`` run, or None if it failed."""
    cmd = [sys.executable, os.path.join(tree, "kgbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=20 * seconds + 300)
    except subprocess.TimeoutExpired:
        return None
    finally:
        for line in stop([tree]):
            print(f"stopped after a run: {line}", file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def sign_test_p(better: int, worse: int) -> float:
    """Exact two-sided sign-test p-value of *better* against *worse* pairs
    under the null that either is equally likely."""
    n = better + worse
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(better, worse) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def leftovers(trees: list[str]) -> list[tuple[int, str]]:
    """``(pid, command line)`` of every live process whose command line
    names one of *trees*: the kgbench runs started there and the Ray
    processes of their sessions.  This process and its ancestors are
    never listed."""
    ps = subprocess.run(["ps", "-eo", "pid=,ppid=,args="], capture_output=True,
                        text=True).stdout
    procs = {}
    for line in ps.splitlines():
        pid, ppid, args = (line.split(None, 2) + [""])[:3]
        procs[int(pid)] = (int(ppid), args)
    mine, pid = set(), os.getpid()
    while pid in procs and pid not in mine:
        mine.add(pid)
        pid = procs[pid][0]
    return [(pid, args) for pid, (_, args) in procs.items()
            if pid not in mine and any(os.path.join(t, "") in args for t in trees)]


def stop(trees: list[str]) -> list[str]:
    """SIGKILL the processes :func:`leftovers` finds and wait up to 10 s
    for them to go; their command lines."""
    left = leftovers(trees)
    for pid, _ in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for _ in range(100):
        if not leftovers(trees):
            break
        time.sleep(0.1)
    return [args for _, args in left]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare the working tree against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    base_dir = tempfile.mkdtemp(prefix="ab-")
    change_dir = tempfile.mkdtemp(prefix="ab-")
    pairs, failed = [], 0
    try:
        export(args.rev, base_dir)
        snapshot(change_dir)
        print(f"base {args.rev} ({base_dir}) vs working tree {ROOT} "
              f"({change_dir}); workload {args.workload}, "
              f"{spec['run_seconds']} s per run")
        print("pair seed first   " + "  ".join(f"{m['name']:>26}" for m in metrics))
        for i in range(1, args.pairs + 1):
            order = [("base", base_dir), ("change", change_dir)]
            if i % 2 == 0:
                order.reverse()
            got = {side: bench(tree, args.workload, i, spec["run_seconds"])
                   for side, tree in order}
            if None in got.values():
                failed += 1
                print(f"{i:>4} {i:>4} {order[0][0]:<6}  run failed")
                continue
            pairs.append(got)
            print(f"{i:>4} {i:>4} {order[0][0]:<6}  " + "  ".join(
                f"{got['base'][m['name']]:>11.4g} -> {got['change'][m['name']]:<11.4g}"
                for m in metrics))
    finally:
        stop([base_dir, change_dir])
        stray = leftovers([base_dir, change_dir])
        shutil.rmtree(base_dir, ignore_errors=True)
        shutil.rmtree(change_dir, ignore_errors=True)

    if pairs:
        print(f"median change/base over {len(pairs)} pairs (ratio IQR = quartiles of "
              "the pair ratios; better = count of pairs in which the change was "
              "better; p = exact two-sided sign test):")
        for m in metrics:
            name = m["name"]
            ratios = [p["change"][name] / p["base"][name] for p in pairs if p["base"][name]]
            sign = 1 if m["better"] == "higher" else -1
            diffs = [sign * (p["change"][name] - p["base"][name]) for p in pairs]
            better = sum(d > 0 for d in diffs)
            worse = sum(d < 0 for d in diffs)
            base_q = statistics.quantiles([p["base"][name] for p in pairs], n=4) \
                if len(pairs) > 1 else [float("nan")] * 3
            ratio_q = statistics.quantiles(ratios, n=4) \
                if len(ratios) > 1 else [float("nan")] * 3
            print(f"  {name:<12} ratio {statistics.median(ratios):.3f} "
                  f"[{ratio_q[0]:.3f}, {ratio_q[2]:.3f}]  "
                  f"better {better}/{len(pairs)} p={sign_test_p(better, worse):.3g}  "
                  f"base median {statistics.median(p['base'][name] for p in pairs):.4g} "
                  f"IQR {base_q[2] - base_q[0]:.4g}  "
                  f"change median {statistics.median(p['change'][name] for p in pairs):.4g}")
    for _, line in stray:
        print(f"left running: {line}", file=sys.stderr)
    return 1 if failed or stray else 0


if __name__ == "__main__":
    sys.exit(main())
