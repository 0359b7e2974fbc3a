#!/usr/bin/env python3
"""Compare two sets of tfbench result documents.

    python3 bench/e2e/compare.py DIR_A DIR_B

Each directory holds three or more result JSONs written by
`tfbench --json FILE`, all from one commit on one host.  For every
(workload, end-to-end metric) this prints each side's median and
quartiles and a verdict for B against A:

  unresolved  either side's interquartile range is wider than the bound
  worse       B's median is worse than A's by more than the bound
  better      B's median is better than A's by more than the bound
  same        otherwise

Bounds are the shares in BENCHMARK.json.  setup_s's bound is never
below 0.05 s.  Three metrics BENCHMARK.json leaves out are compared
too: item_p50_ms and item_p95_ms, which spread too much across runs to
gate on, with a bound of 0.25, and failed_ratio, which is 0 on a
healthy run, with none: it may not rise at all.  All documents that hold a
workload must come from the same host and the same kind of run
(workloads selected, --trace, --seconds, --passes); only the seed may
differ.
Exits 1 if any verdict is "worse", 2 on unusable input.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
HOST_KEYS = ("nproc", "recommended_domain_count", "ocaml")
FLOORS = {"setup_s": 0.05}  # absolute floor of the bound, in the metric's unit


def fail(msg):
    print(f"compare: {msg}", file=sys.stderr)
    sys.exit(2)


def describe(doc):
    """What must be equal across compared documents: the host and the run."""
    return json.dumps({"host": [doc["host"][k] for k in HOST_KEYS], "run": doc["run"]},
                      sort_keys=True)


def load(directory):
    paths = sorted(Path(directory).glob("*.json"))
    if len(paths) < 3:
        fail(f"{directory} holds {len(paths)} result JSONs; need 3 or more")
    return [json.loads(p.read_text()) for p in paths]


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(a, b, bound, better, floor):
    (ma, qa1, qa3), (mb, qb1, qb3) = quartiles(a), quartiles(b)
    tol_a, tol_b = max(bound * abs(ma), floor), max(bound * abs(mb), floor)
    if qa3 - qa1 > tol_a or qb3 - qb1 > tol_b:
        return "unresolved"
    worse_by = mb - ma if better == "lower" else ma - mb
    if worse_by > tol_a:
        return "worse"
    if -worse_by > tol_a:
        return "better"
    return "same"


def main():
    if len(sys.argv) != 3:
        fail("usage: compare.py DIR_A DIR_B")
    bench = json.loads(BENCHMARK.read_text())
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics += [("item_p50_ms", "ms", "lower", 0.25), ("item_p95_ms", "ms", "lower", 0.25),
                ("failed_ratio", "ratio", "lower", 0.0)]
    docs_a, docs_b = load(sys.argv[1]), load(sys.argv[2])
    print(f"A {len(docs_a)} runs, B {len(docs_b)} runs")
    print(f"{'workload':13} {'metric':13} {'unit':5} "
          f"{'A median [q1, q3]':>30} {'B median [q1, q3]':>30} {'bound':>6}  verdict")
    worse = False
    for w in (w["name"] for w in bench["workloads"]):
        sides = [[d for d in docs if w in d["workloads"]] for docs in (docs_a, docs_b)]
        if not any(sides):
            continue
        if min(len(s) for s in sides) < 3:
            fail(f"{w}: fewer than 3 runs on a side")
        kinds = {describe(d) for d in sides[0] + sides[1]}
        if len(kinds) != 1:
            fail(f"{w}: runs differ in host or kind of run: {sorted(kinds)}")
        for name, unit, better, bound in metrics:
            values = [[d["workloads"][w]["metrics"][name]["value"] for d in s] for s in sides]
            v = verdict(*values, bound, better, FLOORS.get(name, 0.0))
            worse |= v == "worse"
            cells = ["%.4g [%.4g, %.4g]" % quartiles(s) for s in values]
            print(f"{w:13} {name:13} {unit:5} {cells[0]:>30} {cells[1]:>30} {bound:6.2f}  {v}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
