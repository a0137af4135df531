#!/usr/bin/env python3
"""Writes reference.json: the outcome of every case of every pool.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it from the root of a checkout, and only on the commit that defines the
benchmark: later commits are checked against what it records. Each case gets
the digest of its exact outputs, or the halt it ended in, or the cause of its
failure (the seed ledger). The ledger is printed as a Markdown table.
"""

import json
import os
import sys

import run as bench


def pool_outcomes(workload: str):
    workdir = os.path.join(bench.OUT, f"reference-{workload}-{os.getpid()}")
    wl, _, _ = bench.setup(workload, 0, workdir)
    try:
        _, _, outcomes, done = bench.run_ops(wl, wl.pool(), float("inf"), {})
    finally:
        wl.close()
    return done, outcomes


def main(argv) -> int:
    names = argv or list(bench.WORKLOAD_NAMES)
    ref = {}
    if os.path.exists(bench.REFERENCE):
        with open(bench.REFERENCE) as fh:
            ref = json.load(fh)
    ledger = {}
    for name in names:
        done, outcomes = pool_outcomes(name)
        entries = {}
        for case, o in zip(done, outcomes):
            if o.failure:
                entries[case.key] = {"seed_failure": o.failure, "where": o.where}
                command = case.key.split("/")[1] if "/" in case.key else ""
                key = (name, case.family, command, o.failure, o.where)
                ledger[key] = ledger.get(key, 0) + 1
            elif o.digest is not None:
                entries[case.key] = {"digest": o.digest}
            else:
                entries[case.key] = {"halt": o.halt}
        ref[name] = dict(sorted(entries.items()))
        print(f"{name}: {len(entries)} cases, {sum(1 for o in outcomes if o.failure)} failed", file=sys.stderr)
    with open(bench.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("| workload | family | command | cause | where | cases |")
    print("| --- | --- | --- | --- | --- | --- |")
    for (name, family, command, cause, where), n in sorted(ledger.items()):
        print(f"| {name} | {family} | {command} | {cause} | {where} | {n} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
