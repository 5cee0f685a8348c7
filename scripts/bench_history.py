#!/usr/bin/env python3
"""Append one row to results/BENCH_history.jsonl from a bench_wall run set.

A run set is what `bench_wall --repeat N --out SET.json` writes:
{workload: {metric: [value per run]}}. The row keeps, per workload, the
median of every end-to-end metric, keyed by the commit that was measured:

    cargo run --release --manifest-path bench_wall/Cargo.toml -- --repeat 3 --out set.json
    python3 scripts/bench_history.py set.json "$(git rev-parse --short HEAD)" \
        --note "2 CPUs, --seconds 20" >> results/BENCH_history.jsonl

The file is append-only: one line per measured commit, oldest first. A
commit cannot name its own hash, so a row measuring the commit that adds
it says "self"; `git log --format=%h -S'"commit": "self"' -- results/BENCH_history.jsonl`
lists those commits, oldest last.
"""

import argparse
import json
import statistics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set", help="run-set JSON written by bench_wall --out")
    parser.add_argument("commit", help="the commit the set measured")
    parser.add_argument("--note", default="", help="host and run settings")
    args = parser.parse_args()

    with open(args.set) as f:
        run_set = json.load(f)
    runs = {len(values) for metrics in run_set.values() for values in metrics.values()}
    row = {
        "commit": args.commit,
        "runs": max(runs),
        "note": args.note,
        "medians": {
            workload: {name: round(statistics.median(values), 4) for name, values in metrics.items()}
            for workload, metrics in sorted(run_set.items())
        },
    }
    print(json.dumps(row, sort_keys=False))


if __name__ == "__main__":
    main()
