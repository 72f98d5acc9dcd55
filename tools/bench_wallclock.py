#!/usr/bin/env python
"""Run the wall-clock engine benchmark and write ``BENCH_wallclock.json``.

Times the synthetic scan/filter/join microbench and the three apps'
report pages on the engine (each plan's own pull path) and on the
compiled row pull over the same plans via
``repro.bench.experiments.wallclock``, prints the comparison table and
writes the raw numbers as JSON — by default to ``BENCH_wallclock.json``
at the repo root, the file that tracks the wall-clock trajectory per PR.

Usage::

    python tools/bench_wallclock.py            # full run, repo-root JSON
    python tools/bench_wallclock.py --smoke    # small/fast (CI)
    python tools/bench_wallclock.py --check    # exit 1 on regression

``--check`` fails if any query's results diverge between the engine and
the row pull, if the engine's speedup over the row pull on the
scan/filter or grouped-aggregate microbench falls below its floor
(``wallclock.SPEEDUP_FLOORS``), or if zone maps skipped no chunks on the
range-bounded scan/filter microbench — the regression gate the CI
wallclock job runs.
"""

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.bench.experiments import wallclock  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time the engine against the row pull on synthetic "
        "and app workloads")
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller synthetic table and fewer repeats (CI-sized)")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if the engine and the row pull disagree, the "
        "engine/row speedup on scan/filter or the grouped aggregate falls "
        "below its floor, or zone maps skipped no chunks")
    parser.add_argument(
        "--out", default=os.path.join(REPO_ROOT, "BENCH_wallclock.json"),
        help="output JSON path (default: BENCH_wallclock.json at the "
        "repo root)")
    args = parser.parse_args(argv)

    result = wallclock.run(smoke=args.smoke)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(wallclock.format_result(result))
    print(f"\nwrote {args.out}")

    if args.check:
        failures = wallclock.check(result)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("check passed: engine and row pull agree, speedup floors "
              f"{wallclock.SPEEDUP_FLOORS} held, zone maps skipped chunks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
