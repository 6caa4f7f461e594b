#!/usr/bin/env python3
"""Check a bench/fleet_scale report's shape, not its timings.

Usage: check_fleet_scale.py REPORT MACHINES

Exits 0 when REPORT is strict JSON (no NaN or Infinity tokens), every
number in it is finite, config.machines equals MACHINES, and
measured.steps_per_sec, measured.peak_rss_mb and
measured.rss_bytes_per_page are positive; otherwise prints why and
exits 1.
"""

import json
import math
import sys


def reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def check(path, machines):
    with open(path) as f:
        report = json.load(f, parse_constant=reject_constant)
    bad = [n for n in numbers(report) if not math.isfinite(n)]
    if bad:
        return f"non-finite numbers: {bad}"
    if report["config"]["machines"] != machines:
        return (f"config.machines is {report['config']['machines']}, "
                f"expected {machines}")
    measured = report["measured"]
    for key in ("steps_per_sec", "peak_rss_mb", "rss_bytes_per_page"):
        if not measured[key] > 0:
            return f"measured.{key} is {measured[key]}, expected > 0"
    print(f"{path}: {machines} machines, {measured['steps_per_sec']} "
          f"steps/s, {measured['rss_bytes_per_page']} B/page")
    return None


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    try:
        error = check(sys.argv[1], int(sys.argv[2]))
    except (OSError, ValueError, KeyError, TypeError) as e:
        error = f"{type(e).__name__}: {e}"
    if error is not None:
        print(f"{sys.argv[1]}: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
