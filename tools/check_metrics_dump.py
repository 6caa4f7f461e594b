#!/usr/bin/env python3
"""Checks the metrics_dump probe's command-line surface.

    check_metrics_dump.py frames N CMD [ARG...]
        Run CMD. It must exit 0 and print exactly N lines on stdout,
        each a JSON object with t_sec, counters, gauges and
        histograms.

    check_metrics_dump.py rejects CMD [ARG...]
        Run CMD. It must exit 1 and print its usage line on stderr.

Exits 0 when the check holds; otherwise prints why on stderr and
exits 1.
"""

import json
import subprocess
import sys

FRAME_KEYS = ("t_sec", "counters", "gauges", "histograms")


def fail(message):
    print("check_metrics_dump: " + message, file=sys.stderr)
    return 1


def check_frames(expected, cmd):
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        return fail(f"exit {run.returncode}, want 0\n{run.stderr}")
    lines = run.stdout.splitlines()
    if len(lines) != expected:
        return fail(f"{len(lines)} frames, want {expected}")
    for n, line in enumerate(lines, 1):
        try:
            frame = json.loads(line)
        except json.JSONDecodeError as err:
            return fail(f"frame {n} is not JSON: {err}")
        if not isinstance(frame, dict):
            return fail(f"frame {n} is not a JSON object")
        missing = [key for key in FRAME_KEYS if key not in frame]
        if missing:
            return fail(f"frame {n} lacks {', '.join(missing)}")
    return 0


def check_rejects(cmd):
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 1:
        return fail(f"exit {run.returncode}, want 1")
    if "usage:" not in run.stderr:
        return fail("no usage line on stderr")
    return 0


def main(argv):
    if len(argv) >= 4 and argv[1] == "frames" and argv[2].isdigit():
        return check_frames(int(argv[2]), argv[3:])
    if len(argv) >= 3 and argv[1] == "rejects":
        return check_rejects(argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
