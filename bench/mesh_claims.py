#!/usr/bin/env python3
"""Holds the heartbeat mesh to its detection claims (EXPERIMENTS.md E4, E13).

A regenerated golden pins a bench's bytes; this pins what they must say.
Runs both benches and exits 1 unless
  - E13: precision is 1.00, recall is above 0.55, and every detection is
    localized in the top 2 suspects;
  - E4: every fault the mesh detects is localized at rank 2 or better;
and each bench detects at least one fault, so no check passes vacuously.

usage: mesh_claims.py <bench_detection_quality> <bench_anomaly_detection>
"""

import re
import subprocess
import sys


def run(binary):
    return subprocess.run([binary], check=True, capture_output=True, text=True).stdout


def table_rows(text):
    """The cells of each row below a table's dashed rule, up to a blank line."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append(re.split(r"\s{2,}", line.strip()))
    return rows


def check_e13(text):
    values = {row[0]: row[1] for row in table_rows(text)}
    precision = float(values["precision"])
    recall = float(values["recall"])
    localized, detected = map(int, re.fullmatch(r"(\d+) of (\d+) detections",
                                                values["localized in top-2"]).groups())
    failures = []
    if precision != 1.0:
        failures.append(f"E13 precision {precision:.2f}, want 1.00")
    if not recall > 0.55:
        failures.append(f"E13 recall {recall:.2f}, want above 0.55")
    if detected == 0 or localized != detected:
        failures.append(f"E13 localized {localized} of {detected} detections in the top 2")
    return failures


def check_e4(text):
    failures = []
    detected = 0
    for fault, mesh_detect, locates, _ in table_rows(text):
        if mesh_detect == "undetected":
            continue
        detected += 1
        rank = re.fullmatch(r"yes \(#(\d+)\)", locates)
        if rank is None or int(rank.group(1)) > 2:
            failures.append(f"E4 {fault}: detected at {mesh_detect}, located {locates!r}")
    if detected == 0:
        failures.append("E4: the mesh detects no fault")
    return failures


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    failures = check_e13(run(sys.argv[1])) + check_e4(run(sys.argv[2]))
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
