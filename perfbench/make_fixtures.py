"""Regenerate the full-size nets that the query phases of both workloads load.

Usage, from the repository root:

    python3 perfbench/make_fixtures.py

It runs the two preset pipelines exactly as ``quantmeu repro portfolio`` and
``quantmeu repro normal-normal`` do, at the presets' default seeds and full
table size, copies the trained nets into ``perfbench/fixtures/`` and records
their acceptance values in ``fixtures/PROVENANCE.json``. It takes about two
minutes on a 2-core x86-64 box. The benchmark's own workloads train at a
reduced table size that cannot reach the A1/A2 thresholds, so those
thresholds are checked against these nets instead.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from common import FIXTURES, OUT, git_commit, import_quantmeu

FILES = {
    "portfolio": ("utility_net.json", "portfolio_utility_net.json"),
    "normal-normal": ("posterior_net.json", "normal_normal_posterior_net.json"),
}


def main() -> int:
    quantmeu = import_quantmeu()
    provenance = {
        "command": "python3 perfbench/make_fixtures.py",
        "git_commit": git_commit(),
        "nets": {},
    }
    for experiment, (produced, fixture) in FILES.items():
        outdir = os.path.join(OUT, "fixture-build", experiment)
        t0 = time.perf_counter()
        report = quantmeu.repro.RUNNERS[experiment](outdir)
        elapsed = time.perf_counter() - t0
        shutil.copyfile(os.path.join(outdir, produced), os.path.join(FIXTURES, fixture))
        preset = quantmeu.get_preset(experiment)
        provenance["nets"][fixture] = {
            "preset": experiment,
            "seed": preset["simulate"]["seed"],
            "N": preset["simulate"]["N"],
            "passed": report.passed,
            "checks": {c.name: c.value for c in report.checks},
            "elapsed_s": round(elapsed, 1),
        }
        print(f"{experiment}: passed={report.passed} in {elapsed:.1f} s -> {fixture}")
        if not report.passed:
            return 1
    with open(os.path.join(FIXTURES, "PROVENANCE.json"), "w", encoding="utf-8") as fh:
        json.dump(provenance, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
