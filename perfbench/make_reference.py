"""Writes the reference snapshots that the correctness gate compares suite
reports against: `dicube verify --suite all --n-max N` with `wall_time`
removed, in registry order.

Usage: python3 perfbench/make_reference.py N [N ...]

Regenerate only when a change to the suite's output is intended.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import REFERENCE_DIR, ROOT, child_env


def main(sizes: list[str]) -> int:
    for n in sizes:
        out = subprocess.run(
            [sys.executable, "-m", "dicube.cli", "verify", "--suite", "all", "--n-max", n],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
        )
        reports = [{k: v for k, v in r.items() if k != "wall_time"} for r in json.loads(out.stdout)]
        path = REFERENCE_DIR / f"suite-n{n}.json"
        path.write_text(json.dumps(reports, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}: {len(reports)} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
