#!/usr/bin/env python3
"""Write the reduced-size figure runs and audits that two checkouts compare.

Usage: python3 scripts/reduced_runs.py OUT_DIR

Runs all eight figures at seed 7 with 2 scenarios per point and 2e4
trials, fig7 at P_R = 0 and 10 dBm only, then audits the fig4, fig7 and
fig9 runs at 2e4 trials and seed 7. That is 37 files under
OUT_DIR/<figure_id>/. Each spec records its output directory as ".", so
the files do not depend on OUT_DIR, and the trees of two checkouts compare
with one `diff -r`. The package is imported from this checkout's `src`.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from covertjam import experiments  # noqa: E402

SEED = 7
TRIALS = 20000
SWEEPS = {"fig7_rate_vs_PR": (0.0, 10.0)}
AUDITED = ("fig4_rate_vs_Q", "fig7_rate_vs_PR", "fig9_rate_vs_eps")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for figure_id in experiments.FIGURE_IDS:
        kwargs = {"sweep": SWEEPS[figure_id]} if figure_id in SWEEPS else {}
        spec = experiments.default_spec(
            figure_id, seed=SEED, scenarios_per_point=2, trials=TRIALS,
            output_dir=".", **kwargs)
        run_dir = experiments.run_experiment(spec)
        if figure_id in AUDITED:
            experiments.audit_run(run_dir, trials=TRIALS, seed=SEED)
        print("wrote", out / figure_id)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
