"""Pin the sha256 of every CSV the benchmark's commands print or write.

Run from the root of a source checkout::

    python3 bench/pin.py --seeds 0,1,2 --held-out-seed 7919

For each workload and seed this sets up the repository, makes one checked
pass and records the output digests in ``bench/pinned.json``. A run of
``bench/run.py`` at a pinned seed then also requires byte-identical output.
Outputs that fail the workload's checks are not pinned.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, Session, import_program
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--held-out-seed", type=int, required=True)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")] + [args.held_out_seed]

    root = Path.cwd()
    predrepo = import_program(root)
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    pinned: dict[str, dict] = {}
    status = 0
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            work = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=scratch))
            try:
                session = Session(predrepo, workload, seed, work, pinned=None)
                session.run_pass(0, traced=False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if session.failed:
                print(f"not pinned: {name} seed {seed} failed its checks", file=sys.stderr)
                status = 1
                continue
            pinned.setdefault(name, {})[str(seed)] = session.digests
            print(f"pinned {name} seed {seed}", file=sys.stderr)
    scratch.rmdir()
    with open(BENCH_DIR / "pinned.json", "w", encoding="utf-8") as f:
        json.dump({"held_out_seed": args.held_out_seed, "sha256": pinned}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
