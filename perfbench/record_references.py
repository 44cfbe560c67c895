#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks runs against.

    python3 perfbench/record_references.py 0 1

Runs one untraced pass of every workload for each seed given and writes
their checked outputs (final objectives, CV scores and selection,
``worst_risk``) to ``references.json``.  Seed 0 is the default seed; seed 1
is held out, so a later claim can be rechecked on a seed not used while it
was written.  A pass with a failed operation is not recorded.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main(argv):
    seeds = [int(s) for s in argv] or [0, 1]
    md = run.load_package()

    refs = {}
    run.OUT_DIR.mkdir(exist_ok=True)
    for seed in seeds:
        refs[str(seed)] = {}
        for wl in workloads.WORKLOADS.values():
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
                inputs = wl.setup(md, seed, Path(tmp))
                rec = run.one_pass(md, wl, inputs, None, None)
            if rec.failed:
                raise SystemExit(f"seed {seed} {wl.name}: {rec.failed} operations failed: "
                                 f"{[op for op in rec.ops if op[1]]}")
            refs[str(seed)][wl.name] = rec.outputs
            print(f"seed {seed} {wl.name}: {len(rec.outputs)} outputs", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
