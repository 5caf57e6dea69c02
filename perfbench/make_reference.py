"""Regenerate reference.json from one default-seed run of every workload.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Run this only when a change to fene is meant to change the numbers, and
say so in the change.
"""

import json
import os
import sys
import tempfile

from fene import runner

import bench


def main():
    ref = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(bench.REFERENCE)) \
            as tmp:
        for name in bench.WORKLOADS:
            run = bench.Run(name, bench.DEFAULT_SEED, os.path.join(tmp, name))
            rc = runner.run(run.cfg_path, output=run.outdir)
            problems, final = bench.check_outputs(run.values, run.outdir, rc)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            ref[name] = final
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
