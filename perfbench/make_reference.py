"""Regenerate perfbench/reference.json: seed-0 outputs of every workload.

    python3 perfbench/make_reference.py

Runs each workload once at seed 0 and N = 5 with BLAS pinned to one thread
and stores the values the workload checks compare against, with the inputs
they came from and the commit of the checkout. Regenerate only when a
change is meant to alter these results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from run import REFERENCE, THREAD_ENV, git_commit  # noqa: E402

os.environ.update(THREAD_ENV)   # before numpy is imported
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    out = {"commit": git_commit(), "thread_env": THREAD_ENV, "seed": 0,
           "workloads": {}}
    for name, work in WORKLOADS.items():
        inputs = work.inputs(0, 5)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "_work")) as outdir:
            returned = work.run(inputs, outdir)
            out["workloads"][name] = {"inputs": inputs,
                                      "values": work.reference(outdir, returned)}
        print(f"{name}: done")
    with open(REFERENCE, "w") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
