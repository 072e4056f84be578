"""Write perfbench/expected.json, the frozen dims, ranks and Betti numbers of every task.

    python3 perfbench/freeze.py

Run it only to record a table that is known to be right: every benchmark
run compares its results against this file.  The entries are computed with
seed 0; the seed only permutes algebra bases, which leaves them unchanged.
"""

import json
import os
import re

from run import HERE, WORKLOADS, _import_package


def main():
    _import_package()
    import bench

    table = {name: bench.frozen_table(w["tasks"]) for name, w in WORKLOADS.items() if w["tasks"]}
    text = json.dumps(table, indent=1, sort_keys=True)
    # one line per list of numbers
    text = re.sub(r"\[\s+([-\d,\s]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        fh.write(text + "\n")


if __name__ == "__main__":
    main()
