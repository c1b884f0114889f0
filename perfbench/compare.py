#!/usr/bin/env python3
"""Compare two perfbench result files of one workload.

  python3 perfbench/compare.py .perfbench_out/OLD.json .perfbench_out/NEW.json

Exact metrics (counts, simulated seconds) are always compared.  Wall-clock
metrics are compared only when both results carry the same host
fingerprint (CPU model, nproc, compiler, build type); otherwise each is
reported as "different machine, re-measure" rather than as a ratio.
Exit status: 0 ok, 1 an end-to-end metric worsened past its bound, 3 a
wall-clock comparison was refused.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import benchlib  # noqa: E402


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as old_file:
        old = json.load(old_file)
    with open(sys.argv[2], encoding="utf-8") as new_file:
        new = json.load(new_file)
    lines, regressed, refused = benchlib.compare(old, new)
    print("\n".join(lines))
    if regressed:
        return 1
    return 3 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
