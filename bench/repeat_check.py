"""Check that digests and exact counts repeat for a seed and move with it.

Usage, from the root of a checkout:

    python3 bench/repeat_check.py [--seed 0] [--workload NAME ...]

For each workload this runs ``bench/run.py --trace 1`` three times: twice
with the same workload seed (under different PYTHONHASHSEED values, so
that set iteration order cannot hide in a count) and once with the next
seed.  It prints, per workload, whether the round-0 digest, the exact
counts, the other count metrics and every span call count repeat across
the first two runs, and which of them change under the other seed.  Exit status 1 means the
digest or one of the exact counts did not repeat; other counts that vary
with PYTHONHASHSEED are listed as unstable.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sampled-suites", "exhaustive-duality", "fine-certificates", "cli-corpus")


def traced_record(workload: str, seed: int, hash_seed: str, out: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", "1", "--trace", "1", "--out", out],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=600)
    with open(os.path.join(out, f"{workload}-seed{seed}-trace1.json"), encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint(record: dict) -> dict:
    return {"digest": record["traced"]["digest"],
            "exact_counts": record["exact_counts"],
            "count_metrics": {k: m["value"] for k, m in record["metrics"].items()
                              if m["unit"] == "count"},
            "span_calls": {row["name"]: row["calls"] for row in record["by_name"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    status = 0
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as out:
        for workload in args.workload or WORKLOADS:
            first = fingerprint(traced_record(workload, args.seed, "1", out))
            again = fingerprint(traced_record(workload, args.seed, "2", out))
            other = fingerprint(traced_record(workload, args.seed + 1, "1", out))
            repeated = {key: first[key] == again[key] for key in first}
            if not (repeated["digest"] and repeated["exact_counts"]):
                status = 1
            unstable = sorted(k for key in ("count_metrics", "span_calls") for k in first[key]
                              if first[key][k] != again[key].get(k))
            moved = sorted(k for k, v in first["exact_counts"].items()
                           if v != other["exact_counts"][k])
            print(json.dumps({"workload": workload, "repeats": repeated,
                              "unstable_counts": unstable,
                              "digest_changes_with_seed": first["digest"] != other["digest"],
                              "exact_counts": first["exact_counts"],
                              "exact_counts_changed_by_seed": moved}))
    return status


if __name__ == "__main__":
    sys.exit(main())
