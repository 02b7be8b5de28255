"""Record bench/expected.json: the exit code and mathematical fields of every
benchmark request, as computed by the checked-out code.

    python3 bench/record_expected.py

Run from the root of a checkout.  Each workload is run once for each of the
seeds 1..SEEDS, and the answers must not depend on the seed (the relabelling
leaves the mathematics unchanged).  The SL case-study values are cross-checked against
``closed_form_sln``; the SO fixtures are recorded as the computed 3n, so the
file neither encodes nor depends on the recorded 4n of ``closed_form_so``.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

SEEDS = 5


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from edtorus.pipeline import closed_form_sln

    expected = {}
    for workload in workloads.WORKLOADS:
        seen = None
        for seed in range(1, SEEDS + 1):
            ids, argvs = run.prepare(workload, seed)
            result = run.run_client(argvs)
            answers = [run.reply_answer(r) for r in result["replies"]]
            if len(answers) != len(ids) or None in answers:
                raise SystemExit(f"{workload} seed {seed}: a request did not produce a report")
            if seen is not None and answers != seen:
                raise SystemExit(f"{workload}: answers depend on the seed ({seed})")
            seen = answers
        expected[workload] = dict(zip(ids, seen))

    for rid, got in expected["sylow-cases"].items():
        n, p = (int(x) for x in rid.split()[-2:])
        if got["answer"].get("exact") != closed_form_sln(n, p):
            raise SystemExit(f"{rid}: exact {got['answer'].get('exact')} != closed form {closed_form_sln(n, p)}")
    for n in (1, 2):
        got = expected["abelian-session"][f"ed @so_{n}"]["answer"].get("exact")
        if got != 3 * n:
            raise SystemExit(f"ed so {n}: exact {got}, expected the computed 3n = {3 * n}")

    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
