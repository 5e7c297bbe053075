"""Record golden.json: the expected outputs of every workload.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are known to be right; the file in
the repository was recorded on the commit that added the benchmark.  The
seed does not matter: a sweep's outputs are keyed by k.
"""
from __future__ import annotations

import json

from child import HERE, load_api
from workloads import WORKLOADS, Checks, run


def main() -> None:
    api = load_api()
    golden = {}
    for name, spec in WORKLOADS.items():
        checks = Checks()
        golden[name], _ = run(api, spec, 0, checks)
        if checks.failures:
            raise SystemExit(f"{name}: {checks.failures}")
        print(name, "recorded", flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
