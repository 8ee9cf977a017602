#!/usr/bin/env python3
"""Record the reference outputs that every benchmark job is checked against.

    python3 bench/make_reference.py [workload ...]

Runs every entry of each workload's job menus once, under the same thread
environment as bench/run.py, and writes bench/reference/<workload>.json.
Re-record only when a change to collapselab is meant to change results.
"""
import json
import sys
import tempfile
import time

import run  # pins the BLAS thread environment before numpy loads


def main(argv) -> int:
    run.require_checkout()
    import workloads
    names = argv or list(workloads.WORKLOADS)
    run.OUT.mkdir(exist_ok=True)
    for name in names:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            ctx = workloads.setup(name, run.Path(tmp))
            records = {}
            for job in workloads.reference_keys(name):
                out, checks = workloads.run_job(ctx, job)
                errors = [e for check in checks for e in check()]
                if errors:
                    raise SystemExit(f"{job.label}: {errors}")
                records.update(out)
        doc = {"workload": name, "source_sha256": run._source_digest(),
               "records": dict(sorted(records.items()))}
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=0, sort_keys=True)
            handle.write("\n")
        print(f"{name}: {len(records)} records in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
