"""Set-up cost of one cold process: import collapselab.cli_io, then build
every model the workload uses.  Prints one JSON line with both times.

    python3 bench/setup_probe.py <workload> [--import-only]

run.py starts it with the pinned thread environment it set for itself.
"""
import json
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))


def main() -> None:
    workload = sys.argv[1]
    start = time.perf_counter()
    import collapselab.cli_io  # noqa: F401  (the timed import)
    imported = time.perf_counter()
    doc = {"import_s": imported - start}
    if "--import-only" not in sys.argv[2:]:
        import workloads
        with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
            workloads.setup(workload, Path(tmp))
            doc["setup_s"] = time.perf_counter() - start
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
