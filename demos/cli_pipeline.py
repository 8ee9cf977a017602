"""Driving the command-line surface end to end.

Model files are plain JSON specs.  The `collapselab` entry point builds
them, sweeps the rescaled family, computes state distances, audits the
structural hypotheses, and bundles everything into a report.  All outputs
are deterministic per seed; this script runs the same pipeline twice and
diffs the bytes.
"""
import json
import tempfile
from pathlib import Path

from collapselab.cli_io import main

MODELS = Path(__file__).resolve().parent.parent / "models"
with tempfile.TemporaryDirectory(prefix="collapselab-demo-") as tmp:
    work = Path(tmp)
    print("work dir:", work)
    print()

    model = str(MODELS / "torus_g1f1.json")

    # Build: prints (or writes) a JSON description of the realized model.
    info = work / "info.json"
    rc = main(["build", "--model", model, "--out", str(info)])
    doc = json.loads(info.read_text())
    print("build exit", rc, "->", doc["metadata"]["model_label"],
          "dim", doc["hilbert_dim"], "sectors", doc["sector_count"])
    print()

    # Sweep: CSV of tracked eigenvalues plus a JSON summary next to it.
    csv_path = work / "sweep.csv"
    rc = main(["sweep", "--model", model, "--eps-grid", "geometric:1:0.5:9",
               "--out", str(csv_path)])
    summary = json.loads((work / "sweep.summary.json").read_text())
    print("sweep exit", rc, "| hausdorff curve:",
          ["%.1e" % h for h in summary["hausdorff_curve"][:4]], "...")
    print()

    # Distance between two lattice vertex states of the same model.
    rc = main(["distance", "--model", str(MODELS / "path3.json"),
               "--states", "vertex:0,vertex:2", "--oracle"])
    print("distance exit", rc)
    print()

    # Audit: six hypothesis verdicts, nonzero exit on failure.
    audit_path = work / "audit.json"
    rc = main(["audit", "--model", model, "--samples", "100",
               "--out", str(audit_path)])
    verdicts = json.loads(audit_path.read_text())["verdicts"]
    print("audit exit", rc, "| passed",
          sum(v["passed"] for v in verdicts), "of", len(verdicts))
    rc = main(["audit", "--model", str(MODELS / "crossed_adversarial.json"),
               "--samples", "100", "--out", str(work / "bad.json")])
    print("adversarial audit exit", rc, "(audit failures exit nonzero)")
    print()

    # Determinism: run the sweep again and compare bytes.
    second = work / "sweep2.csv"
    main(["sweep", "--model", model, "--eps-grid", "geometric:1:0.5:9",
          "--out", str(second)])
    same = csv_path.read_bytes() == second.read_bytes()
    print("sweep bytes identical across runs:", same)
