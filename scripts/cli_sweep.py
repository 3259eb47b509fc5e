#!/usr/bin/env python3
"""Byte-identity sweep of the command line, run in-process.

Runs ``euler3d.cli.main`` over a fixed set of configurations, in a fresh
temporary directory with relative output paths, and writes one JSON
manifest: for every run its arguments, exit code, stdout and stderr, and
the SHA-256 of every file it wrote.  Two checkouts wrote the same bytes
when a plain ``diff`` of their manifests is empty.  It imports the package
from the ``src`` directory beside this script, so a copy of a checkout
sweeps that checkout.

The sweep: N = 1..3 on the boxes (1, 1, 1), (1, 0.3, 1) and
(0.7, 1.3, 0.1).  On each, ``shear`` under the reference vectors (1, 0, 0)
and (0, -1, 0) and ``verify`` (60 cases) under the first; then for each
structure and each reference vector ``simulate`` (20 steps, a snapshot
every 5, a record every 3, amplitude 2, seed 3), ``simulate`` from that
run's final snapshot (4 steps), from the shear state (6 steps, a snapshot
every 2), a blow-up run (amplitude 100, dt 10, 50 steps), ``rank``
(seed 1), and ``export`` (seed 2) at N <= 2 and at N = 3 on (1, 0.3, 1).

Usage: python scripts/cli_sweep.py MANIFEST.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from euler3d import cli  # noqa: E402

BOXES = ((1.0, 1.0, 1.0), (1.0, 0.3, 1.0), (0.7, 1.3, 0.1))
N_VECTORS = ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
STRUCTURES = ("direct", "simple", "projected", "reduced")


def runs(Ns=(1, 2, 3)):
    """(output directory, command, config settings) of every run, in order;
    a run may read what an earlier one wrote."""
    for N in Ns:
        for b, box in enumerate(BOXES):
            for v, n in enumerate(N_VECTORS):
                at, tag = {"N": N, "aniso": list(box), "n_vector": list(n)}, f"N{N}-box{b}-n{v}"
                yield f"{tag}/shear", "shear", at
                if v == 0:
                    yield f"{tag}/verify", "verify", {**at, "cases": 60}
                for which in STRUCTURES:
                    s, run = {**at, "structure": which}, f"{tag}/{which}"
                    first = {"steps": 20, "snapshot_every": 5, "observe_every": 3, "amplitude": 2, "seed": 3}
                    yield f"{run}/simulate", "simulate", {**s, **first}
                    resume = {"kind": "snapshot", "path": f"{run}/simulate/final_state.json"}
                    yield f"{run}/resume", "simulate", {**s, "steps": 4, "initial": resume}
                    yield f"{run}/from_shear", "simulate", {**s, "steps": 6, "snapshot_every": 2, "initial": {"kind": "shear"}}
                    yield f"{run}/blow_up", "simulate", {**s, "amplitude": 100, "dt": 10, "steps": 50}
                    yield f"{run}/rank", "rank", {**s, "seed": 1}
                    if N <= 2 or box == (1.0, 0.3, 1.0):
                        yield f"{run}/export", "export", {**s, "seed": 2}


def sweep(Ns=(1, 2, 3)) -> dict:
    """{output directory: {argv, exit, stdout, stderr, files}} of every run of ``runs(Ns)``."""
    manifest = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for out, command, settings in runs(Ns):
                argv = [command, "--out", out]
                for key, value in settings.items():
                    argv += ["--set", f"{key}={json.dumps(value)}"]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                files = sorted(p for p in Path(out).rglob("*") if p.is_file())
                manifest[out] = {
                    "argv": argv,
                    "exit": code,
                    "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue(),
                    "files": {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
                }
        finally:
            os.chdir(cwd)
    return manifest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("manifest", help="JSON file to write")
    path = ap.parse_args().manifest
    manifest = sweep()
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    files = sum(len(run["files"]) for run in manifest.values())
    print(f"{len(manifest)} runs, {files} files: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
