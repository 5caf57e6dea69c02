"""The run set: eight fixed runs, the sha256 of the 21 files they write, and
the largest |value| of every CSV column and checkpoint array (a CSV
column's NaN cells are skipped and counted).

    python3 runset/runset.py --write runset/runset.json
    python3 runset/runset.py --against runset/runset.json [--expect-change]

The runs go through fene.runner.run, imported from the src/ beside this
directory:

    shear           shear_perturbation, 30 steps, a snapshot every 10
    shear_resumed   the same, resumed from shear's step-10 snapshot
    equilibrium     the default equilibrium run
    bump            density_bump, 20 steps, periodic forcing 0.2 at (1, 1)
    steady          shear, 20 steps, steady forcing 0.1, fluid.cutoff_r 0.099
    cutoff          shear, 20 steps, fluid.cutoff_r 0.01, mean velocity 0.5
    lemma           lemma_a1 on a 16 x 16 ball with 12 basis functions
    contraction     contraction_study at n = 16

A manifest records the output path as its config writes it, and the path
of the checkpoint a run resumes from.  So the tool always works from the
repository root and writes every run to the same relative path under
runset/out/ (ignored by git), which it empties first: two checkouts then
write byte-identical manifests.

--against compares each file's sha256 with the table.  A file that
differs is listed with the relative change of the largest |value| of each
of its CSV columns or checkpoint arrays (r, u, psi); a missing or new file
is named.  The tool exits 1 on any difference unless --expect-change is
given.

The hashes belong to the host that wrote them: OpenBLAS picks its kernels
by CPU, and whether they hold on another CPU has not been measured.  So
the run set is not part of the test suite or of CI.
"""

import argparse
import hashlib
import json
import os
import shutil
import struct
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join("runset", "out")

_SHEAR = "scenario = shear_perturbation\n"
RUNS = {
    "shear": _SHEAR + "max_steps = 30\nsnapshots.every = 10\n",
    "equilibrium": "scenario = equilibrium\n",
    "bump": "scenario = density_bump\nmax_steps = 20\n"
            "forcing.kind = time_periodic\nforcing.amplitude = 0.2\n"
            "forcing.mode = 1, 1\n",
    "steady": _SHEAR + "max_steps = 20\nforcing.kind = steady_field\n"
              "forcing.amplitude = 0.1\nfluid.cutoff_r = 0.099\n",
    "cutoff": _SHEAR + "max_steps = 20\nfluid.cutoff_r = 0.01\n"
              "scenario.mean_velocity = 0.5\n",
    "lemma": "scenario = lemma_a1\nball.n_radial = 16\nball.n_angular = 16\n"
             "ball.n_basis = 12\n",
    "contraction": "scenario = contraction_study\ngrid.n_points = 16\n",
}
# run name -> (the run it resumes, the snapshot of that run)
RESUMED = {"shear_resumed": ("shear", "snapshots/step000010.fkp")}

# the .fkp header (checkpoint.py): magic, version, n_points, n_radial,
# n_angular, n_basis, b, time
_FKP_HEADER = struct.Struct("<4sIIIIIdd")


def run_all():
    """Run the set under OUT, emptied first; returns the written files as
    paths relative to OUT, sorted."""
    from fene import runner

    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    configs = {}
    for name, text in RUNS.items():
        configs[name] = os.path.join(OUT, f"{name}.cfg")
        with open(configs[name], "w", encoding="utf-8") as fh:
            fh.write(f"{text}output = {os.path.join(OUT, name)}\n")
        code = runner.run(configs[name])
        if code:
            raise SystemExit(f"run {name} exited {code}")
    for name, (base, snapshot) in RESUMED.items():
        code = runner.run(configs[base], output=os.path.join(OUT, name),
                          resume_from=os.path.join(OUT, base, snapshot))
        if code:
            raise SystemExit(f"run {name} exited {code}")
    return sorted(
        os.path.relpath(os.path.join(top, f), OUT).replace(os.sep, "/")
        for name in (*RUNS, *RESUMED)
        for top, _, files in os.walk(os.path.join(OUT, name)) for f in files)


def _csv_maxima(raw):
    lines = raw.decode().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    out = {}
    for i, col in enumerate(header):
        try:
            vals = [float(row[i]) for row in rows]
        except ValueError:   # a text column, such as the kind of a row
            continue
        vals = np.abs(vals)
        nan = np.isnan(vals)
        out[col] = float(vals[~nan].max()) if not nan.all() else np.nan
        if nan.any():   # so that a value entering or leaving them shows
            out[f"{col} (NaN cells)"] = int(nan.sum())
    return out


def _fkp_maxima(raw):
    n_basis = _FKP_HEADER.unpack_from(raw)[5]
    coeffs = np.frombuffer(raw, dtype="<c16", offset=_FKP_HEADER.size)
    m = len(coeffs) // (3 + n_basis)   # the coefficients of one field
    return {name: float(np.abs(c).max()) for name, c in (
        ("r", coeffs[:m]), ("u", coeffs[m:3 * m]), ("psi", coeffs[3 * m:]))}


def describe(path):
    """{"sha256": ..., "max_abs": {column or array: largest |value|}}; a
    manifest has no columns."""
    with open(path, "rb") as fh:
        raw = fh.read()
    maxima = {}
    if path.endswith(".csv"):
        maxima = _csv_maxima(raw)
    elif path.endswith(".fkp"):
        maxima = _fkp_maxima(raw)
    return {"sha256": hashlib.sha256(raw).hexdigest(), "max_abs": maxima}


def _relative_change(old, new):
    if old == new:
        return 0.0
    return abs(new - old) / max(abs(old), abs(new))


def compare(table, current):
    """The report lines and the number of files that differ."""
    lines, differ = [], 0
    for name in sorted(set(table) | set(current)):
        if name not in current:
            lines.append(f"{name}: missing")
        elif name not in table:
            lines.append(f"{name}: new")
        elif table[name]["sha256"] == current[name]["sha256"]:
            lines.append(f"{name}: identical")
            continue
        else:
            old, new = table[name]["max_abs"], current[name]["max_abs"]
            lines.append(f"{name}: sha256 {table[name]['sha256'][:12]} -> "
                         f"{current[name]['sha256'][:12]}")
            for key in sorted(set(old) | set(new)):
                if key in old and key in new:
                    change = f"{_relative_change(old[key], new[key]):.3e}"
                else:
                    change = "missing" if key in old else "new"
                lines.append(f"    {key}: {change}")
        differ += 1
    total = len(set(table) | set(current))
    lines.append(f"{total - differ} of {total} files identical")
    return lines, differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="JSON",
                        help="record the run set's table into JSON")
    action.add_argument("--against", metavar="JSON",
                        help="compare the run set with the table in JSON")
    parser.add_argument("--expect-change", action="store_true",
                        help="exit 0 even when a file differs")
    args = parser.parse_args(argv)
    table_path = os.path.abspath(args.write or args.against)
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    current = {name: describe(os.path.join(OUT, name)) for name in run_all()}
    if args.write:
        with open(table_path, "w", encoding="utf-8") as fh:
            json.dump(current, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(current)} files to {table_path}")
        return 0
    with open(table_path, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    lines, differ = compare(table, current)
    print("\n".join(lines))
    return 1 if differ and not args.expect_change else 0


if __name__ == "__main__":
    sys.exit(main())
