"""Record the pipeline's outputs in tests/pinned_outputs.json, which tests/test_pinned_outputs.py checks.

Runs a fixed command set through ``macrosim.cli.main`` in a temporary
directory, with a copy of fixtures/ in it, so every path a command takes or
prints is relative. It pins every number and string a command prints or
writes, read back through ``macrosim._files``, with two exceptions:

- a model file is pinned through its predictions on the dataset's feature
  rows, its targets, feature ids, activation, layer shapes and stopping
  epoch, not through its weights;
- what the MLP trainer computes is left out: an MLP model's predictions, the
  cross-validated RMSE of an MLP, and the prediction, DE history and printed
  line of a search against an MLP. Its float32 sums take the order of the
  CPU's BLAS kernel, so their last bits differ between machines; the
  discrete outcomes (stopping epoch, the grid's choice, the searched timing,
  the search counts and the validated metrics) stay pinned.

The manifest also records the provenance of the numbers: Python, numpy, the
SIMD extensions numpy dispatches to, and numpy's OpenBLAS kernel. Rerun this
script only to re-record on purpose, and say which entries moved and why.

    python scripts/pin_outputs.py
"""
from __future__ import annotations

import contextlib
import ctypes
import io
import os
import pathlib
import platform
import shutil
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from macrosim import cli, dataset, surrogate
from macrosim._files import read_json, read_table, write_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "pinned_outputs.json"
TABLE = "dataset.csv"  # the gen-dataset table that the surrogates train on and the searches start from


def provenance() -> dict:
    """What the numbers were computed on: Python, numpy, numpy's SIMD extensions and its OpenBLAS kernel.

    The extensions are the dispatch targets that ``numpy.show_runtime()`` lists as found. The kernel is the
    one numpy's bundled OpenBLAS picked for this CPU (or ``OPENBLAS_CORETYPE``), read through ctypes; it is
    None where numpy bundles no OpenBLAS that reports one.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    core = None
    for lib in sorted((pathlib.Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                core = corename().decode()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd": [name for name in __cpu_dispatch__ if __cpu_features__[name]],
        "openblas_core": core,
    }


def commands() -> list[tuple[str, list[str], list[str], bool]]:
    """(label, argv, files pinned, whether the MLP trainer computed its numbers) of each pinned command, in order."""
    fx = "fixtures/"
    twolights = ["--network", fx + "twolights.json", "--init", fx + "twolights_init.csv"]
    search = [*twolights, "--data", TABLE, "--seed", "2024", "--validate"]
    out = [("calibrate-fd", ["calibrate-fd", "--counters", fx + "counters.csv", "--out", "fd.json"],
            ["fd.json"], False)]
    for name, lights in (("ring", False), ("cross", True), ("twolights", True), ("roadcats", False)):
        argv = ["simulate", "--network", f"{fx}{name}.json", "--init", f"{fx}{name}_init.csv",
                *(["--lights", f"{fx}{name}_lights.json"] if lights else []),
                "--probes", "0,100,340", "--seed", "7", "--out", f"sim_{name}.json"]
        heatmap = name == "twolights"  # its t = 100 s probe only, which keeps the manifest reviewable
        out.append((f"simulate {name}", argv + (["--heatmap", "heat"] if heatmap else []),
                    [f"sim_{name}.json", *(["heat_t100.csv"] if heatmap else [])], False))
    for jobs, table in (("1", TABLE), ("2", "dataset_jobs2.csv")):  # 12 x 260 cells: --jobs 2 takes the pool
        out.append((f"gen-dataset --jobs {jobs}",
                    ["gen-dataset", *twolights, "--runs", "12", "--seed", "2024", "--jobs", jobs, "--out", table],
                    [table], False))
    models = {"linear": [], "mlp": [], "mlp-grid": ["--grid", "--folds", "3"]}
    for name, extra in models.items():
        argv = ["train-surrogate", "--data", TABLE, "--model", name.split("-")[0], *extra, "--seed", "2024",
                "--out", f"model_{name}.json"]
        out.append((f"train-surrogate {name}", argv, [f"model_{name}.json"], name != "linear"))
    for name in models:
        for objective in ("speed", "queue"):
            tag = f"{name}_{objective}"
            argv = ["optimize", "--model", f"model_{name}.json", "--objective", objective, *search,
                    "--generations", "20", "--out", f"lights_{tag}.json", "--report", f"report_{tag}.json"]
            out.append((f"optimize {name} {objective}", argv, [f"lights_{tag}.json", f"report_{tag}.json"],
                        name != "linear"))
    argv = ["optimize", "--direct", "--objective", "queue", *search, "--pop", "8", "--generations", "3",
            "--out", "lights_direct.json", "--report", "report_direct.json"]
    out.append(("optimize direct queue", argv, ["lights_direct.json", "report_direct.json"], False))
    return out


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _pinned_file(path: pathlib.Path, mlp: bool):
    """The pinned content of one output file; ``mlp``: leave out what the MLP trainer computed."""
    if path.suffix == ".csv":
        header, rows = read_table(path, lambda found: found)
        return {"header": header, "rows": [[_cell(c) for c in cells] for _, cells in rows]}
    if path.name.startswith("model_"):
        model = surrogate.load_model(path)
        doc = {"targets": list(model.targets), "feature_ids": list(model.feature_ids),
               "activation": model.activation, "shapes": [list(W.shape) for W, _ in model.layers],
               "epochs_trained": model.epochs_trained}
        if not mlp:
            X = dataset.feature_matrix(dataset.read_csv(path.parent / TABLE))[0]
            doc["predictions"] = surrogate.predict(model, X).tolist()
        return doc
    doc = read_json(path)
    return {key: value for key, value in doc.items() if not (mlp and key in ("predicted", "history"))}


def record() -> dict:
    """The manifest: the provenance, and per command its argv, its printed lines and its pinned files."""
    pinned = {}
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "fixtures", pathlib.Path(tmp) / "fixtures")
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for label, argv, files, mlp in commands():
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc = cli.main(argv)
                if rc != 0:
                    raise RuntimeError(f"{label}: macrosim {' '.join(argv)} failed: {stderr.getvalue().strip()}")
                lines = stdout.getvalue().splitlines()
                pinned[label] = {
                    "argv": argv,
                    # of an MLP command only the grid's choice: the RMSE and the search's line carry trainer floats
                    "stdout": [line for line in lines if not mlp or line.startswith("grid best:")],
                    "files": {name: _pinned_file(pathlib.Path(tmp) / name, mlp) for name in files},
                }
        finally:
            os.chdir(cwd)
    return {"provenance": provenance(), "commands": pinned}


def main() -> int:
    write_json(record(), MANIFEST)
    print(f"wrote {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
