"""The benchmark's workloads at seed 0 against their stored references.

Each perfbench workload makes its seed-0 inputs with its own classes and runs
its CLI call twice in this process. Both calls exit 0 and write byte-identical
files, and the first call's tables keep the output contract
(``workloads.structural_faults``) and match
``perfbench/reference/<workload>-seed0.npz`` row for row
(``workloads.compare``: coefficients within ``COEF_TOL``, branch codes and
ill-posed flags exactly). perfbench's code is only read: ``workloads.py`` is
loaded from its file, and ``run.py``, which sets BLAS thread variables on
import, is not imported.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import gimbal
import gimbal.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def reference_tables(name, seed):
    """{table: {column: array}} of a stored reference, its meta entries left out."""
    tables = {}
    with np.load(PERFBENCH / "reference" / f"{name}-seed{seed}.npz") as data:
        for key in data.files:
            table, column = key.split("/")
            if table != "meta":
                tables.setdefault(table, {})[column] = data[key]
    return tables


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_at_seed_0_matches_its_reference(tmp_path, name):
    workload = workloads.WORKLOADS[name](gimbal, 0)
    workload.setup(tmp_path)
    outputs = []
    for run in ("a", "b"):
        outdir = tmp_path / run
        outdir.mkdir()
        assert gimbal.cli.main(workload.argv(outdir, 1)) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(outdir.iterdir())})
    assert outputs[0] and outputs[0] == outputs[1]
    tables = workload.tables(tmp_path / "a")
    reference = reference_tables(name, 0)
    assert set(reference) == set(workload.expected_rows())
    for table, n_rows in workload.expected_rows().items():
        # the reference holds every row
        assert reference[table]["index"].tolist() == list(range(n_rows))
        assert not workloads.structural_faults(tables[table], n_rows), table
        assert not workloads.compare(tables[table], reference[table]), table
