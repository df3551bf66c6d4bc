"""Byte-for-byte output pins: the md5 of what `cli.main` writes to stdout.

The solver's witnesses, its budgeted search, the order in which the closure
applies forces and each family member's least spec are all visible in these
outputs, so a change that should leave them alone is checked here.  The zf
digest covers 509 rows; the budgeted one 465 `Z=` rows and 44 `Z>=6` rows, so
it exits 1; the closure one 509 rows, 443 with a force and 76 reaching all 14
vertices; the recognize ones 70 member rows at order 18 and 10 member rows
among the 509 of order 14.
"""

import hashlib

import pytest

from conftest import DATA_DIR
from zeroforcing.cli import main

CUBIC14 = str(DATA_DIR / "cubic14.g6")


def stdout_md5(capsys, argv, status=0):
    assert main(argv) == status
    return hashlib.md5(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("argv, status, digest", [
    (["zf"], 0, "432153933d491bea486db84f19dd8f98"),
    (["zf", "--budget", "5"], 1, "f032359ed5e1db25b3d19c2e9010814f"),
    (["closure", "--black", "0,1,2,3"], 0, "fc6af466f2272a37994b90e78165b42a"),
    (["recognize"], 0, "9b29151d100755b402a3dbdadac43042"),
], ids=["zf", "zf-budget-5", "closure", "recognize"])
def test_cubic14_digest(capsys, argv, status, digest):
    assert stdout_md5(capsys, argv + ["--in", CUBIC14], status) == digest


def test_family_18_recognize_digest(capsys, tmp_path):
    members = str(tmp_path / "family18.g6")
    assert main(["gen", "family", "--order", "18", "--out", members]) == 0
    assert (stdout_md5(capsys, ["recognize", "--in", members])
            == "7159d840c805a47e68c301a557d98963")
