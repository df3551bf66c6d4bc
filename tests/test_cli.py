"""Command-line behavior: record formats, pipes, error handling, exit codes."""

import os
import random
import subprocess
import sys
from pathlib import Path

import networkx
import pytest

import zeroforcing
from util import naive_closure, path_graph, permuted_copy, random_family_spec
from zeroforcing import (build_family, canonical_labelling, cycle_graph,
                         distinct_assemblies, family_members, heawood_graph,
                         necklace, parse_graph6, permutation_prism,
                         recognize_z3, write_graph6, zero_forcing_number)
from zeroforcing.cli import main


# the subprocess runs the package these tests import, wherever it was found
SRC = str(Path(zeroforcing.__file__).parents[1])


def run_cli(args, stdin="", timeout=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "zeroforcing", *args],
                          input=stdin, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path},
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def test_zf_k4(tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_text("C~\n")
    assert main(["zf", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "C~  Z=3  witness={0,1,2}\n"


def test_zf_tsv(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("Ch\n")
    assert main(["zf", "--in", str(path), "--format", "tsv"]) == 0
    assert capsys.readouterr().out == "Ch\t1\t{0}\n"


def test_gen_matches_library(capsys):
    assert main(["gen", "necklace", "3"]) == 0
    assert capsys.readouterr().out == write_graph6(necklace(3)) + "\n"
    assert main(["gen", "family", "--order", "8"]) == 0
    expected = "".join(write_graph6(g) + "\n" for _, g in family_members(8))
    assert capsys.readouterr().out == expected


def test_pipe_composability_equals_library():
    code, gen_out, _ = run_cli(["gen", "prism", "6", "sigma=2,5"])
    assert code == 0
    code, zf_out, _ = run_cli(["zf"], stdin=gen_out)
    assert code == 0
    g6 = gen_out.strip()
    result = zero_forcing_number(parse_graph6(g6))
    witness = ",".join(map(str, sorted(result.witness)))
    assert zf_out == f"{g6}  Z={result.z}  witness={{{witness}}}\n"


def test_zf_necklace_pipe():
    code, gen_out, _ = run_cli(["gen", "necklace", "4"])
    assert code == 0
    code, zf_out, _ = run_cli(["zf"], stdin=gen_out)
    assert code == 0
    g6, z, witness = zf_out.split()
    assert (g6, z) == (gen_out.strip(), "Z=10")
    assert witness.startswith("witness={") and witness.endswith("}")
    members = {int(v) for v in witness[len("witness={"):-1].split(",")}
    assert len(members) == 10
    assert naive_closure(necklace(4), members) == set(range(24))


def test_gen_explicit_family_spec(capsys):
    assert main(["gen", "family", "t=1", "m=0", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1          # all six matchings collapse to one graph


def test_gen_family_spec_prints_the_distinct_assemblies(capsys):
    assert main(["gen", "family", "t=1", "m=0", "0"]) == 0
    members = distinct_assemblies((("M", 0), ("T", 0)))
    assert capsys.readouterr().out == "".join(write_graph6(g) + "\n"
                                              for _, g in members)


@pytest.mark.parametrize("argv", [["gen", "heawood", "--order", "6"],
                                  ["gen", "family", "t=1", "m=0", "0", "--order", "6"]],
                         ids=["heawood", "family-spec"])
def test_gen_order_without_a_bare_family_is_a_usage_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "--order takes `family` and no block spec" in err


def test_recognize_a_member_past_the_one_byte_size_field():
    rng = random.Random(64)
    g = permuted_copy(rng, build_family(random_family_spec(rng, 64)))
    record = write_graph6(g)
    assert record[0] == "~"
    code, out, err = run_cli(["recognize"], stdin=record + "\n")
    assert (code, err) == (0, "")
    result = recognize_z3(g)
    assert out == f"{record}  member  spec={result.spec.label()}\n"
    assert canonical_labelling(build_family(result.spec))[0] == \
        canonical_labelling(g)[0]


def test_closure_black_flag(capsys, tmp_path):
    path = tmp_path / "p5.g6"
    path.write_text(write_graph6(path_graph(5)) + "\n")
    assert main(["closure", "--in", str(path), "--black", "0"]) == 0
    out = capsys.readouterr().out
    assert "black={0,1,2,3,4}" in out
    assert "trace=[0>1,1>2,2>3,3>4]" in out


def test_closure_bad_black_is_a_usage_error():
    code, out, err = run_cli(["closure", "--black", "0,x"], stdin="C~\nC~\n")
    assert code == 2
    assert out == ""
    assert err.count("argument --black") == 1


def test_gen_prism_sigma_needs_two_indices():
    code, out, err = run_cli(["gen", "prism", "6", "sigma=2"])
    assert code == 1
    assert out == ""
    assert err == "zeroforcing: usage: gen prism N [sigma=i,j]\n"


@pytest.mark.parametrize("spec", [["heawood", "extra"], ["cex16", "junk"],
                                  ["family", "t=1", "m=0", "0", "junk"],
                                  ["family", "t=2", "t=1", "m=0", "0"],
                                  ["necklace", "3", "4"], ["prism", "6", "junk"],
                                  ["necklace", "x"], ["prism", "x"],
                                  ["prism", "6", "sigma=a,b"],
                                  ["prism", "5", "sigma=1,2", "sigma=2,3"],
                                  ["family", "t=x", "m=0"],
                                  ["family", "t=1", "m=0", "y"]],
                         ids=["heawood", "cex16", "family", "family-repeated-key",
                              "necklace", "prism", "necklace-x", "prism-x",
                              "prism-sigma-ab", "prism-sigma-twice", "family-t-x",
                              "family-index-y"])
def test_gen_trailing_tokens_are_a_generator_error(spec):
    code, out, err = run_cli(["gen", *spec])
    assert code == 1
    assert out == ""
    assert err.startswith("zeroforcing: usage: gen ")


def test_spantree_k1_prints_the_tree_without_a_census():
    # the single vertex has degree 0, outside the census's degrees 1-3
    code, out, err = run_cli(["spantree"], stdin="@\n")
    assert (code, out, err) == (0, "@  root=0  deleted=[]\n", "")


def test_spantree_text_and_graph6(capsys, tmp_path):
    path = tmp_path / "c4.g6"
    path.write_text(write_graph6(cycle_graph(4)) + "\n")
    assert main(["spantree", "--in", str(path), "--root", "0"]) == 0
    out = capsys.readouterr().out
    assert "root=0" in out and "deleted=[(1,2)]" in out and "n1=" in out
    assert main(["spantree", "--in", str(path), "--root", "0",
                 "--format", "graph6"]) == 0
    tree_line = capsys.readouterr().out.strip()
    assert parse_graph6(tree_line).edges == frozenset({(0, 1), (0, 3), (2, 3)})


def test_census_survives_bad_record():
    code, out, err = run_cli(["census"], stdin="C~\n??bad??\nCh\n")
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert code == 1
    assert len(rows) == 2           # good records still processed
    assert rows[0][0] == "C~" and rows[0][4] == "3"
    assert rows[1][0] == "Ch"
    assert "line 2" in err


def test_census_skips_empty_graph():
    # `?` is the graph on no vertices: parsed, then skipped with a note
    code, out, err = run_cli(["census"], stdin="?\nC~\n")
    assert code == 1
    assert out == "C~\t4\t1\t3\t3\t3\t0\t-\tM=3\n"
    assert err == "line 1: bounds are reported for connected graphs\n"


def test_census_columns():
    code, out, _ = run_cli(["census"], stdin="C~\n")
    row = out.strip().split("\t")
    # graph6, n, cubic, kappa, Z, L_eig, L_twin, L_minor, verdict
    assert row == ["C~", "4", "1", "3", "3", "3", "0", "-", "M=3"]


def test_census_kappa_matches_networkx(data_dir):
    code, out, _ = run_cli(["census", "--in", str(data_dir / "cubic12.g6")])
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 85
    for row in rows:
        h = networkx.Graph(list(parse_graph6(row[0]).edges))
        assert int(row[3]) == networkx.edge_connectivity(h), row[0]


def test_bounds_record_bytes():
    # a `>>graph6<<` header is not echoed: the record names the graph it parsed
    stdin = "C~\n>>graph6<<C~\nIhdCHCPBG\nM???BOsEcWGog_s??\n"
    block = ("graph6: C~\nL: 3 [eigenvalue=3 twin=0]\nU: 3\n"
             "witness: {0,1,2}\nverdict: M=3\n")
    code, out, err = run_cli(["bounds", "--budget", "4"], stdin=stdin)
    assert (code, err) == (1, "")   # Heawood (Z=6) exhausts the budget
    assert out == (block + "\n" + block + "\n"
                   "graph6: IhdCHCPBG\nL: 1 [eigenvalue=1 twin=0]\nU: 4\n"
                   "witness: {0,1,2,4}\nverdict: M in [1,4]\n\n"
                   "graph6: M???BOsEcWGog_s??\nL: 6 [eigenvalue=6 twin=0]\n"
                   "U: unknown (>= 6)\nwitness: -\nverdict: M in [6,?]\n")
    assert run_cli(["gen", "prism", "5", "sigma=1,2"])[1] == "IhdCHCPBG\n"
    assert run_cli(["gen", "heawood"])[1] == "M???BOsEcWGog_s??\n"


def test_bounds_budget_below_lower_skips_the_search():
    # L = 42 > 12, so Z >= 42 without a search; the solver alone would try
    # every set of up to 12 of the 120 vertices
    g6 = run_cli(["gen", "necklace", "20"])[1]
    code, out, err = run_cli(["bounds", "--budget", "12"], stdin=g6, timeout=30)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[1:] == ["L: 42 [eigenvalue=42 twin=40]", "U: unknown (>= 42)",
                         "witness: -", "verdict: M in [42,?]"]


def test_budget_exhaustion_exit_code(tmp_path):
    path = tmp_path / "hw.g6"
    path.write_text(write_graph6(heawood_graph()) + "\n")
    code, out, _ = run_cli(["zf", "--in", str(path), "--budget", "4"])
    assert code == 1
    assert "Z>=5" in out


def test_zf_tsv_exhausted_budget_row():
    hw = write_graph6(heawood_graph())
    code, out, _ = run_cli(["zf", "--format", "tsv", "--budget", "4"], stdin=hw + "\n")
    assert code == 1
    assert out == f"{hw}\t>=5\t-\n"


@pytest.mark.parametrize("argv", [["recognize", "--budget", "1"],
                                  ["census", "--format", "tsv"]],
                         ids=lambda argv: argv[0])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv):
    code, out, err = run_cli(argv, stdin="C~\n")
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


def test_malformed_input_exits_one(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("C\n")
    code, _, err = run_cli(["zf", "--in", str(path)])
    assert code == 1
    assert "line 1" in err


def test_missing_input_file():
    code, _, err = run_cli(["zf", "--in", "/nonexistent/file.g6"])
    assert code == 1
    assert err


def test_unknown_generator():
    code, _, err = run_cli(["gen", "dodecahedron"])
    assert code == 1
    assert "unknown generator" in err


def test_usage_error_exit_code():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_output_file(tmp_path):
    out_path = tmp_path / "out.g6"
    code, _, _ = run_cli(["gen", "heawood", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == write_graph6(heawood_graph()) + "\n"


def test_census_budget_reports_forcing_floor(tmp_path):
    path = tmp_path / "hw.g6"
    path.write_text(write_graph6(heawood_graph()) + "\n")
    code, out, _ = run_cli(["census", "--in", str(path), "--budget", "4"])
    assert code == 1                # exhausted budget is a computation error
    row = out.strip().split("\t")
    assert row[4] == ">=6"  # L = 6 raises the solver's floor of 5
    assert row[8] == "M in [6,?]"


@pytest.mark.parametrize("argv", [["closure", "--black", "0"], ["zf"], ["bounds"],
                                  ["recognize"], ["spantree"], ["census"]],
                         ids=lambda argv: argv[0])
def test_bad_records_are_skipped_with_a_note(argv, tmp_path, capsys):
    # `C` is malformed; `?` (no vertices) parses but no subcommand computes it
    good = ["C~", write_graph6(permutation_prism(4))]
    path = tmp_path / "good.g6"
    path.write_text("".join(line + "\n" for line in good))
    assert main([*argv, "--in", str(path)]) == 0
    expected = capsys.readouterr().out
    path.write_text(f"{good[0]}\nC\n?\n{good[1]}\n")
    assert main([*argv, "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == expected
    notes = captured.err.splitlines()
    assert [note.split(":")[0] for note in notes] == ["line 2", "line 3"]
