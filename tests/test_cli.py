import contextlib
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fcl import cli, partitions
from fcl.cli import _matrix, build_parser, dispatch
from fcl.partitions import enumerate_partitions, format_partition, multiplicities
from fcl.qseries import _ZERO, LaurentPoly, SparseMatrix
from fcl.specht import standard_tableaux

ROOT = Path(__file__).resolve().parent.parent
BENCH_JOBS, README = ROOT / "bench" / "jobs.py", ROOT / "README.md"


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_decomp_matrix_golden(capsys):
    code, out = run(capsys, "decomp-matrix", "--n", "2", "--m", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ',5,"4,1","3,2"'
    assert lines[1] == "5,1,.,."
    assert lines[4] == '"3,1,1",1,.,1'
    assert lines[7] == '"1,1,1,1,1",1,.,.'


def test_defaults_give_the_printed_table(capsys):
    code, zero_config = run(capsys, "decomp-matrix")
    code2, explicit = run(capsys, "decomp-matrix", "--n", "2", "--m", "5")
    assert code == code2 == 0
    assert zero_config == explicit


def test_emitters(capsys):
    code, out = run(capsys, "canonical-basis", "--n", "2", "--m", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2 and payload["m"] == 3
    assert payload["rows"] == ["3", "2,1", "1,1,1"]
    assert payload["cols"] == ["3", "2,1"]
    code, csv_text = run(capsys, "canonical-basis", "--n", "2", "--m", "3", "--format", "csv")
    assert code == 0
    assert csv_text.splitlines()[0] == ',3,"2,1"'
    assert "." in csv_text


CSV_ARGV = [
    "canonical-basis --n 3 --m 5",
    "decomp-matrix --n 2 --m 6",
    "restriction --n 2 --m 5",
    "restriction --n 4 --m 1",
    "specht-matrix --shape 3,2,1 --gen 2",
    "specht-matrix --shape 2 --gen 1",
    "js-list --n 2 --weight 2",
    "js-list --n 3 --core 1 --weight 2",
    "js-list --n 3 --core 3,1 --weight 0",
    "branching --n 3 --j 0 --target 1,2 --L 8",
    "branching --n 3 --j 0 --target 1,2 --source fermionic",
    "chi --n 3 --core 1 --source direct",
    "abf --L 4 --a 1 --b 2 --c 3 --m 3",
    "virasoro --mparam 4 --r 1 --s 2",
    "fow --n 3 --m 6",
    "fow --n 3 --partition 13^2,10,6,5,4,1^2",
]


@pytest.mark.parametrize("argv", CSV_ARGV)
def test_every_csv_row_is_as_wide_as_its_header(capsys, argv):
    if "fow" not in argv:
        argv += " --format csv"
    code, out = run(capsys, *argv.split())
    assert code == 0
    table = out.removesuffix("\n")
    if "--source fermionic" in argv:  # the raw-shift note follows the table
        table = table[: table.rindex("# raw shift")]
    header, *rows = csv.reader(io.StringIO(table))
    assert [len(row) for row in rows] == [len(header)] * len(rows)


def test_tableaux_rows(capsys):
    code, out = run(capsys, "tableaux", "--shape", "4,2")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 9
    assert rows[0] == "1356/24"


def test_js_list_golden(capsys):
    code, out = run(capsys, "js-list", "--n", "3", "--core", "1", "--weight", "2")
    assert code == 0
    assert out.strip().splitlines() == ["7", "4,3"]


def test_js_list_empty_csv_has_header(capsys):
    # no irreducible-restriction label of weight 1 has core (3,): empty table
    code, out = run(
        capsys, "js-list", "--n", "4", "--core", "3", "--weight", "0", "--format", "csv"
    )
    assert code == 0
    assert out.strip().splitlines() == ["partition", "3"]
    code, out = run(
        capsys, "js-list", "--n", "3", "--core", "3,1", "--weight", "0", "--format", "csv"
    )
    assert code == 0
    assert out.strip().splitlines() == ["partition"]


def test_fow_single_partition(capsys):
    code, out = run(capsys, "fow", "--n", "3", "--partition", "13^2,10,6,5,4,1^2")
    assert code == 0
    row = out.strip().splitlines()[1]
    assert row.split(",")[0] == '"13'  # quoted partition cell
    assert ",2,1," in row  # fow_j = 2, js = 1


def test_specht_matrix_csv(capsys):
    code, out = run(capsys, "specht-matrix", "--shape", "3,2", "--gen", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",135/24,125/34,134/25,124/35,123/45"
    assert lines[1] == "135/24,-1,-v^2,.,.,v^4"
    assert lines[2] == "125/34,.,v,.,.,."
    assert lines[3] == "134/25,.,.,-1,-v^2,-v^3"
    assert lines[4] == "124/35,.,.,.,v,."
    assert lines[5] == "123/45,.,.,.,.,v"


def test_crystal_graph_dot(capsys):
    code, out = run(capsys, "crystal-graph", "--n", "2", "--max-m", "3", "--format", "dot")
    assert code == 0
    node_lines = [l for l in out.splitlines() if l.strip().startswith('"') and "->" not in l]
    assert len(node_lines) == 5


def test_crystal_graph_n1_full_in_every_format(capsys):
    texts = {}
    for fmt in ("dot", "text", "json"):
        code, texts[fmt] = run(
            capsys, "crystal-graph", "--n", "1", "--max-m", "2", "--full", "--format", fmt
        )
        assert code == 0, fmt
    assert texts["text"].splitlines()[1:] == ["0 -0-> 1", "1 -0-> 1,1"]
    assert '"1" -> "1,1" [label="0"];' in texts["dot"]
    assert "peripheries" not in texts["dot"]
    assert json.loads(texts["json"])["nodes"] == ["0", "1", "2", "1,1"]


def test_crystal_graph_n1_component_exits_2_in_every_format(capsys):
    for fmt in ("dot", "text", "json"):
        assert dispatch(["crystal-graph", "--n", "1", "--max-m", "2", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "regularity needs n >= 2" in err


def test_poly_text_form(capsys):
    code, out = run(
        capsys, "branching", "--n", "3", "--j", "0", "--target", "0,0",
        "--L", "6", "--source", "paths",
    )
    assert code == 0
    assert out.startswith("1 + q^2")


def test_branching_sources_agree(capsys):
    base = None
    for source in ("paths", "fermionic"):
        code, out = run(
            capsys, "branching", "--n", "2", "--j", "1", "--target", "0,1",
            "--L", "7", "--source", source, "--format", "csv",
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        if base is None:
            base = rows
        else:
            assert rows == base


def test_exit_code_invalid_args(capsys):
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert dispatch(["abf", "--L", "4", "--a", "1", "--b", "1", "--c", "3"]) == 2
    capsys.readouterr()


def test_exit_code_n_below_two(capsys):
    for cmd in ("decomp-matrix", "canonical-basis", "restriction"):
        for n in ("0", "1", "-2"):
            assert dispatch([cmd, "--n", n, "--m", "4"]) == 2, (cmd, n)
            out, err = capsys.readouterr()
            assert out == ""
            assert f"error: n must be at least 2 (q is a primitive n-th root of unity), got {n}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("chi --n 0", "argument --n: must be at least 2 (q is a primitive n-th root of unity), got 0"),
        ("fow --n 1 --m 3", "argument --n: must be at least 2"),
        ("fow --n 0 --m 2", "argument --n: must be at least 2"),
        ("branching --n 0", "argument --n: must be at least 2"),
        ("branching --L -3", "argument --L: must be nonnegative, got -3"),
        ("branching --source fermionic --L -1", "argument --L: must be nonnegative, got -1"),
        ("branching --source crystal --degree -1", "argument --degree: must be nonnegative"),
        ("chi --n 2 --degree -1", "argument --degree: must be nonnegative, got -1"),
        ("js-list --n 2 --weight -1", "argument --weight: must be nonnegative, got -1"),
        ("crystal-graph --max-m -1", "argument --max-m: must be nonnegative, got -1"),
        ("canonical-basis --m -1", "argument --m: must be nonnegative, got -1"),
        ("decomp-matrix --n 3 --m -2", "argument --m: must be nonnegative, got -2"),
        ("branching --target 1", "argument --target: must be two integers s,t"),
        ("branching --target 1,x", "argument --target: must be two integers s,t"),
        ("virasoro --degree -2", "argument --degree: must be nonnegative, got -2"),
        ("cores --partition 3,x", "'3,x' is not a partition: give weakly decreasing positive parts"),
        ("cores --partition 3^2^1", "'3^2^1' is not a partition"),
        ("tableaux --shape 3,,2", "'3,,2' is not a partition"),
        ("specht-matrix --shape 2,3", "'2,3' is not a partition"),
        ("chi --n 3 --core 1,x", "'1,x' is not a partition"),
        ("branching --n 3 --target 3,0", "target 3,0 needs both indices in 0..n-1 = 0..2"),
        ("branching --n 3 --target 3,0 --source crystal", "target 3,0 needs both indices"),
        ("branching --n 3 --target 3,0 --source fermionic", "target 3,0 needs both indices"),
        ("branching --n 3 --target 0,-1 --L 25", "target 0,-1 needs both indices"),
        ("tableaux --shape 4,2 --standard", "unrecognized arguments: --standard"),
        ("abf --source limit --L 4 --a 9 --b 1 --c 2", "heights must lie in 1..L-1"),
        ("abf --source limit --L 1", "heights must lie in 1..L-1"),
        ("abf --source limit --b 2 --c 2", "|b - c| must be 1"),
        ("crystal-graph --n 0 --full", "a crystal graph needs n >= 1, got 0"),
        ("crystal-graph --n -2 --full --format text", "a crystal graph needs n >= 1, got -2"),
        ("branching --n 3 --j 7", "j 7 needs to lie in 0..n-1 = 0..2"),
        ("branching --n 3 --j -1", "j -1 needs to lie in 0..n-1 = 0..2"),
        ("branching --n 3 --j 3 --source crystal", "j 3 needs to lie in 0..n-1"),
        ("branching --n 3 --j 4 --target 1,0 --source fermionic", "j 4 needs to lie in 0..n-1"),
        ("fow --n 2 --partition 3,1,1", "error: 3,1,1 is not 2-regular"),
        ("js-list --n 3 --core 2,1", "error: 2,1 is not a 3-core"),
        ("chi --n 3 --core 2,1 --source direct", "error: 2,1 is not a 3-core"),
        ("chi --n 3 --core 2,1", "error: 2,1 is not a 3-core"),
        ("chi --n 3 --core 3", "error: 3 is not a 3-core"),
        ("chi --n 4 --core 2,1", "error: 2,1 is not rectangular"),
        # only ASCII digits spell a part
        ("specht-matrix --shape 2_1 --gen 1", "'2_1' is not a partition"),
        ("js-list --n 3 --core 1_0", "'1_0' is not a partition"),
        ("cores --partition \u0663", "'\u0663' is not a partition"),
    ],
)
def test_invalid_argv_exits_2_in_domain_terms(capsys, argv, message):
    assert dispatch(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


NONNEGATIVE_FLAGS = [
    ("branching", "--L"),
    ("branching", "--degree"),
    ("chi", "--degree"),
    ("abf", "--L"),
    ("abf", "--degree"),
    ("virasoro", "--degree"),
    ("js-list", "--weight"),
    ("crystal-graph", "--max-m"),
    ("canonical-basis", "--m"),
    ("decomp-matrix", "--m"),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(NONNEGATIVE_FLAGS), st.integers(max_value=-1))
def test_no_negative_size_exits_0(flag, value):
    command, name = flag
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert dispatch([command, name, str(value)]) == 2
    assert out.getvalue() == ""


@pytest.mark.parametrize("source", ["paths", "crystal", "fermionic"])
def test_unreachable_sector_prints_zero_for_every_source(capsys, source):
    code, out = run(capsys, "branching", "--n", "3", "--j", "1", "--target", "0,0",
                    "--source", source)
    assert code == 0
    assert out.splitlines()[0] == ("0 + O(q^7)" if source == "crystal" else "0")


KNOWN_HANGS = [
    "decomp-matrix --n 2 --m 64",
    "branching --n 3 --source crystal --degree 64",
    "fow --n 2 --m 200",
    "specht-matrix --shape 6,5,4 --gen 1",
    "crystal-graph --full --max-m 100",
    "canonical-basis --m 1000000000000",
]


@pytest.mark.parametrize("argv", KNOWN_HANGS)
def test_over_budget_exits_4_at_once(capsys, argv):
    start = time.perf_counter()
    assert dispatch(argv.split()) == 4
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"resource cap: {argv.split()[0]} is estimated at ")
    assert err.endswith(f", over the budget of {cli.BUDGET:,}\n")


def test_exit_code_resource_cap(capsys):
    # the families the old degree and node caps guarded, each just past the budget
    assert _cost(["virasoro", "--degree", "10954"]) <= cli.BUDGET
    for argv in ["virasoro --degree 10955", "crystal-graph --max-m 65", "abf --source closed --m 2000"]:
        assert dispatch(argv.split()) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("resource cap: "), argv


def test_restriction_lowers_only_by_the_residues_that_occur(capsys):
    # with n >= m + 1 the matrix is the generic one, whatever n is
    start = time.perf_counter()
    code, out = run(capsys, "restriction", "--n", "1000000000", "--m", "6")
    assert code == 0 and time.perf_counter() - start < 1
    assert out == run(capsys, "restriction", "--n", "8", "--m", "6")[1]


@pytest.mark.parametrize("argv, message", [
    ("fow --n 2 --partition 1^200000", "error: 1^200000 is not 2-regular\n"),
    ("js-list --n 2 --core 1^200000", "error: 1^200000 is not a 2-core\n"),
])
def test_long_partition_is_quoted_short(capsys, monkeypatch, argv, message):
    # fow checks regularity before it reads the residues
    monkeypatch.setattr(partitions, "residue_data", None)
    assert dispatch(argv.split()) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", message) and len(err.encode()) < 200


@pytest.mark.parametrize("argv, message", [
    ("fow --n 2 --partition 1^4999998", "error: 1^4999998 is not 2-regular\n"),
    ("js-list --n 2 --core 1^4999998", "error: 1^4999998 is not a 2-core\n"),
    ("chi --n 2 --core 1^4999998", "error: 1^4999998 is not a 2-core\n"),
    ("chi --n 2 --core 1^4999998 --source direct", "error: 1^4999998 is not a 2-core\n"),
    ("fow --n 3 --partition 9,2^3,1", "error: 9,2^3,1 is not 3-regular\n"),
])
def test_partition_flag_with_n_equal_parts_exits_2_before_it_is_expanded(capsys, monkeypatch,
                                                                          argv, message):
    # the check reads the (value, count) pairs; expanding the flag would fail here
    monkeypatch.setattr(partitions, "parse_partition", None)
    start = time.perf_counter()
    assert dispatch(argv.split()) == 2
    assert time.perf_counter() - start < 0.2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("text, n", [("3,1,1", 2), ("2^3,1^4", 3), ("5,3^3,1^4", 3), ("4^2", 2),
                                     ("1^200000", 2)])
def test_flag_refusals_are_the_library_refusals(text, n):
    lam = partitions.parse_partition(text)
    for core, check in ((False, partitions.check_regular), (True, partitions.check_core)):
        with pytest.raises(ValueError) as library:
            check(lam, n)
        with pytest.raises(ValueError) as flag:
            cli._partition_flag(text, n, core)
        assert str(flag.value) == str(library.value)


WRITER_ARGV = [
    # size-10 shapes, whose tableau labels hold commas, and a one-row shape (f = 1)
    "specht-matrix --shape 5,4,1 --gen 3", "specht-matrix --shape 4,4,2 --gen 9",
    "specht-matrix --shape 7 --gen 3",
    *(f"{command} --n {n} --m {m}" for command in ("decomp-matrix", "canonical-basis", "restriction")
      for n in (2, 3) for m in (0, 1, 11)),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", WRITER_ARGV)
def test_matrix_writer_is_the_csv_writer_oracle(capsys, monkeypatch, argv, fmt):
    argv = [*argv.split(), "--format", fmt]
    written = dispatch(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "_matrix", oracles.matrix_text)
    assert written == (dispatch(argv), capsys.readouterr())


def _matrix_commands():
    """Every generator of every shape of size <= 7, one of size 10, and the canonical, decomposition
    and restriction matrices for n = 2..4, m <= 8."""
    for m in range(2, 8):
        for shape in enumerate_partitions(m):
            yield from (f"specht-matrix --shape {format_partition(shape)} --gen {i}" for i in range(1, m))
    yield "specht-matrix --shape 5,4,1 --gen 3"
    for command in ("canonical-basis", "decomp-matrix", "restriction"):
        for n in (2, 3, 4):
            yield from (f"{command} --n {n} --m {m}" for m in range(command == "restriction", 9))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_matrix_command_is_the_oracle_rendering_of_its_dense_rows(capsys, monkeypatch, fmt):
    written = {}
    for argv in _matrix_commands():
        assert dispatch([*argv.split(), "--format", fmt]) == 0, argv
        written[argv] = capsys.readouterr()
    # the oracle writes the dense rows that iterating each command's SparseMatrix yields
    monkeypatch.setattr(cli, "_matrix", oracles.matrix_text)
    for argv, (out, err) in written.items():
        assert dispatch([*argv.split(), "--format", fmt]) == 0, argv
        assert capsys.readouterr() == (out, err), argv
    assert len(written) == 197 + 3 * 3 * 9 - 3


class _FullStdout(io.StringIO):
    def write(self, text):
        raise MemoryError


def test_an_output_too_large_to_write_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert dispatch(["specht-matrix", "--shape", "3,2", "--gen", "1"]) == 4
    err = capsys.readouterr().err
    assert err == "resource cap: input too large for the stack or memory at hand\n"


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(-40, 40), st.integers(-10**6, 10**6), max_size=8),
       st.integers(1, 6))
def test_no_cell_text_needs_csv_quoting(terms, den):
    # so the writer joins the cells of a row with "," as they are
    p = LaurentPoly(terms, den)
    assert not set(p.to_text("v") + str(p.eval_one())) & set(',"\r\n')


# every size flag with a command that reads it
SIZE_FLAGS = [
    ("canonical-basis", "--m"),
    ("decomp-matrix", "--m"),
    ("restriction", "--m"),
    ("fow", "--m"),
    ("abf --source direct", "--m"),
    ("abf --source closed", "--m"),
    ("branching --source crystal", "--degree"),
    ("chi --source jscor", "--degree"),
    ("chi --source direct", "--degree"),
    ("abf --source limit", "--degree"),
    ("virasoro", "--degree"),
    ("js-list", "--weight"),
    ("crystal-graph", "--max-m"),
    ("crystal-graph --full", "--max-m"),
    ("branching --source paths", "--L"),
    ("branching --source fermionic", "--L"),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SIZE_FLAGS), st.integers(10**6, 10**12))
def test_huge_size_is_refused_at_once(flag, value):
    command, name = flag
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert dispatch([*command.split(), name, str(value)]) == 4
    assert time.perf_counter() - start < 0.5
    assert out.getvalue() == ""


TRILLION = "1000000000000"


@pytest.mark.parametrize("argv", [
    *(f"{flags} 1^{TRILLION}" for flags in ("tableaux --shape", "specht-matrix --shape", "cores --partition",
                                            "fow --partition", "js-list --core", "chi --core",
                                            "chi --source direct --core")),
    # 10^12 runners of the abacus
    f"cores --partition 1 --n {TRILLION}", f"fow --n {TRILLION} --partition 1", f"js-list --n {TRILLION}",
    f"chi --n {TRILLION} --degree 0",
    # 10^12 residue counts of the target, at L = degree = 0
    *(f"branching --n {TRILLION} --source {source} --L 0 --degree 0"
      for source in ("paths", "fermionic", "crystal")),
])
def test_partition_past_the_budget_exits_4_before_it_is_expanded(argv):
    # in a process capped at 1 GiB, so that expanding the 10^12 parts or runners
    # fails here instead of exhausting the host's memory
    start = time.perf_counter()
    proc = _capped_run(argv)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr
    assert proc.stderr.startswith(f"resource cap: {argv.split()[0]} is estimated at ")


def _capped_run(argv: str, cap: int = 1 << 30) -> subprocess.CompletedProcess:
    """``fcl argv`` in a process whose address space is capped at ``cap`` bytes (1 GiB)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
            "from fcl.cli import dispatch; sys.exit(dispatch(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *argv.split()], env=env,
                          capture_output=True, text=True, timeout=30)


def test_out_of_memory_exits_4_without_a_traceback():
    # three million parts are admitted by the budget, but not by a 256 MiB address space
    proc = _capped_run("cores --partition 1^3000000 --n 2", 256 << 20)
    assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr
    assert proc.stderr.startswith("resource cap: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("source", ["fermionic", "paths"])
def test_branching_at_n_3000_runs_in_a_gibibyte(source):
    # no n x n Gram matrix: the residue profile and the sums take O(n) memory
    proc = _capped_run(f"branching --n 3000 --source {source} --L 1")
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr


def _cost(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    return args.cost(args)[0]


def test_budget_admits_every_benchmark_cli_job():
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH_JOBS)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    for workload in ("canonical", "specht", "series"):
        argvs = [job["argv"] for job in jobs.pooled_jobs(workload) if job["kind"] == "cli"]
        assert argvs, workload
        for argv in argvs:
            assert _cost(argv) <= cli.BUDGET, argv


def test_budget_admits_the_ci_and_readme_commands():
    readme = [line.split("#")[0].replace("'", "").split()[1:]
              for line in README.read_text().splitlines() if line.startswith("fcl ")]
    assert len(readme) == 15
    ci = ["branching --n 4 --j 0 --target 0,0 --L 24 --source paths".split(),
          "specht-matrix --shape 5,4,3 --gen 5 --format csv".split(),
          "specht-matrix --shape 6,4,1,1 --gen 5 --format json".split(),
          "fow --n 2 --partition 1^4999998".split(),
          "branching --n 200 --source fermionic --L 5".split(),
          "branching --n 3000 --source fermionic --L 1".split(),
          "restriction --n 4 --m 22".split(), "canonical-basis --n 6 --m 22".split(),
          "cores --partition 1^3000000 --n 2".split()]
    for argv in readme + ci:
        assert _cost(argv) <= cli.BUDGET, argv


def test_partition_counts_are_the_enumerated_ones():
    assert cli._counts(-1) == cli._counts(0) == [1]
    for n in (None, 1, 2, 3, 5):
        got = cli._counts(15, n)
        assert got == [len(enumerate_partitions(m, regular=n)) for m in range(16)], n
    # past _CAP every count is over the budget, so a clamped count is too
    assert len(cli._counts(10**12, 2)) == cli._CAP + 1
    assert cli._counts(cli._CAP, 2)[-1] > cli.BUDGET


def test_tableau_count_is_the_hook_length_formula():
    for m in range(11):
        for shape in enumerate_partitions(m):
            f = len(standard_tableaux(shape))
            assert cli._tableau_count(multiplicities(shape)) == f, shape
            # the bound that stands in for f on large shapes
            if m >= 5 and 1 < len(shape) < m:
                assert f >= m - 1, shape
    assert cli._tableau_count([(10**12, 1)]) == cli._tableau_count([(1, 5000)]) == 1
    assert cli._tableau_count([(5000, 1), (1, 1)]) == 5000


@pytest.mark.parametrize("source", ["paths", "fermionic"])
def test_path_cutoff_over_the_bound_exits_4(capsys, source):
    # the bound on L is the cost budget: n^2 L^3 / 40 for paths, far less L for fermionic
    argv = ["branching", "--n", "3", "--j", "0", "--target", "0,0", "--L", "400", "--source", source]
    assert dispatch(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("resource cap: branching is estimated at ")
    assert err.endswith(f", over the budget of {cli.BUDGET:,}\n")


def test_path_cutoff_25_is_admitted_and_both_sources_agree(capsys):
    argv = ["branching", "--n", "3", "--j", "0", "--target", "0,0", "--L", "25"]
    code, by_paths = run(capsys, *argv, "--source", "paths")
    assert code == 0
    code, by_fermionic = run(capsys, *argv, "--source", "fermionic")
    assert code == 0
    assert by_fermionic.startswith(by_paths) and by_paths.count("q^") > 100


def _one_row(m: int) -> str:
    return ",".join(map(str, range(1, m + 1)))


@pytest.mark.parametrize("argv, expected", [
    pytest.param(argv, expected, id=argv) for argv, expected in [
        ("tableaux --shape 1500", _one_row(1500) + "\n"),  # the one tableau
        # T_1 acts on the one-row module by v
        ("specht-matrix --shape 1200 --gen 1", f',"{_one_row(1200)}"\n"{_one_row(1200)}",v\n\n'),
    ]
])
def test_one_row_shape_of_a_thousand_cells_is_enumerated(capsys, argv, expected):
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert out == expected


def test_deterministic_output(capsys):
    runs = []
    for _ in range(2):
        code, out = run(capsys, "canonical-basis", "--n", "3", "--m", "6", "--format", "json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert list(payload) == sorted(payload)


def test_selfcheck_passes(capsys):
    code, out = run(capsys, "selfcheck")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 6


def test_virasoro_and_abf(capsys):
    code, out = run(capsys, "virasoro", "--mparam", "3", "--r", "1", "--s", "1", "--degree", "4")
    assert code == 0
    assert out.startswith("1 + q^2 + q^3 + 2*q^4")
    code, out = run(capsys, "abf", "--L", "4", "--a", "1", "--b", "1", "--c", "2", "--m", "4")
    assert code == 0
    assert out.strip() == "1 + q^2"


def test_series_formats_on_a_fractional_lattice(capsys):
    argv = ("virasoro", "--mparam", "4", "--r", "1", "--s", "2", "--degree", "3")
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == '{"den": 10, "order": "3", "terms": {"1": 1, "11": 1, "21": 1}}\n'
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == "exponent,coefficient\n1/10,1\n11/10,1\n21/10,1\n\n"
    code, out = run(capsys, *argv)
    assert out == "q^1/10 + q^11/10 + q^21/10 + O(q^4)\n"


def test_poly_formats_on_a_fractional_lattice(capsys):
    argv = ("abf", "--L", "4", "--a", "1", "--b", "2", "--c", "3", "--m", "3")
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == '{"den": 2, "terms": {"1": 1, "3": 1}}\n'
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == "exponent,coefficient\n1/2,1\n3/2,1\n\n"
    code, out = run(capsys, *argv)
    assert out == "q^1/2 + q^3/2\n"


def test_cores_text(capsys):
    code, out = run(capsys, "cores", "--partition", "7,5,4,4", "--n", "4")
    assert code == 0
    assert out.strip() == "core=0 weight=5 hooks=4"


ONE, V = LaurentPoly.one(), LaurentPoly.q_power(1)


@pytest.mark.parametrize("cell, zero_cell", [(LaurentPoly.to_text, "0"), (LaurentPoly.eval_one, 0)])
@pytest.mark.parametrize("zero", [LaurentPoly({}), LaurentPoly({0: 0})])
def test_matrix_finds_a_zero_that_is_not_the_singleton(cell, zero_cell, zero):
    assert zero is not _ZERO and zero.is_zero()
    entries = SparseMatrix(["a", "b,c"], ["x", "y"], [{"a": zero, "b,c": V}, {"a": ONE, "b,c": _ZERO}])
    args = ({"n": 2}, ["a", "b,c"], ["x", "y"], entries, cell)
    assert _matrix("csv", *args) == f',x,y\na,.,{cell(ONE)}\n"b,c",{cell(V)},.\n'
    payload = json.loads(_matrix("json", *args))
    assert payload == {"n": 2, "entries": [[zero_cell, cell(ONE)], [cell(V), zero_cell]]}


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_parser_reuse_after_an_error_and_help(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_PARSER", None)  # the next dispatch is the parser's first use
    argv = ["decomp-matrix", "--n", "3", "--m", "4", "--format", "json"]
    code, first = run(capsys, *argv)
    assert code == 0 and first
    parser = build_parser()
    assert dispatch(["decomp-matrix", "--format", "xml"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'xml'" in err
    assert dispatch(["decomp-matrix", "--help"]) == 0
    assert "usage: fcl decomp-matrix" in capsys.readouterr().out
    assert run(capsys, *argv) == (0, first)
    assert build_parser() is parser


def test_every_failing_parse_writes_to_the_current_stderr():
    failures = [
        (["decomp-matrix", "--m", "x"], "argument --m: invalid integer value: 'x'"),
        (["specht-matrix", "--gen", "2"], "the following arguments are required: --shape"),
    ]
    for argv, message in failures:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert dispatch(argv) == 2
        assert err.getvalue().startswith(f"usage: fcl {argv[0]}") and message in err.getvalue()
