import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import multfun
from multfun import InputError, MultfunError
from multfun.cli import MAX_POLY_DEGREE, build_parser, parse_polys, parse_z, run
from multfun.arith import ZERO, RootOfUnity
from multfun.mf_core import _parse_xi, builtin, parse_custom_file, sieve_range
from multfun.pretentious import pretentious_distance
from multfun.seminorms import gowers_direct, gowers_fast


def _no_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def read(path):
    """A report, parsed as strict JSON: NaN and Infinity tokens are refused."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


def test_parse_z_forms():
    assert parse_z("0") == ZERO
    assert parse_z("1") == RootOfUnity(0, 1)
    assert parse_z("-1") == RootOfUnity(1, 2)
    assert parse_z("2/3") == RootOfUnity(2, 3)
    from fractions import Fraction

    assert parse_z("val:1/3") == Fraction(1, 3)
    assert parse_z("0.5+0.1j") == 0.5 + 0.1j


def test_parse_polys():
    pf = parse_polys("n;2n;n^2;n^3+2n")
    assert pf.coeffs == ((0, 1), (0, 2), (0, 0, 1), (0, 2, 0, 1))
    assert parse_polys(f"n^{MAX_POLY_DEGREE}").coeffs[0][-1] == 1
    with pytest.raises(InputError, match="degree"):
        parse_polys(f"n;n^{MAX_POLY_DEGREE + 1}")


def test_structure_command(tmp_path):
    out = tmp_path / "s.json"
    rc = run(["structure", "--function", "moebius", "--z", "1",
              "--N", "100000", "--P", "100000", "--out", str(out)])
    assert rc == 0
    rep = read(out)["result"]
    assert rep["k"] == 2
    assert rep["chi"] == {"modulus": 1, "index": 0}
    assert rep["R"]["members_head"][:9] == [1, 2, 3, 5, 6, 7, 10, 11, 13]
    assert rep["u_norms"]
    assert read(out)["version"]


def test_divisibility_command(tmp_path):
    out = tmp_path / "d.json"
    rc = run(["divisibility", "--set", "squarefree", "--shift", "4",
              "--umax", "10", "--N", "100000", "--out", str(out)])
    assert rc == 0
    rep = read(out)["result"]["report"]
    assert rep["verdict"] == "not_divisible"
    assert rep["witness_u"] == 4


def test_sieve_without_function_names_the_option(tmp_path):
    out = tmp_path / "e.json"
    assert run(["sieve", "--N", "100", "--out", str(out)]) == 2
    assert read(out)["error"]["message"] == "no --function given"


def test_distance_against_a_builtin_g(tmp_path):
    out = tmp_path / "d.json"
    assert run(["distance", "--function", "liouville", "--g", "dirichlet_character",
                "--g-modulus", "4", "--g-index", "1", "--P", "10000", "--out", str(out)]) == 0
    prof = pretentious_distance(builtin("liouville"),
                                builtin("dirichlet_character", {"modulus": 4, "index": 1}),
                                10 ** 4)
    got = read(out)["result"]["profile"]
    assert got["g_name"] == prof.g_name
    assert got["partial"] == prof.partial
    assert got["trend"] == prof.trend


def test_invalid_target_exits_2(tmp_path):
    out = tmp_path / "e.json"
    rc = run(["levelset", "--function", "moebius", "--z", "bogus",
              "--N", "100", "--out", str(out)])
    assert rc == 2
    data = read(out)
    assert data["error"]["type"] == "InputError"
    assert data["error"]["exit_code"] == 2


@pytest.mark.parametrize("line", ["2 1 nan 0", "3 1 0 inf", "5 2 -inf nan"])
def test_non_finite_custom_value_exits_2(tmp_path, line):
    # NaN fails no '>' test, so it once passed the |f| <= 1 bound and gave
    # "nan" means; the file's line is named in the report
    path = tmp_path / "f.txt"
    path.write_text(f"# values\n{line}\n")
    out = tmp_path / "e.json"
    assert run(["mean", "--function", "custom_file", "--file", str(path), "--N", "1000",
                "--P", "1000", "--out", str(out)]) == 2
    err = read(out)["error"]
    assert err["type"] == "InputError" and err["exit_code"] == 2
    assert f"{path}:2:" in err["message"]


@pytest.mark.parametrize("argv", [
    ["levelset", "--function", "lambda_xi", "--xi", "abc", "--z", "1", "--N", "100"],
    ["levelset", "--function", "lambda_xi", "--xi", "1/0", "--z", "1", "--N", "100"],
    ["levelset", "--function", "mu_squared", "--z", "val:1/0", "--N", "100"],
    ["recurrence", "--A", "x", "--N", "1000", "--Jmax", "100"],
    ["recurrence", "--polys", "n^", "--N", "1000", "--Jmax", "100"],
    ["sieve", "--function", "custom_file", "--file", "no/such/file.txt", "--N", "100"],
    ["convergence", "--m", "3", "--A", "0", "--polys", "n^1000000000", "--N", "1000",
     "--Jmax", "100"],
    ["gowers", "--function", "liouville", "--grid", "16,a"],
    ["gowers", "--function", "liouville", "--grid", "0,16"],
    ["recurrence", "--N", "1000", "--Jmax", "0"],
    ["convergence", "--N", "1000", "--Jmax", "0"],
    ["recurrence", "--N", "1000", "--Jmax", "-3"],
    ["levelset", "--set", "squarefree", "--N", "100", "--random-subset", "0.5", "--seed", "-1"],
    ["gowers", "--function", "liouville", "--s", "-3", "--method", "direct", "--grid", "1"],
    ["sieve", "--function", "moebius", "--N", "100", "--limit", "0"],
    ["sieve", "--function", "moebius", "--N", "100", "--limit", "-5"],
    ["recurrence", "--N", "1000", "--shift", "-3"],
    ["structure", "--function", "moebius", "--z", "1", "--N", "100", "--Qmax", "0"],
    ["divisibility", "--set", "squarefree", "--N", "100", "--umax", "0"],
    ["divisibility", "--set", "squarefree", "--N", "100", "--umax", "-4"],
    ["gowers", "--function", "liouville", "--N", "64", "--csv", "never-written.csv"],
    ["sieve", "--function", "lambda_xi", "--xi", "nan", "--N", "100"],
    ["distance", "--function", "liouville", "--P", "1000", "--t", "inf"],
    ["spectrum", "--function", "liouville", "--N", "1000", "--qmax", "3", "--threshold", "nan"],
    ["levelset", "--function", "liouville", "--z", "1", "--N", "100", "--tol", "nan"],
    ["levelset", "--function", "liouville", "--z", "1", "--N", "100", "--tol", "-1"],
    ["divisibility", "--set", "squarefree", "--N", "100", "--floor", "nan"],
    ["levelset", "--set", "squarefree", "--N", "100", "--random-subset", "nan", "--seed", "1"],
    ["levelset", "--set", "squarefree", "--N", "1000", "--qmax", "-3"],
    ["spectrum", "--function", "moebius", "--N", "1000", "--qmax", "0"],
    ["spectrum", "--function", "moebius", "--N", "1000", "--qmax", "-2"],
    ["distance", "--function", "liouville", "--P", "100", "--csv", "no/such/dir/x.csv"],
    ["levelset", "--set", "squarefree", "--N", "100", "--members", "no/such/dir/q.txt"],
    ["levelset", "--set", "squarefree", "--N", "100", "--bitmap", "no/such/dir/q.bin"],
    ["divisibility", "--set", "squarefree", "--N", "1000", "--shift", "-1"],
    ["divisibility", "--set", "squarefree", "--N", "1000", "--shift", "500"],
    ["structure", "--function", "moebius", "--z", "1", "--N", "100", "--kmax", "0"],
    ["structure", "--function", "moebius", "--z", "1", "--N", "100", "--kmax", "65"],
    ["apmean", "--function", "moebius", "--q", "5", "--r", "2", "--N", "5"],
    ["gowers", "--function", "liouville", "--grid", "4096,4096"],
    ["levelset", "--function", "moebius", "--z", "1/3", "--N", "100", "--qmax", "2"],
    ["mean", "--function", "custom_file", "--file", "{tmp}/exponent-0.txt", "--N", "100",
     "--P", "100"],
], ids=["xi-abc", "xi-1/0", "z-val:1/0", "A-x", "polys-n^", "file-missing", "polys-degree",
        "grid-a", "grid-0", "recurrence-Jmax-0", "convergence-Jmax-0", "Jmax-negative",
        "seed-negative", "gowers-direct-s-negative", "limit-0", "limit-negative",
        "shift-negative", "Qmax-0", "umax-0", "umax-negative", "gowers-csv-without-grid",
        "xi-nan", "t-inf", "threshold-nan", "tol-nan", "tol-negative", "floor-nan",
        "random-subset-nan", "levelset-qmax-negative", "spectrum-qmax-0",
        "spectrum-qmax-negative", "csv-unwritable", "members-unwritable",
        "bitmap-unwritable", "shift-negative-divisibility", "shift-beyond-N", "kmax-0",
        "kmax-65", "apmean-no-terms", "grid-repeated", "levelset-empty-truncation",
        "custom-exponent-0"])
def test_malformed_input_exits_2(tmp_path, argv):
    (tmp_path / "exponent-0.txt").write_text("2 0 1 0\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    out = tmp_path / "e.json"
    assert run(argv + ["--out", str(out)]) == 2
    data = read(out)
    assert data["error"]["type"] == "InputError"
    assert data["error"]["exit_code"] == 2


# free text, plus near misses of each syntax: "a/b", "val:a/b", "cn^k", and
# lines of whitespace-separated fields as in a custom-function file
_NUM = st.sampled_from(["0", "1", "-1", "7", "", "x", "n", "0.5", "nan", "9" * 25])
_PARSER_TEXT = st.one_of(
    st.text(max_size=40),
    st.builds("{}{}{}{}".format, st.sampled_from(["", "val:", "default:"]), _NUM,
              st.sampled_from(["/", "^", "n^", "+", ";", "j", " "]), _NUM),
    st.lists(st.lists(_NUM, min_size=1, max_size=5).map(" ".join), max_size=4).map("\n".join),
)


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_PARSER_TEXT)
@example(text="1/0")
@example(text="val:1/0")
@example(text="n^")
@example(text="2 1 x 0")
def test_parsers_raise_only_multfun_errors(text, tmp_path):
    path = tmp_path / "custom.txt"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    for parse, arg in ((_parse_xi, text), (parse_z, text), (parse_polys, text),
                       (parse_custom_file, path)):
        try:
            parse(arg)
        except MultfunError:
            pass


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["sieve", "--function", "moebius", "--N", "100", "--limit", "0"],
], ids=["catalog", "failed-command"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    # with no report file to write, the JSON error report goes to stderr
    out = tmp_path / "no" / "such" / "o.json"
    assert run(argv + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert err["type"] == "InputError" and err["exit_code"] == 2
    assert err["message"].startswith(f"cannot write the report {out}")


def test_resource_cap_exits_3(tmp_path, monkeypatch):
    monkeypatch.setenv("MULTFUN_MEM_CAP_MB", "1")
    out = tmp_path / "r.json"
    rc = run(["sieve", "--function", "moebius", "--N", "10000000",
              "--out", str(out)])
    assert rc == 3
    assert read(out)["error"]["type"] == "ResourceError"


@pytest.mark.parametrize("cap", ["abc", "1.5", "-5", "0"])
def test_malformed_mem_cap_exits_2(tmp_path, monkeypatch, cap):
    monkeypatch.setenv("MULTFUN_MEM_CAP_MB", cap)
    out = tmp_path / "r.json"
    assert run(["sieve", "--function", "moebius", "--N", "100", "--out", str(out)]) == 2
    err = read(out)["error"]
    assert err["type"] == "InputError" and err["exit_code"] == 2
    assert "MULTFUN_MEM_CAP_MB" in err["message"]


@pytest.mark.parametrize("argv", [
    ["gowers", "--function", "liouville", "--s", "97", "--method", "direct", "--grid", "4,8"],
    ["spectrum", "--function", "moebius", "--N", "100", "--qmax", str(2 ** 64)],
    ["levelset", "--set", "squarefree", "--N", "100", "--qmax", str(2 ** 64)],
    ["divisibility", "--set", "squarefree", "--N", "100", "--umax", str(2 ** 64)],
    ["recurrence", "--N", "100", "--m", str(2 ** 64)],
    ["convergence", "--N", str(2 ** 64)],
], ids=["gowers-direct-s-97", "spectrum-qmax-huge", "levelset-qmax-huge", "umax-huge",
        "m-huge", "naturals-huge"])
def test_oversized_input_exits_3(tmp_path, argv):
    out = tmp_path / "r.json"
    assert run(argv + ["--out", str(out)]) == 3
    err = read(out)["error"]
    assert err["type"] == "ResourceError" and err["exit_code"] == 3


def run_fresh(argv, out, cap, env=None):
    """multfun run as a user runs it, in a new process, under the memory cap
    cap (None for the default), with the variables of env set on top of the
    current environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(multfun.__file__).parents[1]), **(env or {}))
    env.pop("MULTFUN_MEM_CAP_MB", None)
    if cap is not None:
        env["MULTFUN_MEM_CAP_MB"] = cap
    return subprocess.run([sys.executable, "-c", "from multfun.cli import main; main()",
                           *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("cap, argv", [
    # the sieve's 120 MiB charge passes; the U^2 transform at m = 2^23
    # (about 3 B of RSS per output byte, 192 MiB) does not
    ("160", ["gowers", "--function", "liouville", "--s", "2", "--grid", "4194304"]),
], ids=["gowers-transform"])
def test_charged_allocations_exit_3_in_a_fresh_process(tmp_path, cap, argv):
    """Each command, run as a user runs it, ends in exit 3 with a JSON
    ResourceError report before it allocates, not in a traceback."""
    out = tmp_path / "r.json"
    proc = run_fresh(argv, out, cap)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    err = read(out)["error"]
    assert err["type"] == "ResourceError" and err["exit_code"] == 3


@pytest.mark.parametrize("xi", ["1/10000019", "1/3000000000"])
def test_rational_phase_builds_no_root_table(tmp_path, xi):
    """e(1/b) is one root, and a table of 101 codes evaluates its values at
    the codes: no table of all b roots (40 B each) is built, so the sieve
    runs under a 64 MB cap and writes the report it writes uncapped."""
    out = tmp_path / "r.json"
    argv = ["sieve", "--function", "lambda_xi", "--xi", xi, "--N", "100"]
    reports = []
    for cap in ("64", None):
        proc = run_fresh(argv, out, cap)
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [
    ["gowers", "--function", "liouville", "--s", "2", "--grid", "4096,65536,262144"],
    ["structure", "--function", "moebius", "--z", "1", "--N", "1000000"],
    ["classify", "--function", "mu_squared", "--P", "1000000", "--N", "1000000"],
    ["gowers", "--function", "liouville", "--s", "3", "--N", "1024"],
], ids=["gowers-u2-readme", "structure-readme", "classify-readme", "gowers-u3"])
def test_reports_do_not_depend_on_blas_threads(tmp_path, argv):
    """The README's Gowers, structure and classify commands, and a U^3 run,
    write byte-identical reports with one BLAS thread and with two."""
    out = tmp_path / "r.json"
    reports = []
    for threads in ("1", "2"):
        proc = run_fresh(argv, out, None, env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_twist_matrices_charged_to_cap(tmp_path, monkeypatch):
    # the Halász scans of a real f hold the cos rows of the 101 t >= 0 of
    # their 201 t over one chunk of primes, here the 8363 of (10^4, 10^5],
    # ~6.8 MB, not all 9592 primes as complex exponentials (~31 MB), and fit
    # under 16 MB; the charges themselves are tested in test_pretentious
    monkeypatch.setenv("MULTFUN_MEM_CAP_MB", "16")
    out = tmp_path / "c.json"
    rc = run(["classify", "--function", "liouville", "--P", "100000",
              "--N", "100000", "--out", str(out)])
    assert rc == 0
    assert read(out)["result"]["halasz"]["halasz_case"] == "case_iv"


def test_search_failure_exits_4(tmp_path):
    out = tmp_path / "f.json"
    rc = run(["structure", "--function", "dirichlet_character", "--modulus", "5",
              "--index", "1", "--z", "1", "--N", "50000", "--P", "100000",
              "--kmax", "3", "--Qmax", "3", "--out", str(out)])
    assert rc == 4
    assert read(out)["error"]["type"] == "SearchError"
    assert "k <= 3" in read(out)["error"]["message"]


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "l.json"
    args = ["levelset", "--set", "squarefree", "--N", "10000",
            "--qmax", "4", "--out", str(out)]
    assert run(args) == 0
    first = out.read_bytes()
    assert run(args) == 0
    assert out.read_bytes() == first
    meta = json.loads((tmp_path / "l.json.meta.json").read_text())
    assert "timestamp" in meta


def test_levelset_exports_and_seeded_subset(tmp_path):
    out = tmp_path / "ls.json"
    members = tmp_path / "m.txt"
    bitmap = tmp_path / "m.bin"
    rc = run(["levelset", "--function", "liouville", "--z", "1", "--N", "20",
              "--members", str(members), "--bitmap", str(bitmap), "--out", str(out)])
    assert rc == 0
    got = [int(x) for x in members.read_text().split()]
    assert got[:5] == [1, 4, 6, 9, 10]
    assert len(bitmap.read_bytes()) == (20 + 7) // 8
    # randomized fixture demands a seed
    rc = run(["levelset", "--set", "squarefree", "--N", "1000",
              "--random-subset", "0.5", "--out", str(out)])
    assert rc == 2
    rc = run(["levelset", "--set", "squarefree", "--N", "1000",
              "--random-subset", "0.5", "--seed", "9", "--out", str(out)])
    assert rc == 0


def test_gowers_profile_csv(tmp_path):
    out = tmp_path / "g.json"
    csv = tmp_path / "g.csv"
    rc = run(["gowers", "--function", "liouville", "--s", "2",
              "--grid", "1024,4096", "--out", str(out), "--csv", str(csv)])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "N,Ntilde,s,method,value"
    assert len(lines) == 3


@pytest.mark.parametrize("method, s, N", [("fast", 2, 64), ("direct", 3, 16)])
def test_gowers_at_one_N(tmp_path, method, s, N):
    out = tmp_path / "g.json"
    rc = run(["gowers", "--function", "liouville", "--method", method, "--s", str(s),
              "--N", str(N), "--out", str(out)])
    assert rc == 0
    fn = gowers_direct if method == "direct" else gowers_fast
    values = sieve_range(builtin("liouville"), N).values
    assert read(out)["result"]["value"] == fn(values, N, s)


def test_csv_only_where_a_table_is_written():
    offered = {name for name, p in _SUBCOMMANDS.items()
               if any(action.dest == "csv" for action in p._actions)}
    assert offered == {"sieve", "distance", "gowers", "recurrence", "convergence"}


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["mean", "--function", "moebius", "--P", "1000"],
    ["apmean", "--function", "moebius", "--q", "3", "--r", "1", "--N", "1000"],
    ["classify", "--function", "moebius", "--P", "1000", "--N", "1000", "--Qmax", "2"],
    ["spectrum", "--function", "moebius", "--N", "1000", "--qmax", "3"],
    ["levelset", "--set", "squarefree", "--N", "1000"],
    ["structure", "--function", "moebius", "--z", "1", "--N", "1000", "--P", "1000",
     "--Qmax", "3"],
    ["divisibility", "--set", "squarefree", "--N", "1000"],
], ids=lambda argv: argv[0])
def test_csv_rejected_where_no_table_is_written(tmp_path, argv):
    csv = tmp_path / "t.csv"
    assert run(argv + ["--out", str(tmp_path / "r.json"), "--csv", str(csv)]) == 2
    assert not csv.exists()


def test_catalog_command(tmp_path):
    out = tmp_path / "c.json"
    assert run(["catalog", "--out", str(out)]) == 0
    data = read(out)["result"]
    assert data["builtins"] == [
        "liouville", "moebius", "lambda_xi", "mu_xi", "kappa_xi", "mu_squared",
        "phi_over_n", "dirichlet_character", "chi_of_tau", "custom_file",
    ]
    assert data["parameters"] == {
        "lambda_xi": "xi (rational a/b or float)",
        "mu_xi": "xi",
        "kappa_xi": "xi",
        "dirichlet_character": "modulus, index",
        "chi_of_tau": "modulus in {2, 4, p, 2p}",
        "custom_file": "file path; lines 'p k re im', optional 'default: zero|one'",
    }
    assert "squarefree" in data["named_sets"]


def test_recurrence_command_with_certificate(tmp_path):
    out = tmp_path / "rec.json"
    rc = run(["recurrence", "--set", "squarefree", "--shift", "4", "--m", "4",
              "--A", "0", "--polys", "n", "--N", "200000", "--Jmax", "10000",
              "--out", str(out)])
    assert rc == 0
    rep = read(out)["result"]["report"]
    assert rep["positivity"] == "zero_exact"
    assert rep["certificate"]["type"] == "square_factor"


def test_convergence_command(tmp_path):
    out = tmp_path / "conv.json"
    rc = run(["convergence", "--m", "3", "--A", "0", "--polys", "n^2",
              "--N", "50000", "--Jmax", "50000", "--out", str(out)])
    assert rc == 0
    rep = read(out)["result"]["report"]
    assert rep["oscillation"] is not None


@pytest.mark.parametrize("command", ["recurrence", "convergence"])
def test_recurrence_csv(tmp_path, command):
    out = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    rc = run([command, "--m", "3", "--A", "0", "--polys", "n", "--N", "1000",
              "--Jmax", "500", "--out", str(out), "--csv", str(csv)])
    assert rc == 0
    running = read(out)["result"]["report"]["running"]
    lines = csv.read_text().splitlines()
    assert lines[0] == "J,average"
    assert [line.split(",") for line in lines[1:]] == [[str(j), f"{v:.12g}"]
                                                       for j, v in running]


@pytest.mark.parametrize("command", ["recurrence", "convergence"])
def test_table_budget_counts_distinct_points(tmp_path, command):
    # 5001 copies of one point: the table shifts one point, 1000 x 1 x 2
    # point shifts, not the 1000 x 5001 x 2 > 10^7 of the points as listed
    reports = []
    for A in (",".join(["0"] * 5001), "0"):
        out = tmp_path / "r.json"
        assert run([command, "--m", "1000", "--A", A, "--polys", "n", "--N", "2000",
                    "--Jmax", "1000", "--out", str(out)]) == 0
        reports.append(read(out)["result"])
    assert reports[0] == reports[1]


def test_apmean_command(tmp_path):
    out = tmp_path / "ap.json"
    rc = run(["apmean", "--function", "lambda_xi", "--xi", "1/3",
              "--q", "5", "--r", "2", "--N", "100000", "--out", str(out)])
    assert rc == 0
    assert read(out)["result"]["agreement"] < 1e-12


def test_distance_command(tmp_path):
    out = tmp_path / "dist.json"
    csv = tmp_path / "dist.csv"
    rc = run(["distance", "--function", "liouville", "--g", "one",
              "--P", "100000", "--out", str(out), "--csv", str(csv)])
    assert rc == 0
    prof = read(out)["result"]["profile"]
    assert prof["trend"] == "mertens_divergence"
    assert csv.read_text().splitlines()[0] == "P,partial_sum"


def test_classify_command(tmp_path):
    out = tmp_path / "cls.json"
    rc = run(["classify", "--function", "mu_squared", "--P", "100000",
              "--N", "100000", "--Qmax", "10", "--out", str(out)])
    assert rc == 0
    res = read(out)["result"]
    assert res["halasz"]["halasz_case"] == "case_i"
    assert res["rap"]["verdict"] == "rap_pretends"


def test_spectrum_command(tmp_path):
    out = tmp_path / "sp.json"
    rc = run(["spectrum", "--function", "dirichlet_character", "--modulus", "4",
              "--index", "1", "--N", "100000", "--qmax", "8", "--out", str(out)])
    assert rc == 0
    pts = read(out)["result"]["scan"]["points"]
    assert {p["theta"] for p in pts} == {"1/4", "3/4"}


def test_mean_command(tmp_path):
    out = tmp_path / "mean.json"
    rc = run(["mean", "--function", "mu_squared", "--P", "100000",
              "--N", "1000000", "--out", str(out)])
    assert rc == 0
    res = read(out)["result"]
    ep = res["euler_product"]["value"]["re"]
    emp = res["empirical_mean"]["re"]
    assert abs(ep - emp) < 2e-3


def test_every_export_resolves():
    """Each name in a module's __all__, and each name the package imports
    from its modules, resolves, so a deleted function leaves no stale export."""
    for info in pkgutil.iter_modules(multfun.__path__):
        mod = importlib.import_module(f"multfun.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, (info.name, missing)
    tree = ast.parse(Path(multfun.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported and all(hasattr(multfun, name) for name in imported)


# negative, 0, small, non-integer, huge and non-numeric option values
_EDGES = ["-3", "0", "1", "2", "3", "10", "1/3", str(2 ** 64), "abc"]
_SUBCOMMANDS = next(a for a in build_parser()._actions if a.dest == "command").choices


def _draw_argv(draw, command):
    """The command with --function (where it takes one) and each required
    option given, and each other option given or left out; a given option
    takes a choice, N <= 1000, an edge value, or a path under the placeholder
    directory {tmp}.  Without --function a draw stops at "no --function given"."""
    argv = [command]
    for action in _SUBCOMMANDS[command]._actions:
        if not action.option_strings or action.dest in ("help", "out"):
            continue
        if not (action.required or action.dest == "function") and not draw(st.booleans()):
            continue
        if action.dest in ("csv", "members", "bitmap", "file"):
            value = "{tmp}/" + action.dest
        elif action.dest == "N":
            value = str(draw(st.integers(-3, 1000)))
        elif action.choices:
            value = draw(st.sampled_from(sorted(action.choices)))
        else:
            value = draw(st.sampled_from(_EDGES))
        argv += [action.option_strings[-1], value]
    return argv


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_run_ends_in_an_exit_code_and_a_report(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{tmp}", tmp) for a in _draw_argv(data.draw, command)]
        out = Path(tmp) / "report.json"
        rc = run(argv + ["--out", str(out)])
        assert rc in (0, 2, 3, 4)
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            return          # argparse reports its own errors, without a report
        report = read(out)
        if rc == 0:
            assert "result" in report
        else:
            assert report["error"]["exit_code"] == rc
