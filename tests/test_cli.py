import argparse
import json
import math

import numpy as np
import pytest

from billingsley import (BoxSpec, ResourceError, box_probability_via_psi, build_rho_table,
                         build_sieve, pd_sample_batch, prime_bounds, psi_exact,
                         sample_factor_vectors)
from billingsley import cli, errors, rng, suite
from billingsley.pd_process import _block_rows
from billingsley.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rho_value(capsys):
    code, out, _ = run(capsys, "rho", "--u", "2.0")
    assert code == 0
    assert out.strip() == "0.306853"


def test_rho_digits(capsys):
    code, out, _ = run(capsys, "rho", "--u", "1.5", "--digits", "9")
    assert code == 0
    assert out.strip() == f"{1 - math.log(1.5):.9f}"


def test_rho_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "rho", "--u", "-1")
    assert code == 1
    assert "error" in err


def test_rho_keeps_relative_precision_past_13(capsys):
    code, out, _ = run(capsys, "rho", "--u", "14", "--digits", "24")
    assert code == 0
    assert out == "0.000000000000000004760630\n"


def test_rho_nan_is_an_error(capsys):
    code, out, err = run(capsys, "rho", "--u", "nan")
    assert code == 1
    assert out == "" and "error" in err


def test_no_arguments_is_usage_error(capsys):
    assert dispatch([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_psi_brute(capsys):
    code, out, _ = run(capsys, "psi", "--x", "10", "--y", "2", "--method", "brute")
    assert code == 0
    assert out.strip() == "4"


def test_psi_exact_default(capsys):
    code, out, _ = run(capsys, "psi", "--x", "10", "--y", "3")
    assert code == 0
    assert out.strip() == "7"


def test_psi_dickman(capsys):
    code, out, _ = run(capsys, "psi", "--x", "1000000", "--y", "1000",
                       "--method", "dickman")
    assert code == 0
    assert float(out) == pytest.approx(10**6 * (1 - math.log(2)), rel=1e-5)


def test_mertens_requires_exactly_one_mode(capsys):
    for argv, message in ((["mertens"], "one of the arguments --x --range is required"),
                          (["mertens", "--x", "100", "--range", "2", "10"],
                           "argument --range: not allowed with argument --x")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(f"error: {message}")


def test_mertens_range(capsys):
    code, out, _ = run(capsys, "mertens", "--range", "2", "10", "--digits", "7")
    assert code == 0
    assert out.strip() == f"{1/2 + 1/3 + 1/5 + 1/7:.7f}"


def test_box_exact_equals_psi(capsys):
    code, out1, _ = run(capsys, "box", "--n", "1e4", "--box", "0.5,0.1",
                        "--method", "exact")
    assert code == 0
    code, out2, _ = run(capsys, "box", "--n", "1e4", "--box", "0.5,0.1",
                        "--method", "psi")
    assert code == 0
    a, b = json.loads(out1), json.loads(out2)
    assert a["count"] == b["count"] and a["total"] == 10**4
    assert a["p_hat"] == a["count"] / 10**4


def test_box_psi_sizes_sieve_to_top_prime_range(capsys):
    # a sieve up to n = 10^10 is beyond 2^31; the top range ends at 10^6
    code, out, _ = run(capsys, "box", "--n", "1e10", "--box", "0.45,0.15;0.1,0.05",
                       "--method", "psi")
    assert code == 0
    assert json.loads(out)["count"] == 210496332


def test_box_mc_fields(capsys):
    code, out, _ = run(capsys, "box", "--n", "1e4", "--box", "0.5,0.1",
                       "--method", "mc", "--samples", "2000", "--seed", "5")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"count", "total", "p_hat", "std_err"}
    code, out2, _ = run(capsys, "box", "--n", "1e4", "--box", "0.5,0.1",
                        "--method", "mc", "--samples", "2000", "--seed", "5")
    assert out == out2


def test_box_at_n_1_runs_every_method(capsys):
    # N = 1 has no prime factor, and no box interval holds its padding 1:
    # every route counts 0
    counts = {}
    for method in ("exact", "mc", "psi"):
        code, out, _ = run(capsys, "box", "--n", "1", "--box", "0.5,0.1", "--method", method,
                           "--samples", "1000")
        assert code == 0, method
        counts[method] = json.loads(out)["count"]
    assert counts == {"exact": 0, "mc": 0, "psi": 0}


def test_out_file_matches_stdout(tmp_path, capsys):
    # --out writes what the command prints without it, and prints nothing
    for argv, expected in ((["psi", "--x", "100", "--y", "5"], "34\n"),
                           (["mertens", "--range", "2", "10"], "1.176190\n")):
        _, printed, _ = run(capsys, *argv)
        target = tmp_path / f"{argv[0]}.txt"
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == printed == expected


def test_rho_table_csv_round_trips(capsys):
    code, out, _ = run(capsys, "rho-table", "--umax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["# u_max=2.0 spacing=0.000244140625", "u,rho"]
    table = build_rho_table(2.0)
    rows = [line.split(",") for line in lines[2:]]
    assert [float(u) for u, _ in rows] == [j / 4096 for j in range(2 * 4096 + 1)]
    assert np.array_equal(np.array([float(v) for _, v in rows]), table.cells[0])


def test_step_option_is_gone(capsys):
    for argv in (["rho", "--u", "2"], ["rho-table"], ["psi", "--x", "100", "--y", "10"],
                 ["psi-ladder", "--nmax", "1e5"], ["pd-density", "--point", "0.5"],
                 ["pd-box", "--box", "0.5,0.1"], ["verify", "--box", "0.5,0.02",
                                                  "--ladder", "1e4"]):
        code, out, err = run(capsys, *argv, "--step", "1e-4")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --step" in err


def test_umax_option_is_only_on_rho_table(capsys):
    # every other command tabulates rho as far as its own input reads it
    for argv in (["rho", "--u", "2"], ["psi", "--x", "100", "--y", "10"],
                 ["psi-ladder", "--nmax", "1e5"], ["pd-density", "--point", "0.5"],
                 ["pd-box", "--box", "0.5,0.1"], ["verify", "--box", "0.5,0.02",
                                                  "--ladder", "1e4"]):
        code, out, err = run(capsys, *argv, "--umax", "40")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --umax" in err
    code, out, _ = run(capsys, "rho-table", "--umax", "1")
    assert code == 0 and out.count("\n") == 4096 + 3


def test_inputs_past_the_default_table_reach_their_own_rho(capsys):
    # the bytes these printed with --umax 40: rho(39.5), and a box whose
    # closed form reads rho at u = 24
    code, out, _ = run(capsys, "rho", "--u", "39.5", "--digits", "90")
    assert code == 0
    assert out == "0." + "0" * 70 + "10058969943472895530\n"
    code, out, _ = run(capsys, "pd-box", "--box", "0.04,0.01")
    assert code == 0
    assert json.loads(out) == {"value": 2.4617828285983376e-29, "error_estimate": 0.0}


def test_threads_option_is_gone(capsys):
    # the scans and samplers use every CPU in the process's affinity; taskset
    # limits them
    for argv in (["box", "--n", "1e4", "--box", "0.5,0.1", "--method", "mc"],
                 ["verify", "--box", "0.5,0.02", "--ladder", "1e4"]):
        code, out, err = run(capsys, *argv, "--threads", "2")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --threads" in err


def test_verify_mc_options_are_gone(capsys):
    # every rung is counted exactly, so verify draws nothing
    for option, value in (("--samples", "1e5"), ("--exact-threshold", "1e6"),
                          ("--seed", "42")):
        code, out, err = run(capsys, "verify", "--box", "0.5,0.02", "--ladder", "1e4",
                             option, value)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {option}" in err


def test_psi_ladder_csv(capsys):
    code, out, _ = run(capsys, "psi-ladder", "--t", "2", "--nmin", "1e3",
                       "--nmax", "1e5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,psi,psi_over_n,rho,abs_err"
    assert len(lines) == 4
    n, psi, ratio, rho_t, err = lines[1].split(",")
    assert n == "1000"
    assert float(ratio) == pytest.approx(int(psi) / 1000)
    assert float(err) == pytest.approx(abs(float(ratio) - float(rho_t)))


def test_sample_factors_csv_deterministic(capsys):
    args = ("sample-factors", "--n", "1e4", "--count", "5", "--k", "3", "--seed", "2")
    code, out, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out == out2
    lines = out.splitlines()
    assert lines[0] == "N,p1,p2,p3,L1,L2,L3"
    assert len(lines) == 6


def test_sample_factors_at_n_1(capsys):
    code, out, _ = run(capsys, "sample-factors", "--n", "1", "--count", "3", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["N,p1,p2,L1,L2"] + ["1,1,1,0.0,0.0"] * 3


def test_sample_factors_csv_rows_are_the_library_columns(capsys):
    code, out, _ = run(capsys, "sample-factors", "--n", "1e4", "--count", "300", "--k", "3",
                       "--seed", "9")
    assert code == 0
    rows = sample_factor_vectors(build_sieve(10**4), 10**4, 300, 3, seed=9)
    fields = [line.split(",") for line in out.splitlines()[1:]]
    assert [[int(v) for v in f[:4]] for f in fields] == \
        np.column_stack([rows.N, rows.p]).tolist()
    assert [f[4:] for f in fields] == [[repr(v) for v in L] for L in rows.L.tolist()]


def test_sample_factors_streams_the_bytes_of_one_table(capsys, tmp_path, monkeypatch):
    pieces = []

    def recording(lines, out):
        lines = list(lines)
        pieces.extend(len(piece) for piece in lines)
        return emit(iter(lines), out)

    emit = cli._emit_pieces
    monkeypatch.setattr(cli, "_emit_pieces", recording)
    monkeypatch.setattr(cli, "_CSV_ROWS", 7)
    argv = ["sample-factors", "--n", "1e4", "--count", "26", "--k", "2", "--seed", "4"]
    code, out, err = run(capsys, *argv)
    rows = sample_factor_vectors(build_sieve(10**4), 10**4, 26, 2, seed=4)
    want = "N,p1,p2,L1,L2\n" + "".join(
        f"{N},{p[0]},{p[1]},{L[0]!r},{L[1]!r}\n"
        for N, p, L in zip(rows.N.tolist(), rows.p.tolist(), rows.L.tolist()))
    assert code == 0 and err == "" and out == want
    assert pieces == [1, 7, 7, 7, 5]  # the header, then one piece per chunk
    target = tmp_path / "f.csv"
    assert run(capsys, *argv, "--out", str(target))[:2] == (0, "")
    assert target.read_text(encoding="utf-8") == want


def test_pd_sample_csv(capsys):
    code, out, _ = run(capsys, "pd-sample", "--count", "4", "--trunc", "30",
                       "--k", "3", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c1,c2,c3"
    assert len(lines) == 5
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] >= row[1] >= row[2] > 0


@pytest.mark.parametrize("chunk", [lambda truncation: 7, _block_rows],
                         ids=["7-rows", "one-block"])
def test_pd_sample_streams_the_bytes_of_one_batch(capsys, tmp_path, monkeypatch, chunk):
    sizes = []

    def recording(seed, count, truncation, start=0, k=None):
        sizes.append(count)
        return pd_sample_batch(seed, count, truncation, start=start, k=k)

    monkeypatch.setattr(cli, "pd_sample_batch", recording)
    monkeypatch.setattr(cli, "_chunk_rows", chunk)
    count, trunc = 3 * chunk(30) + 5, 30  # three chunk boundaries
    argv = ["pd-sample", "--count", str(count), "--trunc", str(trunc), "--k", "4",
            "--seed", "3"]
    code, out, err = run(capsys, *argv)
    sticks, _ = pd_sample_batch(3, count, trunc)
    want = "c1,c2,c3,c4\n" + "".join(",".join(map(repr, row)) + "\n"
                                     for row in sticks[:, :4].tolist())
    assert code == 0 and err == "" and out == want
    assert sizes == [chunk(trunc)] * 3 + [5]
    target = tmp_path / "pd.csv"
    assert run(capsys, *argv, "--out", str(target))[:2] == (0, "")
    assert target.read_text(encoding="utf-8") == want


def test_pd_sample_memory_check_counts_one_chunk(capsys, monkeypatch):
    monkeypatch.setattr(rng, "cpu_count", lambda: 1)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 4 << 20)
    monkeypatch.setattr(cli, "_chunk_rows", _block_rows)
    with pytest.raises(ResourceError):
        pd_sample_batch(1, 20000)  # 9.8 MB of sticks at once
    code, out, err = run(capsys, "pd-sample", "--count", "20000", "--k", "1")
    assert code == 0 and err == ""
    assert out.count("\n") == 20001


def test_refused_pd_sample_leaves_no_file(capsys, tmp_path):
    target = tmp_path / "pd.csv"
    code, out, err = run(capsys, "pd-sample", "--count", "1e16", "--out", str(target))
    assert code == 1 and out == "" and "cap" in err
    assert not target.exists()


def test_pd_density_cli(capsys):
    code, out, _ = run(capsys, "pd-density", "--point", "0.6")
    assert code == 0
    assert float(out) == pytest.approx(1 / 0.6, abs=1e-6)


def test_pd_box_cli(capsys):
    code, out, _ = run(capsys, "pd-box", "--box", "0.5,0.1", "--grid", "128")
    assert code == 0
    d = json.loads(out)
    assert d["value"] == pytest.approx(math.log(1.2), abs=1e-6)
    assert d["error_estimate"] < 1e-6


def test_pd_box_cli_answers_k5_at_default_grid(capsys):
    box = "0.38,0.1;0.2,0.05;0.1,0.05;0.04,0.03;0.01,0.02"
    code, out, _ = run(capsys, "pd-box", "--box", box)
    assert code == 0
    d = json.loads(out)
    assert d["value"] == pytest.approx(2.74489686e-5, abs=1e-9)
    assert 0 < d["error_estimate"] < 1e-11


def test_verify_roundtrip(tmp_path, capsys):
    argv = ("verify", "--box", "0.5,0.1", "--epsilon", "0.25", "--ladder", "1e3,1e4")
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, *argv, "--report", str(report))
    assert code == 0 and out == ""
    assert report.read_text(encoding="utf-8") == printed
    payload = json.loads(printed)
    entries = payload["results"]["entries"]
    assert [e["n"] for e in entries] == [1000, 10000]
    assert all(e["verdict"] for e in entries)


def test_verify_counts_the_1e7_rung_exactly(capsys):
    # the sieve reaches 10^7, so the scan counts that rung; the Psi identity
    # is the oracle
    code, out, _ = run(capsys, "verify", "--box", "0.5,0.1",
                       "--ladder", "1e4,1e5,1e6,1e7")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"] == {"epsilon": 0.25, "ladder": [10**4, 10**5, 10**6, 10**7]}
    entries = payload["results"]["entries"]
    assert [e["method"] for e in entries] == ["exact"] * 4
    assert all("std_err" not in e for e in entries)
    n, box = 10**7, BoxSpec((0.5,), (0.1,))
    sieve = build_sieve(prime_bounds(n, box)[0][1])
    assert box_probability_via_psi(sieve, n, box).count == 1823427
    assert entries[-1] == {"n": n, "method": "exact", "p": 0.1823427, "verdict": True}


def test_verify_counts_past_the_sieve_exactly(capsys):
    # 3e9 is beyond any sieve; the identity needs primes only to n^0.6
    n = 3 * 10**9
    code, out, _ = run(capsys, "verify", "--box", "0.5,0.1", "--ladder", "1e4,3e9")
    assert code == 0
    entry = json.loads(out)["results"]["entries"][1]
    assert entry["method"] == "exact" and entry["verdict"]
    count = psi_exact(n, 485593) - psi_exact(n, 54772)
    assert count == 546129641
    assert entry["p"] == count / n


def test_verify_inadmissible_box_fails(capsys):
    code, _, err = run(capsys, "verify", "--box", "0.4,0.1", "--epsilon", "0.01",
                       "--ladder", "1e3")
    assert code == 1
    assert "admissible" in err


def test_suite_bogus_name(capsys):
    assert dispatch(["suite", "--name", "bogus"]) == 2
    capsys.readouterr()


def test_suite_failure_exits_1_and_names_the_first_failed_check(capsys, monkeypatch):
    # one cheap failing check stands in for the bundle, on a small sieve
    monkeypatch.setattr(suite, "SIEVE_LIMIT", 100)
    monkeypatch.setattr(suite, "CHECKS", (
        ("identities", lambda ctx: {"name": "passes", "passed": True}),
        ("identities", lambda ctx: {"name": "broken", "passed": False}),
        ("convergence", lambda ctx: {"name": "also_broken", "passed": False}),
    ))
    code, out, err = run(capsys, "suite", "--name", "all")
    assert code == 1
    assert err.strip() == "FAILED: broken"
    assert json.loads(out)["passed"] is False


#: every option that takes a float or a count, as (argv, option, value
#: template); the rest of each argv is valid and cheap.  The --step rows, and
#: the --umax rows of every command but rho-table, name an option that no
#: longer exists, which argparse refuses; they stay so that the other rows
#: keep their ids
NON_FINITE_OPTIONS = [
    (["rho"], "--u", "{}"),
    (["rho", "--u", "2"], "--umax", "{}"),
    (["rho", "--u", "2"], "--step", "{}"),
    (["rho-table"], "--umax", "{}"),
    (["rho-table"], "--step", "{}"),
    (["psi", "--x", "100", "--y", "10", "--method", "dickman"], "--umax", "{}"),
    (["psi", "--x", "100", "--y", "10", "--method", "dickman"], "--step", "{}"),
    (["psi-ladder", "--nmax", "1e5"], "--t", "{}"),
    (["psi-ladder", "--nmax", "1e5"], "--nmin", "{}"),
    (["psi-ladder"], "--nmax", "{}"),
    (["psi-ladder", "--nmax", "1e5"], "--umax", "{}"),
    (["box", "--box", "0.5,0.1"], "--n", "{}"),
    (["box", "--box", "0.5,0.1", "--method", "psi"], "--n", "{}"),
    (["box", "--n", "1e4"], "--box", "{},0.1"),
    (["box", "--n", "1e4"], "--box", "0.5,{}"),
    (["box", "--n", "1e4", "--box", "0.5,0.1", "--method", "mc"], "--samples", "{}"),
    (["sample-factors", "--count", "10"], "--n", "{}"),
    (["sample-factors", "--n", "1e4"], "--count", "{}"),
    (["pd-sample"], "--count", "{}"),
    (["pd-density"], "--point", "{},0.1"),
    (["pd-density", "--point", "0.5,0.1"], "--umax", "{}"),
    (["pd-box"], "--box", "{},0.1"),
    (["pd-box"], "--box", "0.5,{}"),
    (["pd-box", "--box", "0.5,0.1"], "--step", "{}"),
    (["verify", "--box", "0.5,0.02", "--ladder", "1e4"], "--epsilon", "{}"),
    (["verify", "--box", "0.5,0.02"], "--ladder", "{}"),
    (["verify", "--box", "0.5,0.02"], "--ladder", "1e4,{}"),
    (["verify", "--ladder", "1e4"], "--box", "{},0.02"),
    (["verify", "--ladder", "1e4"], "--box", "0.5,{}"),
    (["verify", "--box", "0.5,0.02", "--ladder", "1e4"], "--umax", "{}"),
    (["mertens"], "--x", "{}"),
    (["psi", "--y", "10"], "--x", "{}"),
    (["psi", "--x", "100"], "--y", "{}"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
@pytest.mark.parametrize("argv,option,template", NON_FINITE_OPTIONS)
def test_non_finite_options_fail_with_a_message(capsys, argv, option, template, value):
    # --opt=value, so that "-inf" reaches the option's own parser; any
    # uncaught exception fails the test with its traceback
    code, out, err = run(capsys, *argv, f"{option}={template.format(value)}")
    assert code != 0
    assert "error" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("pair", [("{}", "100"), ("2", "{}")])
def test_mertens_range_refuses_non_finite(capsys, pair, value):
    code, out, err = run(capsys, "mertens", "--range", *(v.format(value) for v in pair))
    assert code == 2
    assert "not a finite integer" in err and out == ""


#: count options written as float literals, each with the same command in
#: integer literals
COUNT_LITERALS = [
    (["psi", "--x", "1e6", "--y", "1e3"], ["psi", "--x", "1000000", "--y", "1000"]),
    (["mertens", "--x", "1e4"], ["mertens", "--x", "10000"]),
    (["mertens", "--range", "1e1", "1e2"], ["mertens", "--range", "10", "100"]),
]


@pytest.mark.parametrize("argv,plain", COUNT_LITERALS, ids=lambda a: " ".join(a))
def test_count_options_accept_float_literals(capsys, argv, plain):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == run(capsys, *plain)[1]


#: finite values too large to serve, each refused before allocating or
#: overflowing: the factor-row count and the rho-table CSV by the memory
#: budget, the pd-sample count and the Monte Carlo samples by their draw
#: caps, the box coordinate by float overflow in n^t
OVERSIZED_ARGV = [
    ["pd-sample", "--count", "1e16"],
    ["sample-factors", "--n", "1e4", "--count", "1e16"],
    ["box", "--n", "1e4", "--box", "0.5,0.1", "--method", "mc", "--samples", "1e16"],
    ["rho-table", "--umax", "1e16"],
    ["rho-table", "--umax", "1.7e308"],
    ["box", "--n", "1e4", "--box", "1e30,0.1"],
]


@pytest.mark.parametrize("argv", OVERSIZED_ARGV, ids=" ".join)
def test_oversized_values_fail_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


#: counts below 1, refused as usage errors at argument parsing, before a
#: sieve is built
NON_POSITIVE_ARGV = [
    (["sample-factors", "--n", "1e4", "--k", "3", "--count", "-3"], "--count"),
    (["sample-factors", "--n", "1e4", "--count", "0"], "--count"),
    (["pd-sample", "--count", "0"], "--count"),
    (["pd-sample", "--count", "2", "--k", "-2"], "--k"),
    (["pd-sample", "--count", "2", "--k", "0"], "--k"),
    (["sample-factors", "--n", "1e4", "--count", "5", "--k", "0"], "--k"),
    (["box", "--n", "1e4", "--box", "0.5,0.1", "--method", "mc", "--samples", "0"],
     "--samples"),
    (["pd-box", "--box", "0.5,0.1", "--grid", "0"], "--grid"),
    (["pd-sample", "--count", "2", "--trunc", "0"], "--trunc"),
    (["verify", "--box", "0.5,0.1", "--ladder", "0"], "--ladder"),
    (["verify", "--box", "0.5,0.1", "--ladder", "1e4,-5"], "--ladder"),
    (["psi-ladder", "--nmax", "1e5", "--nmin", "0"], "--nmin"),
    (["box", "--n", "0", "--box", "0.5,0.1"], "--n"),
    (["box", "--n", "-5", "--box", "0.5,0.1", "--method", "psi"], "--n"),
    (["sample-factors", "--n", "0", "--count", "5"], "--n"),
]


@pytest.mark.parametrize("argv, option", NON_POSITIVE_ARGV,
                         ids=[" ".join(argv) for argv, _ in NON_POSITIVE_ARGV])
def test_non_positive_counts_fail_with_one_error_line(capsys, monkeypatch, argv, option):
    def no_sieve(limit):
        raise AssertionError("a sieve was built before the count was refused")

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"error: argument {option}: must be >= 1")


#: arguments refused on their own, each with its exit code and message,
#: before the sieve, which at n = 3*10^8 took 3.4-4.0 s and 1.3 GB as a
#: process on a 2-vCPU host: --y 0 is a usage error, the others fail the
#: library's own check
REFUSED_BEFORE_SIEVE_ARGV = [
    (["psi", "--x", "3e8", "--y", "0", "--method", "brute"], 2,
     "argument --y: must be >= 1"),
    (["mertens", "--range", "0", "3e8"], 1, "range [0, 300000000] invalid"),
    (["sample-factors", "--n", "3e8", "--count", "1e12"], 1, "factor rows of rank 3"),
    (["box", "--n", "3e8", "--box", "0.5,0.1", "--method", "mc", "--samples", "1e12"], 1,
     "more than the cap"),
    (["verify", "--box", "0.5,0.1", "--ladder", "1e13", "--epsilon", "2"], 1,
     "epsilon must lie in (0, 1)"),
    (["verify", "--box", "0.3,0.3", "--ladder", "1e13"], 1, "box not admissible"),
]


@pytest.mark.parametrize("argv, want, message", REFUSED_BEFORE_SIEVE_ARGV,
                         ids=[" ".join(argv) for argv, _, _ in REFUSED_BEFORE_SIEVE_ARGV])
def test_refusals_that_need_no_sieve_come_before_it(capsys, monkeypatch, argv, want,
                                                    message):
    def no_sieve(limit):
        raise AssertionError("a sieve was built before the argument was refused")

    monkeypatch.setattr(cli, "build_sieve", no_sieve)
    code, out, err = run(capsys, *argv)
    assert code == want
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


#: values outside an option's range that used to end in a traceback, each
#: with the message of its one error line
OUT_OF_RANGE_ARGV = [
    (["psi-ladder", "--nmax", "1e4", "--t", "0"], "--t", "must be finite and > 0"),
    (["psi-ladder", "--nmax", "1e4", "--t", "-2"], "--t", "must be finite and > 0"),
    (["psi-ladder", "--nmax", "1e4", "--t", "inf"], "--t", "must be finite and > 0"),
    (["psi-ladder", "--nmax", "1e4", "--t", "two"], "--t", "not a number: 'two'"),
    (["rho", "--u", "2", "--digits", "-1"], "--digits", "must be >= 0"),
    (["mertens", "--x", "100", "--digits", "-1"], "--digits", "must be >= 0"),
    (["psi", "--x", "100", "--y", "10", "--method", "dickman", "--digits", "-3"],
     "--digits", "must be >= 0"),
    (["pd-density", "--point", "0.5", "--digits", "-1"], "--digits", "must be >= 0"),
    (["rho", "--u", "2", "--digits", "1.5"], "--digits", "not a finite integer: '1.5'"),
    (["rho", "--u", "2", "--digits", "3e9"], "--digits", "must be <= 1074"),
    (["rho", "--u", "2", "--digits", "2e8"], "--digits", "must be <= 1074"),
    (["mertens", "--x", "100", "--digits", "1075"], "--digits", "must be <= 1074"),
]


@pytest.mark.parametrize("argv, option, message", OUT_OF_RANGE_ARGV,
                         ids=[" ".join(argv) for argv, _, _ in OUT_OF_RANGE_ARGV])
def test_out_of_range_values_fail_with_one_error_line(capsys, argv, option, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"error: argument {option}: {message}")


@pytest.mark.parametrize("argv", [["--nmax", "0"], ["--nmin", "1e5", "--nmax", "1e4"]],
                         ids=" ".join)
def test_reversed_psi_ladder_fails_with_one_error_line(capsys, monkeypatch, argv):
    def no_table(*args):
        raise AssertionError("a rho table was built before the range was refused")

    monkeypatch.setattr(cli, "build_rho_table", no_table)
    code, out, err = run(capsys, "psi-ladder", *argv)
    assert code == 1
    assert out == ""
    assert err.count("error:") == 1 and "below --nmin" in err


def test_digits_reach_the_exact_expansion_of_a_float(capsys):
    # 2^-1074, the least positive float64, needs every one of 1074 places
    assert f"{2.0 ** -1074:.1074f}"[-1] == "5"
    code, out, _ = run(capsys, "rho", "--u", "2", "--digits", "1074")
    assert code == 0 and out.startswith("0.30685281944005") and len(out) == 2 + 1074 + 1


def test_psi_ladder_below_one_counts_every_integer(capsys):
    # t < 1 puts n^{1/t} above n, so every m <= n is smooth
    code, out, _ = run(capsys, "psi-ladder", "--t", "0.5", "--nmax", "1e5")
    assert code == 0
    assert out.splitlines()[1:] == ["10000,10000,1.0,1.0,0.0", "100000,100000,1.0,1.0,0.0"]


def test_count_options_are_exact_integers(capsys):
    from billingsley.cli import _count
    assert _count("10000000000000001") == 10**16 + 1
    assert _count("1e7") == _count("10000000") == 10**7
    assert _count("-3") == -3
    for bad in ("1.5", "1e-3", "nan", "inf", "-inf", "1e400", "ten", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            _count(bad)
    # an integer past float precision reaches the command unrounded
    code, out, _ = run(capsys, "box", "--n", "10000000000000001", "--box", "0.05,0.01",
                       "--method", "psi")
    assert code == 0
    assert json.loads(out)["total"] == 10**16 + 1
