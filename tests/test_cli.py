"""Command-line behavior: exit codes, formats, determinism, config echo."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from waring4 import arcs, cli, figurate

from fresh_process import child_peak_rss_mib


def test_eval_prints_value_and_config(capsys):
    code = cli.main(["eval", "--spec", "{3,4,3}", "--n", "5", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "1425"
    assert "seed=7" in out
    assert "threads" not in out  # thread count must not affect any output


def test_eval_explicit_coefficients(capsys):
    code = cli.main(["eval", "--spec", "72,84,22", "--n", "5"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1425"


def test_count_small_cases(capsys):
    code = cli.main(["count", "--spec", "{3,4,3}", "--s", "2", "--m", "25"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2"
    code = cli.main(["count", "--spec", "{3,3,5}", "--s", "1", "--m", "120"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1"


def test_count_peak_rss_in_a_fresh_process():
    # each pass is sized from the previous pass's maximum, so the 999,501
    # coefficients of steps 7, 8 and 9 all fit u4, and the upper half of
    # s = 17 is made one DOT_ROWS block at a time.  So over a child that only
    # imports the CLI the peak is pass 8's two u4 steps (3.8 MiB each); after
    # it, the u4 lower half, one block and one chunk's int64 planes.  That
    # reads about 7.7 MiB, where a u8 lower half read 13.7 MiB
    baseline = child_peak_rss_mib("-c", "import waring4.cli")
    job = child_peak_rss_mib("-m", "waring4", "count", "--spec", "{3,4,3}", "--s", "17", "--m", "999500")
    assert job - baseline < 11


def test_unknown_catalog_symbol_exits_one(capsys):
    code = cli.main(["count", "--spec", "{9,9,9}", "--s", "2", "--m", "10"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert cli.main(["count"]) == 1  # missing required arguments
    assert cli.main([]) == 1  # missing subcommand
    capsys.readouterr()


def test_budget_refusal_exits_two(capsys):
    code = cli.main(
        ["count", "--spec", "{3,4,3}", "--s", "17", "--m", "1000000000",
         "--budget", "10000"]
    )
    assert code == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["-1", "abc", "1.5"])
def test_malformed_budget_exits_one(budget, capsys):
    code = cli.main(["count", "--spec", "{3,4,3}", "--s", "3", "--m", "10", "--budget", budget])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "budget" in captured.err
    assert "budget refusal" not in captured.err


def test_zero_budget_refuses_with_exit_two(capsys):
    code = cli.main(["count", "--spec", "{3,4,3}", "--s", "3", "--m", "10", "--budget", "0"])
    assert code == 2
    assert "budget refusal" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["Unable to allocate 93.1 GiB for an array", ""])
def test_memory_error_is_a_budget_refusal(message, monkeypatch, capsys):
    # an allocation past the machine's memory exits 2 like a BudgetError;
    # the count is replaced, so nothing large is allocated
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli.repcount, "count_representations", refuse)
    code = cli.main(["count", "--spec", "{3,4,3}", "--s", "3", "--m", "100000000000", "--budget", "10" + "0" * 30])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"budget refusal: {message or 'out of memory'}\n"
    assert "Traceback" not in captured.err


def test_parse_spec_forms():
    assert cli.parse_spec("{3,4,3}").A == 72
    explicit = cli.parse_spec("72, 84, 22")
    reference = figurate.catalog("{3,4,3}").spec
    assert (explicit.A, explicit.B, explicit.C) == (reference.A, reference.B, reference.C)
    with pytest.raises(ValueError):
        cli.parse_spec("72,84")


def test_report_json_round_trip():
    rep = arcs.asymptotic_report(
        figurate.catalog("{3,4,3}").spec, 17, 17, prime_limit=10
    )
    back = json.loads(json.dumps(cli.report_to_dict(rep)))
    # the exact count travels as a decimal string, every float by repr
    assert back.pop("exact") == str(rep.exact_count)
    assert back.pop("spec") == rep.spec_label
    series = back.pop("series")
    series["per_prime"] = tuple(tuple(pv) for pv in series["per_prime"])
    assert series == dataclasses.asdict(rep.series)
    assert back.pop("bound_checks") == [dataclasses.asdict(c) for c in rep.bound_checks]
    rest = {f.name for f in dataclasses.fields(rep)} - {"exact_count", "spec_label", "series", "bound_checks"}
    assert back == {name: getattr(rep, name) for name in rest}


def test_report_csv_format(tmp_path):
    import csv as csv_mod

    out = tmp_path / "ladder.csv"
    code = cli.main(
        ["report", "--spec", "{3,4,3}", "--s", "17", "--m", "17,24",
         "--prime-limit", "10", "--format", "csv", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config command=report")
    parsed = list(csv_mod.reader(lines[1:]))
    assert parsed[0] == cli.CSV_HEADER
    rows = parsed[1:]
    assert [r[0] for r in rows] == ["17", "24"]
    assert [r[3] for r in rows] == ["1", "0"]  # exact counts as integers
    assert all(r[2] == "{3,4,3}" for r in rows)


def test_report_json_output(tmp_path):
    out = tmp_path / "one.json"
    code = cli.main(
        ["report", "--spec", "{3,4,3}", "--s", "17", "--m", "17",
         "--prime-limit", "10", "--format", "json", "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["spec"] == "{3,4,3}"
    assert len(payload["reports"]) == 1
    assert payload["reports"][0]["exact"] == "1"


def test_report_with_no_primes_is_indeterminate(capsys):
    code = cli.main(
        ["report", "--spec", "{3,4,3}", "--s", "17", "--m", "10000",
         "--prime-limit", "1", "--format", "json"]
    )
    assert code == 0
    series = json.loads(capsys.readouterr().out)["reports"][0]["series"]
    assert series["per_prime"] == []
    assert series["euler_estimate"] == 1.0
    assert series["positivity"] == "indeterminate"


def test_check_suite_passes_and_is_thread_invariant(capsys):
    text1, ok1 = cli.run_check_suite(seed=0, threads=1)
    text4, ok4 = cli.run_check_suite(seed=0, threads=4)
    text8, ok8 = cli.run_check_suite(seed=0, threads=8)
    assert ok1 and ok4 and ok8
    assert text1 == text4 == text8
    assert text1.strip().endswith("(12 checks)")
    code = cli.main(["check-suite", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "suite: pass" in out


def test_report_is_thread_invariant(monkeypatch, capsys):
    argv = ["report", "--spec", "{3,4,3}", "--s", "17", "--m", "10000,30000",
            "--format", "json"]
    outs = []
    for threads in ("1", "4"):
        assert cli.main(argv + ["--threads", threads]) == 0
        outs.append(capsys.readouterr().out)
    monkeypatch.setenv("WARING4_THREADS", "4")
    assert cli.main(argv) == 0
    outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert len(json.loads(outs[0])["reports"]) == 2


def test_threads_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv("WARING4_THREADS", "3")
    parser = cli._build_parser()
    args = parser.parse_args(["check-suite"])
    assert args.threads == 3
    monkeypatch.delenv("WARING4_THREADS")
    args = cli._build_parser().parse_args(["check-suite"])
    assert args.threads == 1


def test_bad_thread_count_from_environment_exits_one(monkeypatch, capsys):
    monkeypatch.setenv("WARING4_THREADS", "abc")
    assert cli.main(["eval", "--spec", "{3,4,3}", "--n", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "WARING4_THREADS" in captured.err


def test_zero_threads_exits_one(capsys):
    assert cli.main(["eval", "--spec", "{3,4,3}", "--n", "1", "--threads", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_series_command(capsys):
    code = cli.main(
        ["series", "--spec", "{3,4,3}", "--s", "17", "--m", "3", "--Q", "12"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "imag residue" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--spec", "{3,4,3}", "--s", "17", "--m", "3", "--Q", "1001"],
        ["report", "--spec", "{3,4,3}", "--s", "17", "--m", "17",
         "--prime-limit", "1001"],
    ],
    ids=["series-Q", "report-prime-limit"],
)
def test_series_truncation_above_the_cap_exits_two(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget refusal: ")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["series", "--spec", "{3,4,3}", "--s", "17", "--m", "3"], "Q"),
        (["report", "--spec", "{3,4,3}", "--s", "17", "--m", "17"], "prime-limit"),
    ],
    ids=["series-Q", "report-prime-limit"],
)
def test_series_truncation_below_one_exits_one_naming_its_flag(argv, flag, value, capsys):
    assert cli.main(argv + [f"--{flag}", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --{flag}: {flag} must be an integer >= 1" in captured.err


def test_local_command(capsys):
    code = cli.main(
        ["local", "--spec", "{3,4,3}", "--s", "17", "--m", "3", "--p", "2",
         "--k-max", "6"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "stabilized=True" in out and "bound_holds=True" in out


def test_local_command_reports_a_local_obstruction(capsys):
    code = cli.main(["local", "--spec", "{3,4,3}", "--s", "2", "--m", "3", "--p", "2"])
    assert code == 0
    assert "stabilized=True estimate=0.0 " in capsys.readouterr().out


def test_local_with_a_huge_prime_exits_two_at_once():
    # 2^61 - 1: every level is past the float path's period cap, so it is
    # refused before the primality test; a composite p that large exits 2
    # the same way
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "waring4.cli", "local", "--spec", "{3,4,3}", "--s", "17",
            "--m", "5", "--p", str(2**61 - 1)]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=10)
    assert done.returncode == 2
    assert done.stdout == "" and done.stderr.startswith("budget refusal: ")


def test_local_with_a_huge_s_exits_two_at_once():
    # the exact congruence tables refuse the bound 2^(10^9) before making any
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "waring4.cli", "local", "--spec", "{3,4,3}", "--s",
            str(10**9), "--m", "5", "--p", "2"]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=10)
    assert done.returncode == 2
    assert done.stdout == "" and done.stderr.startswith("budget refusal: exact congruence tables")


@pytest.mark.parametrize("k_max", ["0", "-3", "two"])
def test_bad_k_max_exits_one(k_max, capsys):
    code = cli.main(
        ["local", "--spec", "{3,4,3}", "--s", "17", "--m", "3", "--p", "2", "--k-max", k_max]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "k-max" in captured.err


@pytest.mark.parametrize(
    "s, delta, q_max",
    [(3, "73/372", 1), (9, "73/300", 2), (17, "73/372", 1)],
    ids=["s3", "s9", "s17"],
)
def test_arcs_command(s, delta, q_max, capsys):
    code = cli.main(["arcs", "--spec", "{3,4,3}", "--s", str(s), "--m", "1000000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "N=26" in out and f"delta={delta} " in out and f"q_max={q_max} " in out


@pytest.mark.parametrize("s", ["0", "-4"])
@pytest.mark.parametrize(
    "command",
    [
        ["count", "--spec", "{3,4,3}"],
        ["series", "--spec", "{3,4,3}"],
        ["local", "--spec", "{3,4,3}", "--p", "2"],
        ["integral"],
        ["arcs", "--spec", "{3,4,3}"],
        ["report", "--spec", "{3,4,3}"],
    ],
    ids=lambda command: command[0],
)
def test_s_below_one_exits_one(command, s, capsys):
    assert cli.main([*command, "--s", s, "--m", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "s must be an integer >= 1" in captured.err


@pytest.mark.parametrize(
    "argv, token",
    [
        (["count", "--spec", "{3,4,3}", "--s", "17", "--m", "1e6"], "'1e6'"),
        (["report", "--spec", "{3,4,3}", "--s", "17", "--m", "1,,2"], "''"),
        (["report", "--spec", "{3,4,3}", "--s", "17", "--m", "10000,3e4"], "'3e4'"),
        (["local", "--spec", "{3,4,3}", "--s", "2", "--m", "x", "--p", "2"], "'x'"),
        (["integral", "--s", "5", "--m", "50,"], "''"),
    ],
    ids=["count-float", "report-empty-token", "report-float-token", "local", "integral-trailing-comma"],
)
def test_malformed_m_exits_one_naming_the_flag_and_token(argv, token, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --m: m must be an integer or a comma list of integers" in captured.err
    assert captured.err.rstrip().endswith(f"got {token}")
    assert "invalid literal" not in captured.err


def test_m_keeps_its_range_checks_and_its_ladder(capsys):
    # a well-formed --m out of range still fails where the count is made
    assert cli.main(["count", "--spec", "{3,4,3}", "--s", "2", "--m", "-5"]) == 1
    assert capsys.readouterr().err == "error: target must be >= 0\n"
    assert cli.main(["count", "--spec", "{3,4,3}", "--s", "2", "--m", "25, 26"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# config command=count spec={3,4,3} s=2 m=25,26 ")
    assert lines[1:] == ["2", "0"]


def test_integral_command_reports_failure_without_crashing(capsys):
    code = cli.main(["integral", "--s", "5", "--m", "50"])
    assert code == 0
    assert "holds=False" in capsys.readouterr().out
