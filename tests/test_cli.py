"""End-to-end tests of the abmink command line."""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmink import cli

CMD = [sys.executable, "-m", "abmink"]

MIRROR_CFG = """\
scenario = mirror
n = 1.33
E0_V_per_m = 1.0e3
omega_rad_per_s = 3.0e15
sigma_S_per_m = 5.0e7
"""


def run_cli(*args, env=None):
    return subprocess.run(CMD + list(args), capture_output=True, env=env)


@pytest.fixture
def mirror_config(tmp_path):
    path = tmp_path / "mirror.cfg"
    path.write_text(MIRROR_CFG)
    return path


def test_list_enumerates_the_eight_scenarios():
    proc = run_cli("list")
    assert proc.returncode == 0
    names = proc.stdout.decode().split()
    assert names == ["mirror", "drag", "wgm", "sphere-kick", "fiber", "bec",
                     "interface", "covariant-checks"]


def test_run_reports_are_byte_identical(mirror_config):
    first = run_cli("run", str(mirror_config), "--format", "json")
    second = run_cli("run", str(mirror_config), "--format", "json")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["scenario"] == "mirror"
    assert payload["errors"] == []


def test_run_writes_output_file(mirror_config, tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli("run", str(mirror_config), "--format", "csv",
                   "--out", str(out))
    assert proc.returncode == 0
    header = out.read_text().splitlines()[0]
    assert "pressure_flux_Pa" in header


def test_run_rejects_a_config_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"scenario = bec\nn = 1.5\xff\n")
    proc = run_cli("run", str(path))
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith("error: cannot read config: ") and "Traceback" not in err


@pytest.mark.parametrize("out", ["missing/report.csv", "."])
# an in-regime mirror, and one whose report has an error (k/alpha above 0.2)
@pytest.mark.parametrize("sigma", ["5.0e7", "1.0e5"])
def test_run_reports_an_unwritable_out_path(tmp_path, sigma, out):
    path = tmp_path / "mirror.cfg"
    path.write_text(MIRROR_CFG.replace("5.0e7", sigma))
    proc = run_cli("run", str(path), "--out", str(tmp_path / out))
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith("error: cannot write report: ") and "Traceback" not in err


def test_run_rejects_bad_config(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("scenario = wgm\na_m = 1e-4\nomega0_rad_per_s = 1e3\n")
    proc = run_cli("run", str(path))
    assert proc.returncode == 2
    assert "P0" in proc.stderr.decode()


def test_run_rejects_the_removed_quadrature_tol_key(tmp_path):
    path = tmp_path / "mirror.cfg"
    path.write_text(MIRROR_CFG + "quadrature_tol = 1e-8\n")
    proc = run_cli("run", str(path))
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith("error: unknown key 'quadrature_tol' for scenario 'mirror'")
    assert "Traceback" not in err


def test_run_rejects_a_key_both_set_and_swept(tmp_path):
    path = tmp_path / "bec.cfg"
    path.write_text("scenario = bec\nn = 1.5\nomega_rad_per_s = 1e15\n"
                    "sweep = n:[1.0, 1.2, 3]\n")
    proc = run_cli("run", str(path), "--format", "json")
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith("error: 'n' is both set and swept")
    assert "Traceback" not in err


# 300 rows of two varying cells: its CSV goes through the %.16e kernel
BEC_SWEEP_CFG = "scenario = bec\nomega_rad_per_s = 1e15\nsweep = n:[1.0, 1.6, 300]\n"


def test_run_reads_a_config_saved_with_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(BEC_SWEEP_CFG)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for fmt in ("table", "csv", "json"):
        expected = run_cli("run", str(plain), "--format", fmt)
        proc = run_cli("run", str(marked), "--format", fmt)
        assert proc.returncode == 0 and expected.returncode == 0
        assert proc.stdout == expected.stdout and proc.stderr == b""


# In-process, through cli.main: reading the config as bytes must not change
# a report where text mode translated \r\n and lone \r to \n.
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_run_reads_any_line_ending_with_or_without_a_byte_order_mark(tmp_path, fmt,
                                                                     capsysbinary):
    text = "# a bec sweep\n" + BEC_SWEEP_CFG.replace("\nsweep", "  # comment\nsweep")
    configs = [text.encode(), text.replace("\n", "\r\n").encode(),
               b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode(),
               text.replace("\n", "\r").encode()]
    reports = []
    for i, data in enumerate(configs):
        path = tmp_path / f"{i}.cfg"
        path.write_bytes(data)
        assert cli.main(["run", str(path), "--format", fmt]) == 0
        reports.append(capsysbinary.readouterr())
    assert reports[0].err == b"" and len(reports[0].out.splitlines()) > 300
    assert reports == [reports[0]] * len(configs)


def test_run_keeps_the_full_text_of_a_file_error(tmp_path, capsys):
    config, latin1 = tmp_path / "bec.cfg", tmp_path / "latin1.cfg"
    config.write_text(BEC_SWEEP_CFG)
    # the bad byte lies past the first 8 KiB: its position is counted from
    # the start of the file, not of a read chunk
    latin1.write_bytes(b"#" * 9000 + b"\nscenario = bec\nn = 1.5\xff\n")
    missing, report = tmp_path / "missing.cfg", tmp_path / "missing" / "report.csv"
    for argv, err in [
        ([str(missing)],
         f"cannot read config: [Errno 2] No such file or directory: {str(missing)!r}"),
        ([str(tmp_path)], f"cannot read config: [Errno 21] Is a directory: {str(tmp_path)!r}"),
        ([str(latin1)], "cannot read config: 'utf-8' codec can't decode byte 0xff "
                        "in position 9023: invalid start byte"),
        ([str(config), "--out", str(report)],
         f"cannot write report: [Errno 2] No such file or directory: {str(report)!r}"),
        ([str(config), "--out", str(tmp_path)],
         f"cannot write report: [Errno 21] Is a directory: {str(tmp_path)!r}"),
    ]:
        assert cli.main(["run", *argv, "--format", "csv"]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("raw", ["1_5", "\u0661.5"])
def test_run_rejects_a_python_only_number(tmp_path, raw):
    path = tmp_path / "bec.cfg"
    path.write_text(f"scenario = bec\nn = {raw}\nomega_rad_per_s = 1e15\n", encoding="utf-8")
    proc = run_cli("run", str(path))
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert err == f"error: value for 'n' is not a number: {raw!r}\n"


def test_run_out_of_regime_exits_nonzero(tmp_path):
    path = tmp_path / "weak.cfg"
    path.write_text(MIRROR_CFG.replace("5.0e7", "1.0e5"))
    proc = run_cli("run", str(path))
    assert proc.returncode == 1
    err = proc.stderr.decode()
    assert "k/alpha" in err and "0.2" in err


@pytest.mark.parametrize("mu_r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", ["1", "1.0000001"])
def test_covariant_checks_at_n_one_exit_zero(tmp_path, n, mu_r):
    path = tmp_path / "vacuum.cfg"
    path.write_text(f"scenario = covariant-checks\nn = {n}\nmu_r = {mu_r}\n")
    proc = run_cli("run", str(path))
    assert proc.returncode == 0, proc.stderr


def test_covariant_checks_failing_the_ratio_bound_exit_one(tmp_path):
    path = tmp_path / "coarse.cfg"
    path.write_text("scenario = covariant-checks\ngrid_step = 1\n")
    for fmt in ("csv", "json", "table"):
        proc = run_cli("run", str(path), "--format", fmt)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.decode().startswith(
            "error: divergence_ratio_err = 0.961657 is above its bound 0.2")


CHECK_STDOUT = (
    "PASS three-way-mirror: residual 5.866e-16 (bound 1.000e-06)\n"
    "PASS divergence-convergence: residual 1.922e-05 (bound 2.000e-01)\n"
    "PASS momentum-ledger: residual 1.277e-15 (bound 1.000e-06)\n"
)


def _env_without_tol():
    import os
    env = dict(os.environ)
    env.pop("ABMINK_TOL", None)
    return env


def test_check_passes_with_exit_zero():
    proc = run_cli("check", env=_env_without_tol())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.decode() == CHECK_STDOUT
    assert proc.stderr == b""


def test_check_text_format_is_the_default():
    proc = run_cli("check", "--format", "text", env=_env_without_tol())
    assert proc.returncode == 0 and proc.stdout.decode() == CHECK_STDOUT


def test_check_json_lists_the_suite_bit_for_bit():
    from abmink.runner import check_suite
    proc = run_cli("check", "--format", "json", env=_env_without_tol())
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.decode()
    assert out.count("\n") == 1 and out.endswith("\n")
    doc = json.loads(out, parse_constant=pytest.fail)  # no NaN or Infinity
    assert list(doc) == ["checks"]
    want = check_suite()
    assert [list(c) for c in doc["checks"]] == [["name", "residual", "bound", "passed"]] * 3
    assert [c["name"] for c in doc["checks"]] == [r.name for r in want]
    for got, res in zip(doc["checks"], want):
        assert type(got["residual"]) is float and type(got["bound"]) is float
        assert got["residual"].hex() == res.residual.hex()
        assert got["bound"].hex() == res.bound.hex()
        assert got["passed"] is True


def test_check_json_reports_a_failure_with_exit_one():
    env = dict(_env_without_tol(), ABMINK_TOL="1e-18")
    proc = run_cli("check", "--format", "json", env=env)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout, parse_constant=pytest.fail)
    assert [(c["name"], c["bound"], c["passed"]) for c in doc["checks"]] == [
        ("three-way-mirror", 1e-18, False),
        ("divergence-convergence", 0.2, True),
        ("momentum-ledger", 1e-18, False),
    ]


def test_check_respects_tolerance_env(tmp_path):
    import os
    env = dict(os.environ, ABMINK_TOL="1e-18")
    proc = run_cli("check", env=env)
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout.decode()


@pytest.mark.parametrize("text", [
    MIRROR_CFG.replace("E0_V_per_m = 1.0e3", "E0_V_per_m = 1e200"),
    "scenario = interface\nE_t_V_per_m = 1e200\nn_from = 1\nn_to = 1.33\n",
    # eps0 n^2 overflows: the transport route is inf
    "scenario = mirror\nn = 1e155\nE0_V_per_m = 1e3\n"
    "omega_rad_per_s = 1e-300\nsigma_S_per_m = 1e300\n",
])
def test_overflowing_point_exits_one_with_valid_output(tmp_path, text):
    path = tmp_path / "overflow.cfg"
    path.write_text(text)
    for fmt in ("csv", "json", "table"):
        proc = run_cli("run", str(path), "--format", fmt)
        assert proc.returncode == 1, proc.stderr
        err = proc.stderr.decode()
        assert "Traceback" not in err and err.startswith("error: ")
        message = err[len("error: "):].strip()
        out = proc.stdout.decode()
        if fmt == "json":  # strict: NaN or Infinity would fail to parse
            payload = json.loads(out, parse_constant=pytest.fail)
            assert payload["rows"] == [] and payload["errors"] == [message]
        elif fmt == "csv":
            assert out == "\n"
        else:
            assert out.endswith(f"# error: {message}\n")


@pytest.mark.parametrize("key", ["mu_r = 1e-300", "n = 1e200"])
def test_non_finite_covariant_check_exits_one_with_valid_output(tmp_path, key):
    path = tmp_path / "covariant.cfg"
    path.write_text(f"scenario = covariant-checks\n{key}\n")
    for fmt in ("csv", "json", "table"):
        proc = run_cli("run", str(path), "--format", fmt)
        assert proc.returncode == 1, proc.stderr
        # one line per non-finite check: no traceback, no RuntimeWarning
        errors = proc.stderr.decode().splitlines()
        assert errors and all(e.startswith("error: result '") for e in errors)
        out = proc.stdout.decode()
        if fmt == "json":  # strict: NaN or Infinity would fail to parse
            payload = json.loads(out, parse_constant=pytest.fail)
            assert payload["errors"] == [e[len("error: "):] for e in errors]
        elif fmt == "csv":
            assert out.splitlines()[0] == "check,value"
        else:
            assert out.endswith("".join(f"# {e}\n" for e in errors))


@pytest.mark.parametrize("args, env_tol, source", [
    (["--tol", "nan"], None, "--tol"),
    (["--tol", "-1"], None, "--tol"),
    (["--tol", "0"], None, "--tol"),
    (["--tol", "inf"], None, "--tol"),
    ([], "abc", "ABMINK_TOL"),
    ([], "nan", "ABMINK_TOL"),
    ([], "-1e-6", "ABMINK_TOL"),
    (["--format", "json", "--tol", "0"], None, "--tol"),
    (["--format", "json"], "nan", "ABMINK_TOL"),
])
def test_check_rejects_a_bad_tolerance_naming_its_source(args, env_tol, source):
    import os
    env = dict(os.environ)
    env.pop("ABMINK_TOL", None)
    if env_tol is not None:
        env["ABMINK_TOL"] = env_tol
    proc = run_cli("check", *args, env=env)
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert err.startswith(f"error: {source}: ") and "Traceback" not in err


# --tol and ABMINK_TOL are read as text, by the rule a config value is read
# by: ASCII, no '_' (float() alone takes 1_0 as 10 and other scripts' digits)
@pytest.mark.parametrize("args, env_tol, source, raw", [
    (["--tol", "1_0"], None, "--tol", "1_0"),
    (["--tol", "１e-3"], None, "--tol", "１e-3"),  # a fullwidth 1
    (["--tol", "١e-3"], "1e-3", "--tol", "١e-3"),  # an Arabic-Indic 1
    (["--tol", "abc"], None, "--tol", "abc"),
    (["--tol", "True"], None, "--tol", "True"),
    (["--format", "json", "--tol", "1_0"], None, "--tol", "1_0"),
    ([], "1_0", "ABMINK_TOL", "1_0"),
    ([], "１e-3", "ABMINK_TOL", "１e-3"),
    (["--format", "json"], "1e-0_3", "ABMINK_TOL", "1e-0_3"),
])
def test_check_rejects_a_python_only_tolerance(args, env_tol, source, raw):
    env = _env_without_tol()
    if env_tol is not None:
        env["ABMINK_TOL"] = env_tol
    proc = run_cli("check", *args, env=env)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.decode() == (
        f"error: {source}: tolerance must be a finite number > 0, got {raw!r}\n")


@pytest.mark.parametrize("args, env_tol", [
    (["--tol", " 1e-3 "], None), (["--tol", "0.001"], "1_0"), ([], "1E-3"), ([], "+.001")])
def test_check_reads_an_ascii_tolerance(args, env_tol):
    env = _env_without_tol()
    if env_tol is not None:
        env["ABMINK_TOL"] = env_tol
    proc = run_cli("check", *args, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == CHECK_STDOUT.replace("1.000e-06", "1.000e-03")


def test_parse_tolerance_takes_a_real_number_or_its_ascii_text():
    import numpy as np

    from abmink.runner import parse_tolerance
    for tol in (1e-3, np.float64(1e-3), "1e-3", "0.001"):
        assert parse_tolerance(tol) == 1e-3
    assert parse_tolerance(2) == 2.0
    for tol in (True, np.True_, "1_0", "１", b"1e-3", None, 10 ** 400, "nan", -1e-3):
        with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
            parse_tolerance(tol)


# Words the parity test builds command lines from: the commands, the flags
# and their choices, spellings only argparse takes, and odd values.
ARGV_WORDS = ["run", "check", "list", "--format", "--out", "--tol", "table", "csv",
              "json", "text", "xml", "-h", "--form", "--format=csv", "-", "--", "",
              "-1", "1e-3", "a b", "report.csv"]


@st.composite
def _argvs(draw):
    """Up to seven of ARGV_WORDS: any words, or a command, its positional and
    (flag, value) pairs with seven in eight words well placed, so that the
    matcher accepts a good share of them."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(ARGV_WORDS), max_size=7))

    def word(good):
        return draw(st.sampled_from(good if draw(st.integers(0, 7)) else ARGV_WORDS))
    command = draw(st.sampled_from(["run", "check", "list"]))
    argv = [command, word(["report.csv", "a b", "", "1e-3"])] if command == "run" else [command]
    for _ in range(draw(st.integers(0, (7 - len(argv)) // 2))):
        argv += [word(["--format", "--out", "--tol"]),
                 word(["table", "csv", "json", "text", "report.csv", "1e-3", "a b", ""])]
    return argv


@settings(max_examples=2000, deadline=None)
@given(_argvs())
def test_a_plainly_spelled_argv_parses_as_argparse_parses_it(argv):
    plain = cli._plain(argv)
    if plain is not None:
        assert vars(plain) == vars(cli._parser().parse_args(argv))


def _namespace(command, **args):
    fn = {"run": cli._cmd_run, "check": cli._cmd_check, "list": cli._cmd_list}[command]
    return {"command": command, **args, "fn": fn}


@pytest.mark.parametrize("argv, parsed", [
    (["list"], _namespace("list")),
    (["check"], _namespace("check", tol=None, format="text")),
    (["check", "--format", "json", "--tol", "1e-3"],
     _namespace("check", tol="1e-3", format="json")),
    (["run", "c.cfg"], _namespace("run", config="c.cfg", format="table", out=None)),
    (["run", "c.cfg", "--out", "r", "--format", "csv"],
     _namespace("run", config="c.cfg", format="csv", out="r")),
    # argparse keeps the last of a repeated option, and so does the matcher
    (["run", "c.cfg", "--format", "csv", "--format", "json"],
     _namespace("run", config="c.cfg", format="json", out=None)),
])
def test_the_matcher_takes_a_plainly_spelled_argv(argv, parsed):
    assert vars(cli._plain(argv)) == parsed == vars(cli._parser().parse_args(argv))


@pytest.mark.parametrize("argv, parsed", [
    (["run", "c.cfg", "--format=csv"], _namespace("run", config="c.cfg", format="csv", out=None)),
    (["run", "c.cfg", "--form", "csv"], _namespace("run", config="c.cfg", format="csv", out=None)),
    (["run", "--format", "csv", "c.cfg"],
     _namespace("run", config="c.cfg", format="csv", out=None)),
    (["run", "-", "--out", "r"], _namespace("run", config="-", format="table", out="r")),
    (["run", "--", "-x"], _namespace("run", config="-x", format="table", out=None)),
    (["check", "--tol", "-1"], _namespace("check", tol="-1", format="text")),
])
def test_argparse_parses_what_the_matcher_declines(argv, parsed):
    assert cli._plain(argv) is None
    assert vars(cli._parser().parse_args(argv)) == parsed


@pytest.mark.parametrize("argv, code, out, err", [
    (["-h"], 0, "usage: abmink [-h] {run,list,check} ...", ""),
    (["run", "-h"], 0, "usage: abmink run [-h]", ""),
    ([], 2, "", "abmink: error: the following arguments are required: command"),
    (["run", "c.cfg", "--format", "xml"], 2, "",
     "abmink run: error: argument --format: invalid choice: 'xml'"),
    (["run", "c.cfg", "--out", "-x"], 2, "",
     "abmink run: error: argument --out: expected one argument"),
    (["list", "--format", "csv"], 2, "", "abmink: error: unrecognized arguments: --format csv"),
])
def test_argparse_answers_help_and_usage_errors(argv, code, out, err, capsys):
    assert cli._plain(argv) is None
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert out in captured.out and err in captured.err
