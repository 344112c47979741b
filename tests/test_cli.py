import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlelab import cli, frames, schemas
from bundlelab.errors import ConfigError


def _run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main(argv)


def _load(out_dir):
    with open(out_dir / "result.json", encoding="utf-8") as fh:
        return json.load(fh)


def _validate(envelope):
    jsonschema.validate(envelope, schemas.ENVELOPE)
    jsonschema.validate(envelope["result"], schemas.BY_COMMAND[envelope["command"]])


def test_weights_classify(tmp_path, capsys):
    code = _run(["weights-classify", "--weights", "bergman:alpha=1",
                 "--probe", "1000", "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["classification"] == "polynomial"
    assert "polynomial" in capsys.readouterr().out


def test_gram_csv(tmp_path):
    code = _run(["gram", "--weights", "hardy", "--blaschke", "blaschke(0;0,0.5)",
                 "--n-max", "6", "--trunc", "64", "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    rows = (tmp_path / "gram.csv").read_text().strip().split("\n")
    assert len(rows) == 14  # (n_max+1)*order rows
    assert env["result"]["hermitian_dev"] < 1e-12


@pytest.mark.parametrize("blaschke,laid_out", [
    ("blaschke(0; 0.2+0.1i, 0.3)", True),
    ("blaschke(0; 0, 0.5)", False),
])
def test_riesz_and_gram_report_the_frame_conjugator(tmp_path, blaschke, laid_out):
    for cmd in ("riesz", "gram"):
        out = tmp_path / cmd
        assert _run([cmd, "--weights", "bergman:alpha=1", "--blaschke", blaschke,
                     "--n-max", "20", "--trunc", "128", "--csv", "no", "--out", str(out)]) == 0
        env = _load(out)
        _validate(env)
        z = env["result"]["conjugator"]
        if laid_out:
            assert complex(*z) in (0.2 + 0.1j, 0.3)
        else:
            assert z is None


def test_riesz_command(tmp_path):
    code = _run(["riesz", "--weights", "bergman:alpha=1",
                 "--blaschke", "blaschke(0;0,0.5)", "--n-max", "50",
                 "--trunc", "256", "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["verdict"] == "Riesz-consistent"


def test_riesz_from_a_frame_that_cannot_hold_its_columns_is_inconclusive(tmp_path):
    # c1 falls from 5.1e-33 to 3.8e-37 beside c2 3.3, at roundoff, on rungs
    # whose beta-tail is above the bar: the truncation, not the weights, made it fall
    code = _run(["riesz", "--weights", "bergman:alpha=1",
                 "--blaschke", "blaschke(0; 0, 0.9)", "--n-max", "50",
                 "--trunc", "256", "--out", str(tmp_path)])
    assert code == 2
    result = _load(tmp_path)["result"]
    assert result["tail"] > frames.TAIL_BAR
    assert result["verdict"] == "inconclusive"


def test_douglas_accepts_a_riesz_ladder_that_drifts_like_one_over_n(tmp_path):
    # c2 goes 9.52, 10.73, 11.38, 11.70 from n_max 50: each step about half the
    # one before, a bounded ladder on its way to about 12.0
    code = _run(["douglas", "--weights", "bergman:alpha=1", "--blaschke", "blaschke(0; 0.5)",
                 "--n-max", "50", "--out", str(tmp_path)])
    env = _load(tmp_path)
    _validate(env)
    assert code == 0 and env["result"]["accepted"] is True
    assert env["result"]["riesz"]["stability"]["trend"] == {"c1": "converging", "c2": "converging"}


@pytest.mark.parametrize("argv, code, verdict", [
    (["riesz", "--weights", "reciprocal:nln", "--blaschke", "blaschke(0; 0.5)",
      "--n-max", "60", "--trunc", "384"], 1, lambda r: r["verdict"] == "degenerating"),
    (["kaplansky", "--weights", "nln", "--f1", "compose(poly(0,1,0,2),blaschke(0;0,0.4))",
      "--f2", "compose(poly(0,1,0,2),blaschke(0;0.2,-0.5))"], 2,
     lambda r: r["single"]["status"] == "inconclusive" and r["consistent"] is True),
])
def test_the_exit_code_follows_the_verdict(tmp_path, argv, code, verdict):
    assert _run(argv + ["--out", str(tmp_path)]) == code
    env = _load(tmp_path)
    _validate(env)
    assert verdict(env["result"])


def test_index_map_outputs(tmp_path):
    code = _run(["index-map", "--fn", "poly(2,1,1)", "--bounds", "-1,5,-3,3",
                 "--res", "120", "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["index_values"] == [0, 1, 2]
    svg = (tmp_path / "map.svg").read_text()
    assert svg.startswith("<svg") and "#d62728" in svg and "#ffdf00" in svg
    grid = json.loads((tmp_path / "grid.json").read_text())
    assert grid["resolution"] == 120
    assert len(grid["grid"]) == 120


def test_cli_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = _run(["index-map", "--fn", "poly(0,0,1)", "--bounds", "-2,2,-2,2",
                     "--res", "64", "--out", str(out)])
        assert code == 0
    assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
    assert (a / "map.svg").read_bytes() == (b / "map.svg").read_bytes()
    assert (a / "grid.json").read_bytes() == (b / "grid.json").read_bytes()


def test_similar_exit_codes(tmp_path):
    code = _run([
        "similar", "--weights", "bergman:alpha=1",
        "--f1", "compose(poly(0,1,0,2),blaschke(0;0,0.4))",
        "--f2", "compose(poly(0,1,0,2),blaschke(0;0.2,-0.5))",
        "--out", str(tmp_path),
    ])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["status"] == "similar"
    code2 = _run([
        "similar", "--weights", "bergman:alpha=1",
        "--f1", "compose(poly(0,1,0,2),blaschke(0;0,0.4))",
        "--f2", "compose(poly(0,1,0,2),blaschke(0;0.2,-0.5,0.1))",
        "--out", str(tmp_path),
    ])
    assert code2 == 1


@pytest.mark.parametrize("wid", ["nln", "reciprocal:nln"])
def test_similar_takes_no_certificate_on_intermediate_growth(tmp_path, wid):
    # similar takes no Riesz report, so only the weights' growth class can
    # vouch for a frame; here the certificates' cond is 1e6 and beyond
    code = _run([
        "similar", "--weights", wid,
        "--f1", "compose(poly(0,1,0,2),blaschke(0;0,0.4))",
        "--f2", "compose(poly(0,1,0,2),blaschke(0;0.2,-0.5))",
        "--out", str(tmp_path),
    ])
    env = _load(tmp_path)
    _validate(env)
    assert code == 2, env["result"]
    assert "intermediate growth" in env["result"]["reason"]


def test_decompose_command(tmp_path):
    code = _run(["decompose", "--fn", "compose(poly(0,1,0,2),blaschke(0;0,0.4))",
                 "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["m"] == 2


def test_parameters_echo_the_parsed_function_text(tmp_path):
    assert _run(["decompose", "--out", str(tmp_path / "fn")]) == 0
    assert _load(tmp_path / "fn")["parameters"] == {"fn": "poly(0,1,0,2)"}
    assert _run(["gram", "--weights", "hardy", "--n-max", "2", "--trunc", "16",
                 "--csv", "no", "--out", str(tmp_path / "gram")]) == 0
    assert _load(tmp_path / "gram")["parameters"]["blaschke"] == "blaschke(0; 0, 0.5)"
    assert _run(["similar", "--weights", "hardy", "--f2", "poly(0,0,2)", "--trunc", "64",
                 "--out", str(tmp_path / "similar")]) in (0, 1, 2)
    params = _load(tmp_path / "similar")["parameters"]
    assert (params["f1"], params["f2"]) == ("poly(0,0,1)", "poly(0,0,2)")
    assert _run(["index-map", "--fn", "blaschke(0; 0.5)", "--bounds", "-1,5,-3,3",
                 "--res", "8", "--out", str(tmp_path / "map")]) == 0
    params = _load(tmp_path / "map")["parameters"]
    assert params == {"fn": "blaschke(0; 0.5)", "bounds": [-1.0, 5.0, -3.0, 3.0], "res": 8}
    assert _run(["weights-classify", "--weights", "bergman:alpha=1.0", "--probe", "0800",
                 "--out", str(tmp_path / "weights")]) == 0
    params = _load(tmp_path / "weights")["parameters"]
    assert params == {"weights": "bergman:alpha=1", "probe": 800}
    assert type(params["probe"]) is int


# f o phi_0.96: the base fiber of f o phi has a point at 0.998, and f o phi
# is similar to f by construction
NEAR_CIRCLE_F = "compose(poly(0,1,0,2),blaschke(0;0,0.4))"
NEAR_CIRCLE_F_PHI = f"compose({NEAR_CIRCLE_F},moebius(0;0.96))"


def test_fiber_near_the_circle_is_decomposed(tmp_path):
    assert _run(["decompose", "--fn", NEAR_CIRCLE_F_PHI, "--out", str(tmp_path)]) == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["m"] == 2 and env["result"]["residual"] < 1e-8


@pytest.fixture(scope="module")
def near_circle_similar(tmp_path_factory):
    """(exit code, result envelope) of similar on f o phi_0.96 and f, run once."""
    out = tmp_path_factory.mktemp("near-circle")
    code = _run(["similar", "--weights", "bergman:alpha=1", "--f1", NEAR_CIRCLE_F_PHI,
                 "--f2", NEAR_CIRCLE_F, "--out", str(out)])
    return code, _load(out)


@pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="the Douglas frame of the inner factor with zeros 0 and 0.998 "
           "does not hold its columns by its K cap 4096, so the verdict is inconclusive",
)
def test_similar_pair_with_a_fiber_near_the_circle_is_similar(near_circle_similar):
    code, env = near_circle_similar
    _validate(env)
    if env["result"]["status"] == "not_similar":
        pytest.fail("a pair similar by construction is certified not similar")
    assert code == 0 and env["result"]["status"] == "similar"


def test_near_circle_verdict_names_the_frame_that_does_not_hold_its_columns(near_circle_similar):
    code, env = near_circle_similar
    result = env["result"]
    cert = result["evidence"]["certificate1"]
    assert code == 2 and result["status"] == "inconclusive"
    assert cert["K"] == 4096 and cert["tail"] >= frames.TAIL_BAR
    assert result["reason"] == ("certificate1 failed (the frame does not hold its columns at "
                                f"K 4096: tail {cert['tail']:.3g} is not below 1e-8)")


def test_jordan_exits_1_on_a_certificate_refused_for_its_tail(tmp_path):
    code = _run(["jordan", "--weights", "bergman:alpha=1", "--fn", NEAR_CIRCLE_F_PHI,
                 "--out", str(tmp_path)])
    env = _load(tmp_path)
    _validate(env)
    cert = env["result"]["certificate"]
    assert code == 1 and cert["accepted"] is False
    assert cert["K"] == 4096 and cert["tail"] >= frames.TAIL_BAR and cert["riesz"] is None


def test_jordan_command(tmp_path):
    code = _run(["jordan", "--weights", "bergman:alpha=1",
                 "--fn", "compose(poly(0,1,0,2),blaschke(0;0,0.4))",
                 "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["m"] == 2
    cert = env["result"]["certificate"]
    assert cert["accepted"] is True
    # K 512 holds its columns
    assert cert["tail"] < frames.TAIL_BAR


def test_douglas_command(tmp_path):
    code = _run(["douglas", "--weights", "bergman:alpha=1",
                 "--blaschke", "blaschke(0;0,0.5)", "--trunc", "256",
                 "--n-max", "40", "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["accepted"] is True
    assert env["result"]["tail"] < frames.TAIL_BAR


def test_kaplansky_command(tmp_path):
    code = _run([
        "kaplansky", "--weights", "bergman:alpha=1",
        "--f1", "poly(0,0,1)", "--f2", "compose(poly(0,0,1),moebius(0;0.3))",
        "--out", str(tmp_path),
    ])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["consistent"] is True


def test_counterexample_command(tmp_path):
    code = _run(["counterexample", "--weights", "reciprocal:nln", "--t", "0.5",
                 "--n-max", "120", "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["verdict"] == "no bounded similarity at probed scales"
    profile = (tmp_path / "profile.csv").read_text().strip().split("\n")
    assert profile[0] == "n,r_n"
    assert len(profile) == 122


def test_counterexample_summary_names_an_unresolved_rung(tmp_path, capsys):
    code = _run(["counterexample", "--weights", "hardy", "--t", "0.9",
                 "--n-max", "200", "--csv", "no", "--out", str(tmp_path)])
    assert code == 2
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["verdict"] == "inconclusive"
    assert env["result"]["reason"] == "rung n_max 25, K 512: tail 0.186 >= 1e-08"
    assert "inconclusive (rung n_max 25, K 512: tail 0.186 >= 1e-08; cond" in capsys.readouterr().out


def test_equivalent_command(tmp_path):
    code = _run(["equivalent", "--weights", "bergman:alpha=1",
                 "--weights2", "reciprocal:polygrowth:M=1", "--probe", "20000",
                 "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["equivalent"] is True


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[run]\ncommand = weights-classify\nweights = nln\nprobe = 500\n"
    )
    code = _run(["--config", str(cfg), "--probe", "800", "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    assert env["parameters"]["probe"] == 800
    assert env["result"]["classification"] == "intermediate"


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("command = riesz\nfrobnicate = 7\n")
    with pytest.raises(ConfigError) as err:
        cli.parse_config_file(cfg)
    assert err.value.line == 2
    assert err.value.column == 1


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("command = riesz\nfrobnicate = 7\n")
    assert _run(["--config", str(cfg)]) == 64
    assert _run(["similar", "--f1", "poly(", "--out", str(tmp_path)]) == 64


def test_config_file_values_are_checked_like_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = gram\ncsv = maybe\nout = {tmp_path / 'out'}\n")
    assert _run(["--config", str(cfg)]) == 64
    assert _run(["gram", "--csv", "maybe", "--out", str(tmp_path / "out")]) == 64
    assert not (tmp_path / "out").exists()  # neither result.json nor error.json


def test_computation_error_exit_code(tmp_path):
    # base point pinned onto a branch value: the pipeline must report 70
    code = _run(["decompose", "--fn", "poly(2,1,1)", "--out", str(tmp_path)])
    assert code == 0  # sane default base point works
    code2 = _run(["riesz", "--weights", "hardy",
                  "--blaschke", "blaschke(0;0.3,0.3)", "--out", str(tmp_path)])
    assert code2 == 70  # repeated zeros are rejected by the frame builder
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "DomainError"


def test_main_calls_share_one_parser(tmp_path, monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    for k in range(2):
        assert _run(["weights-classify", "--weights", "hardy", "--probe", "100",
                     "--out", str(tmp_path / str(k))]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_a_bad_flag_after_a_good_call_exits_64_with_usage(tmp_path, capsys):
    assert _run(["weights-classify", "--weights", "hardy", "--probe", "100",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _run(["riesz", "--frobnicate", "7", "--out", str(tmp_path)]) == 64
    assert capsys.readouterr().err.startswith("usage: bundle-lab")


def test_missing_command(tmp_path):
    assert _run(["--out", str(tmp_path)]) == 64


def test_svg_minimal_grid(tmp_path):
    from bundlelab.geometry import IndexMap
    from bundlelab.svgout import emit_svg, render_svg

    imap = IndexMap(
        bounds=(0.0, 1.0, 0.0, 1.0),
        resolution=1,
        grid=np.zeros((1, 1), dtype=np.int16),
        curve=np.array([0.5 + 0.5j, 0.6 + 0.5j, 0.5 + 0.6j]),
        branch_points=[],
    )
    text = render_svg(imap)
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    path = tmp_path / "tiny.svg"
    emit_svg(imap, path)
    assert path.read_text() == text


def test_result_json_keys_sorted(tmp_path):
    _run(["weights-classify", "--weights", "hardy", "--probe", "100",
          "--out", str(tmp_path)])
    text = (tmp_path / "result.json").read_text()
    assert text.index('"command"') < text.index('"parameters"') < text.index('"result"')


_BAD_CONFIG = (
    "command = riesz\nweights = hardy\nblaschke = blaschke(0; 0.3, 0.3)\nout = cfgout\n"
)


@pytest.mark.parametrize("argv, code", [
    (["index-map", "--res", "0"], 64),
    (["counterexample", "--n-max", "1"], 64),
    (["riesz", "--n-max", "abc"], 64),
    (["gram", "--trunc", "4"], 64),
    (["riesz", "--blaschke", "blaschke(0; 1.5)"], 64),
    (["--config", "run.cfg"], 70),  # repeated zeros: a computation error
    (["weights-classify", "--weights", "bergman:alpha=-1"], 64),
    (["index-map", "--bounds", "1,0,0,1"], 64),
    (["riesz", "--frobnicate", "1"], 64),
    (["--config", "missing.cfg"], 64),
    (["gram", "--n-max", "--", "--out", "o"], 64),  # argparse hands int() a list
    (["douglas", "--n-max", "0"], 64),  # no interior column to check
])
def test_bad_invocations_keep_exit_code_contract(tmp_path, argv, code):
    (tmp_path / "run.cfg").write_text(_BAD_CONFIG)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-m", "bundlelab.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "error.json").exists()
    assert (tmp_path / "cfgout" / "error.json").exists() == (code == 70)


@pytest.mark.parametrize("argv, where", [
    (["weights-classify", "--weights", "bergman:alpha=nan"], "for weights"),
    (["weights-classify", "--weights", "polygrowth:M=inf"], "for weights"),
    (["weights-classify", "--weights", "bergman:alpha=1e308"], "for weights"),  # 2*alpha overflows
    (["riesz", "--blaschke", "blaschke(1e999; 0, 0.5)"], "line 1, column 10"),
    (["decompose", "--fn", "poly(0,1e999,1)"], "line 1, column 8"),
])
def test_non_finite_numbers_are_configuration_errors(tmp_path, capsys, argv, where):
    assert _run(argv + ["--out", str(tmp_path)]) == 64
    assert where in capsys.readouterr().err
    assert not (tmp_path / "result.json").exists()


def test_cli_import_leaves_out_scipy_signal_and_stats():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, bundlelab.cli; print('\\n'.join(m for m in sys.modules "
            "if m.startswith(('scipy.signal', 'scipy.stats'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _count(low, high):
    """Option text: an integer in [low, high], or text that is no usable integer."""
    junk = st.sampled_from(["", "abc", "1e3", "2.5", "nan", "inf", "0x10", "--", "3 4"])
    number = st.integers(low, high).map(str)
    return st.one_of(number, number, number, junk)  # mostly numbers, so runs reach the backends


_BLASCHKE_TEXT = st.builds(
    "blaschke({}; {})".format,
    st.integers(-3, 3),
    st.lists(st.sampled_from(["0", "0.5", "-0.3i", "0.2+0.1i", "1", "0.9999", "1e999"]),
             min_size=1, max_size=3).map(",".join),
)
_FN_TEXT = st.one_of(
    st.text(alphabet="polyblaschkecomposemoebiusstar(),;0123456789.+-iz ", max_size=40),
    _BLASCHKE_TEXT,
    st.sampled_from([
        "poly(2,1,1)", "poly()", "poly(0)", "poly(1,2", "blaschke(0; 1.5)",
        "blaschke(0; 0.3, 0.3)", "compose(poly(0,1,0,2), blaschke(0; 0, 0.4))",
        "moebius(2)", "star(poly(1,1j))", "sum(poly(1), )", "scale(2; poly(0,1))",
    ]),
)
_WEIGHTS = st.sampled_from([  # valid ids outnumber bad ones
    "hardy", "bergman:alpha=1", "polygrowth:M=2", "nln", "reciprocal:nln",
    "hardy", "bergman:alpha=1", "bergman:alpha=-1", "explicit:path=missing.csv", "bogus", "",
    "bergman:alpha=nan", "polygrowth:M=inf",
])


@st.composite
def _cheap_invocations(draw):
    """gram/riesz/index-map/counterexample with fuzzed option text, kept small."""
    command = draw(st.sampled_from(["gram", "riesz", "index-map", "counterexample"]))
    argv = [command]
    if command in ("gram", "riesz"):
        argv += ["--n-max", draw(_count(-3, 20)), "--trunc", draw(_count(-2, 96))]
        argv += ["--weights", draw(_WEIGHTS)]
        if draw(st.booleans()):
            argv += ["--blaschke", draw(st.one_of(_BLASCHKE_TEXT, _FN_TEXT))]
    elif command == "index-map":
        argv += ["--res", draw(_count(-2, 16)), "--fn", draw(_FN_TEXT)]
        if draw(st.booleans()):
            argv += ["--bounds", draw(st.sampled_from(
                ["-1,5,-3,3", "1,0,0,1", "a,b", "0,1,0,1", "-2,2,-2,2,", "nan,1,0,1"]))]
    else:
        argv += ["--n-max", draw(_count(-1, 20)), "--weights", draw(_WEIGHTS)]
        argv += ["--t", draw(st.sampled_from(["0.5", "0", "1", "-0.2", "0.99", "nan", "x"]))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_cheap_invocations())
def test_fuzzed_options_keep_exit_code_contract(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = _run(argv + ["--out", out])
    assert code in (0, 1, 2, 64, 70), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def _json_dump_text(payload):
    fh = io.StringIO()
    json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
    fh.write("\n")
    return fh.getvalue()


@pytest.mark.parametrize("grid, bounds", [
    ([[-1]], (-1.0, 5.0, -3.0, 3.0)),
    ([[7]], (0.0, 1.0, 0.0, 1.0)),
    ([[0, -1, 12], [3, 3, 105], [-1, 0, 7]], (-1.0, 5.0, -0.5, 0.25)),
    ([[-1, -1], [-1, -1]], (10.0, 11.0, -1e-9, 1e-9)),
    (np.random.default_rng(3).integers(-1, 13, (40, 40)).tolist(), (-3.5, 3.5, -3.5, 3.5)),
])
def test_grid_json_is_json_dump(tmp_path, grid, bounds):
    payload = {"bounds": list(bounds), "resolution": len(grid)}
    path = cli._write_json(tmp_path, "grid.json", {**payload, "grid": np.array(grid, dtype=np.int16)})
    assert Path(path).read_text(encoding="utf-8") == _json_dump_text({**payload, "grid": grid})


def test_write_json_is_json_dump_for_nested_values(tmp_path):
    payload = {
        "z": {"b": [1, 2.5, None, True], "a": {"s": "line\nbreak, é–\"q\""}},
        "a": [], "m": {}, "n": -0.0, "k": [[1, [2, {"x": "y"}]], 1e-300],
        "command": "index-map",
    }
    path = cli._write_json(tmp_path, "result.json", payload)
    assert Path(path).read_text(encoding="utf-8") == _json_dump_text(payload)


def _per_cell_svg(imap):
    """render_svg as written with one int() per grid cell, for comparison."""
    from bundlelab.svgout import _color, _f

    width = 720
    re_min, re_max, im_min, im_max = imap.bounds
    span_x = re_max - re_min
    span_y = im_max - im_min
    height = width * span_y / span_x
    sx = width / span_x
    sy = height / span_y

    def to_px(x, y):
        return (x - re_min) * sx, (im_max - y) * sy

    res = imap.resolution
    cell_w = span_x / res
    cell_h = span_y / res
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">',
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="#ffffff"/>',
    ]
    grid = imap.grid
    for i in range(res):
        y_lo = im_min + i * cell_h
        j = 0
        while j < res:
            v = int(grid[i, j])
            j2 = j
            while j2 + 1 < res and int(grid[i, j2 + 1]) == v:
                j2 += 1
            if v != 0:
                x0, ypx = to_px(re_min + j * cell_w, y_lo + cell_h)
                wpx = (j2 - j + 1) * cell_w * sx
                hpx = cell_h * sy
                parts.append(
                    f'<rect x="{_f(x0)}" y="{_f(ypx)}" width="{_f(wpx)}" '
                    f'height="{_f(hpx)}" fill="{_color(v)}"/>'
                )
            j = j2 + 1
    pts = np.concatenate([imap.curve, imap.curve[:1]])
    coords = " ".join(
        f"{_f(px)},{_f(py)}" for px, py in (to_px(p.real, p.imag) for p in pts)
    )
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#000000" '
        f'stroke-width="{_f(0.002 * width)}"/>'
    )
    for b in imap.branch_points:
        px, py = to_px(b.real, b.imag)
        parts.append(
            f'<circle cx="{_f(px)}" cy="{_f(py)}" r="{_f(0.006 * width)}" '
            f'fill="none" stroke="#000000" stroke-width="{_f(0.0015 * width)}"/>'
        )
    values = sorted(set(int(v) for v in np.unique(grid)))
    box = 0.022 * width
    for row, v in enumerate(values):
        y = 0.02 * width + row * 1.4 * box
        label = "band" if v < 0 else f"index {v}"
        parts.append(
            f'<rect x="{_f(0.02 * width)}" y="{_f(y)}" width="{_f(box)}" '
            f'height="{_f(box)}" fill="{_color(v)}" stroke="#000000" '
            f'stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_f(0.02 * width + 1.3 * box)}" y="{_f(y + 0.8 * box)}" '
            f'font-family="monospace" font-size="{_f(0.8 * box)}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("grid, bounds", [
    # single-cell runs, a row of zeros, runs that reach the last column, 3..9
    ([[1, 2, 1, 2, 3, 4],
      [0, 0, 0, 0, 0, 0],
      [5, 5, 6, 7, 8, 9],
      [-1, -1, 0, 0, 9, 9],
      [4, 4, 4, 4, 4, 4],
      [0, 3, 0, -1, 0, 2]], (-1.0, 5.0, -3.0, 3.0)),
    ([[9]], (0.25, 1.75, -0.1, 0.05)),
    (np.repeat(np.random.default_rng(4).integers(-1, 10, (30, 10)), 3, axis=1).tolist(),
     (-3.5, 3.5, -0.7, 1.3)),
])
def test_render_svg_matches_the_per_cell_rendering(grid, bounds):
    from bundlelab.geometry import IndexMap
    from bundlelab.svgout import render_svg

    t = np.linspace(0.0, 2.0 * np.pi, 97, endpoint=False)
    re_min, re_max, im_min, im_max = bounds
    curve = (0.5 * (re_min + re_max) + 0.3 * (re_max - re_min) * np.cos(t)
             + 1j * (0.5 * (im_min + im_max) + 0.3 * (im_max - im_min) * np.sin(3 * t)))
    imap = IndexMap(bounds, len(grid), np.array(grid, dtype=np.int16), curve,
                    [0.1 + 0.2j, complex(re_max, im_min)])
    assert render_svg(imap) == _per_cell_svg(imap)
