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


def test_riesz_command(tmp_path):
    code = _run(["riesz", "--weights", "bergman:alpha=1",
                 "--blaschke", "blaschke(0;0,0.5)", "--n-max", "50",
                 "--trunc", "256", "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["verdict"] == "Riesz-consistent"


def test_riesz_from_a_frame_that_cannot_hold_its_columns_is_inconclusive(tmp_path):
    # c1 collapses from 6.6e-20 to 7.7e-33 on a rung whose beta-tail is 0.107:
    # the truncation, not the weights, made it fall
    code = _run(["riesz", "--weights", "bergman:alpha=1",
                 "--blaschke", "blaschke(0; 0.4,-0.2,0.3i)", "--n-max", "50",
                 "--trunc", "256", "--out", str(tmp_path)])
    assert code == 0
    result = _load(tmp_path)["result"]
    assert result["tail"] > frames.TAIL_BAR
    assert result["verdict"] == "inconclusive"


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


# f o phi_0.96: the base fiber of f o phi has a point at 0.998, and f o phi
# is similar to f by construction
NEAR_CIRCLE_F = "compose(poly(0,1,0,2),blaschke(0;0,0.4))"
NEAR_CIRCLE_F_PHI = f"compose({NEAR_CIRCLE_F},moebius(0;0.96))"


def test_fiber_near_the_circle_is_decomposed(tmp_path):
    assert _run(["decompose", "--fn", NEAR_CIRCLE_F_PHI, "--out", str(tmp_path)]) == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["m"] == 2 and env["result"]["residual"] < 1e-8


@pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="the Douglas certificate of the inner factor with zeros 0 and 0.998 "
           "does not stabilize by its K cap 2048, so the verdict is inconclusive",
)
def test_similar_pair_with_a_fiber_near_the_circle_is_similar(tmp_path):
    code = _run(["similar", "--weights", "bergman:alpha=1", "--f1", NEAR_CIRCLE_F_PHI,
                 "--f2", NEAR_CIRCLE_F, "--out", str(tmp_path)])
    env = _load(tmp_path)
    _validate(env)
    if env["result"]["status"] == "not_similar":
        pytest.fail("a pair similar by construction is certified not similar")
    assert code == 0 and env["result"]["status"] == "similar"


def test_jordan_command(tmp_path):
    code = _run(["jordan", "--weights", "bergman:alpha=1",
                 "--fn", "compose(poly(0,1,0,2),blaschke(0;0,0.4))",
                 "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["m"] == 2
    assert env["result"]["certificate"]["accepted"] is True


def test_douglas_command(tmp_path):
    code = _run(["douglas", "--weights", "bergman:alpha=1",
                 "--blaschke", "blaschke(0;0,0.5)", "--trunc", "256",
                 "--n-max", "40", "--out", str(tmp_path)])
    assert code == 0
    env = _load(tmp_path)
    _validate(env)
    assert env["result"]["accepted"] is True


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


def test_computation_error_exit_code(tmp_path):
    # base point pinned onto a branch value: the pipeline must report 70
    code = _run(["decompose", "--fn", "poly(2,1,1)", "--out", str(tmp_path)])
    assert code == 0  # sane default base point works
    code2 = _run(["riesz", "--weights", "hardy",
                  "--blaschke", "blaschke(0;0.3,0.3)", "--out", str(tmp_path)])
    assert code2 == 70  # repeated zeros are rejected by the frame builder
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["error"] == "DomainError"


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
    st.lists(st.sampled_from(["0", "0.5", "-0.3i", "0.2+0.1i", "1", "0.9999"]),
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
