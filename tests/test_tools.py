import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def digest(monkeypatch):
    # the module pins BLAS threads in os.environ on import; keep that local
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _values(tmp_path, name, code, c1):
    path = tmp_path / name
    path.write_text(
        f"aa {code} similar --fn f -> result.json\n"
        f"  c00 c1 {c1!r}\n"
        "bb 0 riesz --fn g -> result.json\n"
        "  c01 c2 2.0\n"
    )
    return path


def test_compare_tables_the_values_when_an_exit_code_moves(digest, tmp_path, capsys):
    parent, change = _values(tmp_path, "p.txt", 0, 1.0), _values(tmp_path, "c.txt", 2, 1.5)
    assert digest.compare(parent, change) == 1
    out = capsys.readouterr().out
    assert "similar --fn f  exit 0 -> 2" in out and "riesz --fn g  exit" not in out
    assert "outputs differ" not in out
    assert "c1  max abs 0.5  max rel 0.5" in out


def test_compare_passes_value_moves_alone(digest, tmp_path, capsys):
    parent, change = _values(tmp_path, "p.txt", 0, 1.0), _values(tmp_path, "c.txt", 0, 1.0 + 1e-15)
    assert digest.compare(parent, change) == 0
    assert "exit codes moved" not in capsys.readouterr().out


def test_compare_lists_moved_strings_without_failing(digest, tmp_path, capsys):
    def values(name, verdict, trend):
        path = tmp_path / name
        path.write_text(
            "aa 0 riesz --fn f -> result.json\n"
            f"  c00 result.verdict {verdict}\n"
            "  c00 result.accepted true\n"
            f"  c00 result.trend[0] {trend}\n"
            f"  c00 result.trend[1] {trend}\n"
            "  c00 c1 1.0\n"
        )
        return path

    parent = values("p.txt", '"similar"', '"open"')
    change = values("c.txt", '"similar"', '"converging"')
    assert digest.compare(parent, change) == 0
    out = capsys.readouterr().out
    assert "4 strings and booleans; 1 path names moved" in out
    assert 'result.trend[]  2 moved, e.g. c00 "open" -> "converging"' in out
    assert "1 values; 0 value path names moved" in out


def test_values_print_every_leaf(digest):
    leaves = dict(digest.leaves({"a": [1, None], "b": {"ok": True, "why": "a b"}}))
    assert leaves == {"a[0]": "1", "a[1]": "nan", "b.ok": "true", "b.why": '"a b"'}
