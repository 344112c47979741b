import math

import numpy as np
import pytest

from bundlelab import operators, series
from bundlelab.blaschke import BlaschkeProduct
from bundlelab.weights import WeightSequence

HARDY = WeightSequence.hardy()
BERGMAN = WeightSequence.bergman(1)


def test_shift_matrix_hardy_superdiagonal():
    S = operators.shift_matrix(HARDY, 3)
    assert np.allclose(S, np.diag(np.ones(2), k=1))


def test_shift_matrix_bergman_entry():
    S = operators.shift_matrix(BERGMAN, 4)
    assert S[0, 1] == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_mult_matrix_examples():
    one = series.poly_series([1], 7)
    assert np.allclose(operators.mult_matrix(one, BERGMAN, 8), np.eye(8))
    z = series.poly_series([0, 1], 7)
    Mh = operators.mult_matrix(z, HARDY, 8)
    assert np.allclose(Mh, np.diag(np.ones(7), k=-1))
    Mb = operators.mult_matrix(z, BERGMAN, 8)
    assert Mb[1, 0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)


def test_calculus_matrix_examples():
    one = series.poly_series([1], 7)
    assert np.allclose(operators.calculus_matrix(one, BERGMAN, 8), np.eye(8))
    z = series.poly_series([0, 1], 7)
    assert np.allclose(
        operators.calculus_matrix(z, HARDY, 8),
        operators.shift_matrix(HARDY, 8),
    )
    h = series.poly_series([2, 1, 1], 7)
    row0 = operators.calculus_matrix(h, HARDY, 8)[0]
    assert np.allclose(row0, [2, 1, 1, 0, 0, 0, 0, 0])


def test_calculus_equals_sum_of_shift_powers():
    h = series.poly_series([2, 1, 1], 11)
    S = operators.shift_matrix(BERGMAN, 12)
    direct = operators.calculus_matrix(h, BERGMAN, 12)
    assert np.allclose(direct, 2 * np.eye(12) + S + S @ S, atol=1e-14)


def test_triangular_support():
    f = series.poly_series([0, 0.3, 0.2], 15)
    M = operators.mult_matrix(f, BERGMAN, 16)
    assert np.max(np.abs(np.triu(M, 0))) == 0.0
    H = operators.calculus_matrix(f, BERGMAN, 16)
    assert np.max(np.abs(np.tril(H, -1))) == 0.0


def test_shift_mult_identity_block():
    for w in (HARDY, BERGMAN, WeightSequence.nln()):
        S = operators.shift_matrix(w, 32)
        M = operators.mult_matrix(series.poly_series([0, 1], 31), w, 32)
        P = S @ M
        assert np.max(np.abs(P[:31, :31] - np.eye(31))) < 1e-14


def test_calculus_multiplicativity_on_block():
    h1 = series.poly_series([1, 0.3, -0.2], 63)
    h2 = series.poly_series([0.5, 0, 0.2], 63)
    A = operators.calculus_matrix(h1, BERGMAN, 64)
    B = operators.calculus_matrix(h2, BERGMAN, 64)
    C = operators.calculus_matrix(series.multiply(h1, h2), BERGMAN, 64)
    assert np.max(np.abs((A @ B)[:56, :56] - C[:56, :56])) < 1e-13


def test_commutant_transport_all_presets():
    for w in (HARDY, BERGMAN, WeightSequence.polygrowth(2), WeightSequence.nln()):
        assert operators.commutant_transport_check(w, 64) < 1e-12


def test_left_inverse_exact_for_z():
    rep = operators.left_inverse_check(BlaschkeProduct((0,), np.pi), HARDY, 64, tailpad=2)
    assert rep.max_dev_block < 1e-14


def test_left_inverse_truncation_tail():
    rep = operators.left_inverse_check(BlaschkeProduct((0, 0.5)), HARDY, 256)
    assert rep.block == 256 - 2 * 2 * 14
    assert rep.max_dev_block < 1e-10
    rep2 = operators.left_inverse_check(BlaschkeProduct((0.3,)), BERGMAN, 256)
    assert rep2.max_dev_block < 1e-10


def test_moebius_left_inverse_property():
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = 0.3 * rng.uniform(0.1, 1) * np.exp(2j * np.pi * rng.uniform())
        rep = operators.left_inverse_check(BlaschkeProduct((a,)), HARDY, 256)
        assert rep.max_dev_block < 1e-10


def test_csv_dump(tmp_path):
    M = np.array([[1 + 2j, 0], [0.5, -1j]])
    path = tmp_path / "m.csv"
    operators.dump_matrix_csv(M, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0].split(",") == ["1", "2", "0", "0"]
    assert rows[1].split(",") == ["0.5", "0", "-0", "-1"]


def test_entries_must_be_finite():
    # beta_3 / beta_0 = 1e900 overflows
    huge = WeightSequence.explicit([1e300] * 4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="operator entries"):
        operators.mult_matrix(series.poly_series([1], 3), huge, 4)
