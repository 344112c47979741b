import math

import numpy as np
import pytest

from bundlelab.errors import ConfigError, TruncationRangeError
from bundlelab.weights import (
    WeightSequence,
    equivalent,
    growth_classify,
    parse_weight_id,
)


def test_beta_hardy_trivial():
    assert WeightSequence.hardy().betas(7)[7] == 1.0


def test_beta_bergman_first_weight():
    # direct product of w_j = sqrt((j+1)/(j+2a+1)) at a=1, k=1
    assert WeightSequence.bergman(1).betas(1)[1] == pytest.approx(
        math.sqrt(2.0 / 4.0), rel=1e-14
    )


def test_beta_nln_first_weight():
    expected = 1.5 * math.exp(math.log(4.0) ** 2 - math.log(3.0) ** 2)
    assert WeightSequence.nln().betas(1)[1] == pytest.approx(expected, rel=1e-13)


def test_beta_multiplicative_per_step():
    # one unit of relative rounding per step accumulates to <= k ulps at index k
    eps = np.finfo(float).eps
    ks = np.arange(1, 3001)
    for w in (WeightSequence.bergman(2), WeightSequence.nln()):
        betas = w.betas(3000)
        ratios = betas[1:] / betas[:-1]
        rel = np.abs(ratios / w.weights(3000) - 1.0)
        assert np.all(rel <= (ks + 4) * eps)


def test_beta_log_space_survives_large_indices():
    # intermediate growth exceeds any polynomial but must stay representable
    w = WeightSequence.nln()
    big = w.betas(200_000)[200_000]
    assert np.isfinite(big) and big > 1e60
    assert np.isfinite(w.dual().betas(200_000)[200_000])


def test_explicit_list_validation_and_exhaustion():
    w = WeightSequence.explicit([2.0, 0.5, 1.25])
    assert w.betas(3)[3] == pytest.approx(2.0 * 0.5 * 1.25)
    with pytest.raises(TruncationRangeError):
        w.betas(4)
    with pytest.raises(ValueError):
        WeightSequence.explicit([1.0, -0.5])


def test_growth_classify_hardy():
    rep = growth_classify(WeightSequence.hardy(), 1000)
    assert rep.sup_val == 0.0
    assert rep.classification == "polynomial"
    assert rep.certified


def test_growth_classify_bergman_sup_approaches_alpha():
    rep = growth_classify(WeightSequence.bergman(2), 10**5)
    assert rep.classification == "polynomial"
    assert rep.sup_val < 2.0
    assert rep.sup_val == pytest.approx(2.0, rel=1e-2)


def test_growth_classify_nln_intermediate():
    w = WeightSequence.nln()
    rep = growth_classify(w, 10**4)
    assert rep.classification == "intermediate"
    assert rep.certified
    k = 10**4
    probe = (k + 1) * (w.weights(k)[k - 1] - 1.0)
    # the probe tracks log(k+3) + log(k+2) + 1
    assert probe == pytest.approx(math.log(k + 3) + math.log(k + 2) + 1.0, rel=2e-3)
    assert rep.tail_trend > 1.0


def test_growth_classify_explicit_undetermined():
    rep = growth_classify(WeightSequence.explicit([1.0] * 64), 20)
    assert rep.classification == "empirical-undetermined"
    assert not rep.certified


def test_growth_probe_requires_min_horizon():
    with pytest.raises(ValueError):
        growth_classify(WeightSequence.hardy(), 5)


def test_dual_weights_examples():
    assert WeightSequence.hardy().dual().weights(5)[4] == 1.0
    d = WeightSequence.bergman(1).dual()
    assert d.weights(1)[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_dual_weights_involution():
    w = WeightSequence.bergman(1.5)
    back = w.dual().dual()
    assert back is w  # reciprocal of reciprocal returns the base object


def test_polygrowth_envelope():
    M = 2.0
    w = WeightSequence.polygrowth(M)
    k = np.arange(1, 2001, dtype=float)
    ws = w.weights(2000)
    assert np.all(ws >= (k + 1) / (k + M + 1) - 1e-15)
    assert np.all(ws <= (k + M + 1) / (k + 1) + 1e-15)


def test_equivalent_identical():
    ok, k1, k2 = equivalent(WeightSequence.hardy(), WeightSequence.hardy(), 100)
    assert ok and k1 == 1.0 and k2 == 1.0


def test_equivalent_bergman_vs_reciprocal_polygrowth():
    # beta ratio converges to 2/sqrt(6): same space, equivalent norms
    w = WeightSequence.bergman(1)
    w2 = WeightSequence.polygrowth(1).dual()
    ok, k1, k2 = equivalent(w, w2, 10**5)
    assert ok
    assert k1 == pytest.approx(2.0 / math.sqrt(6.0), rel=1e-4)
    assert k2 / k1 < 1.5


def test_equivalent_hardy_vs_nln_diverges():
    ok_small = equivalent(WeightSequence.hardy(), WeightSequence.nln(), 10**3)
    ok_large = equivalent(WeightSequence.hardy(), WeightSequence.nln(), 10**4)
    assert not ok_small[0] and not ok_large[0]
    # the ratio range keeps widening with the probe horizon
    assert ok_large[2] / ok_large[1] > 10 * ok_small[2] / ok_small[1]


def test_parse_weight_ids():
    assert parse_weight_id("hardy").id == "hardy"
    assert parse_weight_id("bergman:alpha=1").id == "bergman:alpha=1"
    assert parse_weight_id("polygrowth:M=2").id == "polygrowth:M=2"
    assert parse_weight_id("reciprocal:nln").id == "reciprocal:nln"
    with pytest.raises(ConfigError):
        parse_weight_id("lebesgue")
    with pytest.raises(ConfigError):
        parse_weight_id("bergman:beta=1")


def test_explicit_csv_roundtrip(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("1.5\n0.75\n1.25\n")
    w = parse_weight_id(f"explicit:path={path}")
    assert w.weights(3).tolist() == [1.5, 0.75, 1.25]


def test_concurrent_cache_extension():
    import threading

    w = WeightSequence.bergman(1)
    errs = []

    def worker(k):
        try:
            w.betas(k)
        except Exception as exc:  # pragma: no cover
            errs.append(exc)

    threads = [threading.Thread(target=worker, args=(1000 + 37 * i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs
    assert w.betas(1296).size == 1297


@pytest.mark.parametrize("wid, degree", [
    ("hardy", 0), ("polygrowth:M=1", 2), ("polygrowth:M=3", 6),
    ("reciprocal:bergman:alpha=1", 2), ("reciprocal:bergman:alpha=1.5", 3),
    ("polygrowth:M=1.5", None), ("bergman:alpha=1", None), ("nln", None),
    ("reciprocal:polygrowth:M=1", None),
])
def test_beta_sq_degree_is_the_degree_of_beta_square(wid, degree):
    w = parse_weight_id(wid)
    assert w.beta_sq_degree == degree
    if degree is not None:
        # differences of order d+1 of a degree-d polynomial vanish; of order d they do not
        b2 = w.betas(40) ** 2
        assert np.max(np.abs(np.diff(b2, degree + 1))) <= 1e-12 * np.max(b2)
        assert np.min(np.abs(np.diff(b2, degree))) > 1e-9 * np.max(b2)


@pytest.mark.parametrize("make", [
    lambda: WeightSequence.bergman(1),
    WeightSequence.nln,
    lambda: WeightSequence.polygrowth(2),
    lambda: WeightSequence.bergman(1).dual(),
], ids=["bergman", "nln", "polygrowth", "reciprocal"])
def test_cached_betas_do_not_depend_on_earlier_calls(make):
    w = make()
    for K in (10, 1500, 2100, 5000):
        w.log_betas(K)
    fresh = make()
    assert np.array_equal(w.log_betas(5000), fresh.log_betas(5000))
    assert np.array_equal(w.weights(5000), fresh.weights(5000))
