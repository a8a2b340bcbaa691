import numpy as np
import pytest

from latekit.data_model import (
    Dataset,
    PotentialDataset,
    center_covariates,
    true_sample_late,
    validate,
)
from oracles import UnitData, dataset_from_units, dataset_units


def test_validate_clean_dataset():
    ds = Dataset(z=[1, 1, 0, 0], w=[1, 0, 0, 0], y=[1.0, 2.0, 3.0, 4.0],
                 x=[[-1.0], [0.0], [0.5], [0.5]])
    assert validate(ds) == []


def test_validate_small_arm():
    ds = Dataset(z=[1, 0, 0, 0], w=[0, 0, 0, 0], y=[1.0, 2.0, 3.0, 4.0],
                 x=np.zeros((4, 0)))
    report = validate(ds)
    assert any("n1 < 2" in r for r in report)


def test_validate_uncentered_covariates():
    ds = Dataset(z=[1, 1, 0, 0], w=[1, 0, 0, 0], y=[1.0, 2.0, 3.0, 4.0],
                 x=[[0.5], [0.5], [0.5], [0.5]])
    report = validate(ds)
    assert any("not centered" in r for r in report)


def test_validate_widens_the_centering_tolerance_only_by_the_removed_offsets(rng):
    x, means = center_covariates(1e8 + rng.standard_normal((40, 1)))
    ds = Dataset(z=np.repeat([1, 0], 20), w=np.zeros(40, dtype=int),
                 y=rng.standard_normal(40), x=x)
    assert validate(ds, means) == []
    # a dataset that really is off-centre is still reported
    off = Dataset(z=ds.z, w=ds.w, y=ds.y, x=x + 0.5)
    assert any("not centered" in r for r in validate(off, means))
    assert any("not centered" in r for r in validate(off))


def test_validate_non_binary():
    ds = Dataset(z=[1, 1, 0, 0], w=[2, 0, 0, 0], y=[1.0, 2.0, 3.0, 4.0],
                 x=np.zeros((4, 0)))
    assert any("non-binary" in r for r in validate(ds))


@pytest.mark.parametrize("name", ["z", "w"])
def test_validate_lists_non_binary_values_sorted(name):
    cols = {"z": [1, 1, 0, 0, 1, 0], "w": [1, 0, 0, 0, 1, 0]}
    cols[name] = [2, 1, -1, 0, 2, 7]
    ds = Dataset(**cols, y=np.arange(6.0), x=np.zeros((6, 0)))
    assert f"{name} contains non-binary values: [-1, 2, 7]" in validate(ds)


def test_validate_clean_binary_columns_report_nothing():
    ds = Dataset(z=[1, 1, 0, 0], w=[1, 0, 1, 0], y=[1.0, 2.0, 3.0, 4.0],
                 x=np.zeros((4, 0)))
    assert validate(ds) == []


def test_validate_idempotent(rng):
    from oracles import random_dataset

    ds = random_dataset(rng)
    first = validate(ds)
    assert validate(ds) == first


def test_center_covariates_basic():
    centered, means = center_covariates(np.array([[1.0], [2.0], [3.0]]))
    assert np.allclose(centered.ravel(), [-1.0, 0.0, 1.0])
    assert means[0] == 2.0


def test_center_covariates_identity_on_zero_column():
    col = np.zeros((5, 1))
    centered, means = center_covariates(col)
    assert np.array_equal(centered, col)
    assert means[0] == 0.0


def test_center_covariates_two_rows():
    centered, means = center_covariates(np.array([[10.0], [30.0]]))
    assert np.allclose(centered.ravel(), [-10.0, 10.0])
    assert means[0] == 20.0
    assert abs(centered.mean()) < 1e-12


def test_center_covariates_rejects_nonfinite():
    bad = np.array([[1.0, 2.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="row 1, column 0"):
        center_covariates(bad)


def test_potential_dataset_rejects_defiers():
    with pytest.raises(ValueError, match="monotonicity"):
        PotentialDataset(w0=[1, 0], w1=[0, 0], y0=[0.0, 0.0], y1=[0.0, 0.0],
                         x=np.zeros((2, 1)))


def test_potential_dataset_requires_a_complier():
    with pytest.raises(ValueError, match="no compliers"):
        PotentialDataset(w0=[1, 0], w1=[1, 0], y0=[0.0, 0.0], y1=[0.0, 0.0],
                         x=np.zeros((2, 1)))


def test_true_sample_late_two_compliers():
    # two compliers with effects 1 and 3, one always-taker, one never-taker
    p = PotentialDataset(w0=[0, 0, 1, 0], w1=[1, 1, 1, 0],
                         y0=[0.0, 1.0, 5.0, 2.0], y1=[1.0, 4.0, 5.0, 2.0],
                         x=np.zeros((4, 1)))
    assert true_sample_late(p) == 2.0


def test_true_sample_late_constant_effect():
    n = 10
    y0 = np.arange(n, dtype=float)
    p = PotentialDataset(w0=np.zeros(n, dtype=int), w1=np.ones(n, dtype=int),
                         y0=y0, y1=y0 + 3.25, x=np.zeros((n, 1)))
    assert true_sample_late(p) == pytest.approx(3.25, abs=1e-12)


def test_true_sample_late_matches_ratio_identity(rng):
    # average complier effect equals the ratio of mean assignment effects
    for _ in range(25):
        n = 30
        w0 = (rng.random(n) < 0.2).astype(int)
        w1 = np.maximum(w0, (rng.random(n) < 0.5).astype(int))
        if (w1 - w0).sum() < 1:
            continue
        y0 = rng.standard_normal(n)
        y1 = np.where(w1 == w0, y0, y0 + rng.standard_normal(n))
        p = PotentialDataset(w0=w0, w1=w1, y0=y0, y1=y1, x=np.zeros((n, 1)))
        ratio = (y1 - y0).mean() / (w1 - w0).mean()
        assert true_sample_late(p) == pytest.approx(ratio, abs=1e-12)


def test_dataset_from_units_roundtrip():
    units = [UnitData(1, 1, 2.0, (0.5,)), UnitData(1, 0, 1.0, (-0.5,)),
             UnitData(0, 0, 0.0, (0.25,)), UnitData(0, 1, 3.0, (-0.25,))]
    ds = dataset_from_units(units)
    assert ds.n == 4 and ds.n1 == 2 and ds.k == 1
    assert dataset_units(ds) == units
