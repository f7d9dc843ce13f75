"""Optimizer tests: invariances, frozen pipeline values, truncation
behaviour, and error paths."""
import itertools
import json

import numpy as np
import pytest

import cotf
from cotf import optimizer


def _toy_stack(columns):
    columns = np.asarray(columns, dtype=np.float64)
    axes = (np.arange(columns.shape[0], dtype=np.float64),)
    channels = [(0.0, float(i)) for i in range(columns.shape[1])]
    return cotf.OtfStack(axes=axes, columns=columns, channels=channels)


def _toy_mask(focal):
    focal = np.asarray(focal, dtype=np.uint8)
    axes = (np.arange(focal.size, dtype=np.float64),)
    return cotf.RegionMask(axes=axes, focal=focal)


def test_single_channel_improvement_is_unity():
    rng = np.random.default_rng(7)
    stack = _toy_stack(np.abs(rng.standard_normal((40, 1))) + 0.05)
    mask = _toy_mask(rng.random(40) < 0.4)
    result = cotf.solve(stack, mask)
    assert abs(result.improvement_factor - 1.0) < 1e-9
    assert result.coefficients.shape == (1,)
    assert abs(abs(result.coefficients[0]) - 1.0) < 1e-12


def _with_duplicate(t):
    """The same stack plus a copy of its second column: rank N - 1 of N."""
    return np.column_stack([t, t[:, 1]])


def _duplicate_toy():
    rng = np.random.default_rng(3)
    t = np.abs(rng.standard_normal((400, 6))) + 0.01
    return _toy_stack(_with_duplicate(t)), _toy_mask(rng.random(400) < 0.3)


@pytest.mark.parametrize("name", ["point", "line", "cross", "duplicate"])
def test_gram_spectrum_matches_svd(request, name):
    """eigh(A + B) against an SVD of T: the same singular values above the
    floor, the same numerical rank as the SVD floor sigma_1 * max(K, N) * eps,
    and the floor in a wide gap of the spectrum."""
    if name == "duplicate":
        stack, mask = _duplicate_toy()
    else:
        stack, mask = request.getfixturevalue(f"{name}_stack"), request.getfixturevalue(f"{name}_mask")
    prep = optimizer._prepare(stack, mask)
    t = stack.columns
    sigma = np.linalg.svd(t, compute_uv=False)
    resolved = prep.resolved
    assert np.allclose(prep.singular_values[resolved], sigma[resolved], rtol=1e-6, atol=0.0)
    eps = np.finfo(np.float64).eps
    assert resolved.sum() == np.sum(sigma >= sigma[0] * max(t.shape) * eps)
    lam = np.linalg.eigvalsh(prep.a_full + prep.b_full)[::-1]
    floor = lam[0] * max(t.shape) * eps
    assert lam[resolved].min() >= 100.0 * floor
    assert np.all(np.abs(lam[~resolved]) <= 0.01 * floor)
    if name in ("cross", "duplicate"):
        assert not resolved.all()


def test_scale_invariance():
    rng = np.random.default_rng(11)
    t = np.abs(rng.standard_normal((60, 4))) + 0.01
    mask = _toy_mask(rng.random(60) < 0.3)
    for columns in (t, _with_duplicate(t)):
        base = cotf.solve(_toy_stack(columns), mask)
        scaled = cotf.solve(_toy_stack(1000.0 * columns), mask)
        assert np.isclose(base.objective, scaled.objective, rtol=1e-10)
        assert np.allclose(base.coefficients, scaled.coefficients, atol=1e-10)
        assert base.rank_used == scaled.rank_used == base.numerical_rank == 4


def test_permutation_equivariance():
    rng = np.random.default_rng(13)
    t = np.abs(rng.standard_normal((50, 5))) + 0.01
    mask = _toy_mask(rng.random(50) < 0.3)
    for columns, perm in ((t, [0, 3, 1, 4, 2]), (_with_duplicate(t), [0, 5, 3, 1, 4, 2])):
        base = cotf.solve(_toy_stack(columns), mask)  # perm keeps the pinhole first
        permuted = cotf.solve(_toy_stack(columns[:, perm]), mask)
        assert np.isclose(base.objective, permuted.objective, rtol=1e-10)
        assert np.allclose(base.coefficients[perm], permuted.coefficients, atol=1e-8)
        assert base.rank_used == permuted.rank_used == base.numerical_rank == 5


def test_objective_dominates_random_quotients(line_stack, line_mask, line_sweep):
    untruncated = line_sweep[0]
    rng = np.random.default_rng(17)
    c = rng.standard_normal((line_stack.channel_count, 1000))
    c /= np.linalg.norm(c, axis=0)
    tc = line_stack.columns @ c
    f = line_mask.focal.astype(np.float64)
    num = np.einsum("kj,k->j", tc**2, f)
    den = np.einsum("kj,k->j", tc**2, 1.0 - f)
    quotients = num / den
    assert np.all(quotients <= untruncated.objective * (1 + 1e-9))


def test_coefficients_unit_norm_and_sign(point_sweep, point_stack):
    for result in point_sweep:
        assert abs(np.linalg.norm(result.coefficients) - 1.0) < 1e-12
        assert result.cotf[point_stack.origin_node()] >= 0.0
        assert np.allclose(result.cotf, point_stack.columns @ result.coefficients)


def test_odd_optimum_oriented_by_first_coefficient(line_stack):
    # Line 7, 0.5 lambda depth target, 10 dB amplitude: the optimum is odd in
    # x, so its origin value is rounding noise and cannot fix the sign.
    mask = cotf.depth_target_mask(cotf.zero_channel_grid(line_stack), 0.5)
    result = cotf.solve(line_stack, mask, cotf.TruncationPolicy(10.0, cotf.AMPLITUDE))
    c = result.coefficients
    assert abs(result.cotf[line_stack.origin_node()]) < 1e-9 * np.abs(result.cotf).max()
    assert c[np.abs(c) > 1e-9 * np.abs(c).max()][0] > 0
    assert np.allclose(result.cotf, line_stack.columns @ c)


def test_frozen_point_sweep(point_sweep):
    improvements = [r.improvement_factor for r in point_sweep]
    expected = [5.887490, 5.887490, 5.821152, 4.349816]
    assert np.allclose(improvements, expected, rtol=1e-5)
    assert [r.rank_used for r in point_sweep] == [25, 25, 14, 2]
    assert [r.policy.threshold_db for r in point_sweep] == [None, 30.0, 20.0, 10.0]


def test_frozen_line_sweep(line_sweep):
    improvements = [r.improvement_factor for r in line_sweep]
    expected = [6.544530, 6.544530, 6.544530, 5.667477]
    assert np.allclose(improvements, expected, rtol=1e-5)
    assert [r.rank_used for r in line_sweep] == [7, 7, 7, 5]


def test_frozen_cross_sweep(cross_sweep):
    by_db = {r.policy.threshold_db: r.improvement_factor for r in cross_sweep}
    expected = {None: 55.3748, 40.0: 53.9524, 30.0: 49.5380, 20.0: 37.8237, 10.0: 8.8167}
    for db, value in expected.items():
        assert np.isclose(by_db[db], value, rtol=1e-4), (db, by_db[db])
    # 63 channels, but ten singular values sit ~161 dB down: numerically null.
    assert [r.rank_used for r in cross_sweep] == [53, 43, 29, 19, 8]
    assert {r.numerical_rank for r in cross_sweep} == {53}


def test_cross_sweep_above_spectral_gap(cross_stack, cross_mask):
    """Levels above the 46.8 dB gap keep every resolved direction, no more."""
    results = cotf.truncation_sweep(cross_stack, cross_mask, [100.0, 40.0])
    assert [r.rank_used for r in results] == [53, 53, 43]
    assert results[1].objective == results[0].objective


def test_frozen_conventional_objective(point_stack, point_mask):
    result = cotf.solve(point_stack, point_mask)
    assert np.isclose(result.objective / result.improvement_factor, 1048.098409, rtol=1e-6)


def test_improvement_matches_objective_ratio(point_sweep, point_stack, point_mask):
    t0 = point_stack.columns[:, 0]
    f = point_mask.focal.astype(np.float64)
    conventional = np.sum(f * t0**2) / np.sum((1.0 - f) * t0**2)
    for result in (cotf.solve(point_stack, point_mask), *point_sweep):
        assert np.isclose(result.objective / result.improvement_factor, conventional, rtol=1e-12)


def test_sweep_ordering_validation(point_stack, point_mask, point_sweep):
    # Every level truncates one factorization: its result is the same, bit
    # for bit, wherever it sits in the sweep.
    reference = {r.policy.threshold_db: r for r in point_sweep}
    for order in itertools.permutations([30.0, 20.0, 10.0]):
        results = cotf.truncation_sweep(point_stack, point_mask, list(order))
        assert [r.policy.threshold_db for r in results] == [None, *order]
        for result in results:
            expected = reference[result.policy.threshold_db]
            assert result.objective == expected.objective
            assert np.array_equal(result.coefficients, expected.coefficients)
    with pytest.raises(ValueError, match="finite dB"):
        cotf.truncation_sweep(point_stack, point_mask, [30.0, None])


def test_sweep_nesting(line_sweep, cross_sweep):
    for sweep in (line_sweep, cross_sweep):
        untruncated = sweep[0].objective
        for result in sweep[1:]:
            assert result.objective <= untruncated * (1 + 1e-9)


def test_policy_validation_and_keep_mask():
    with pytest.raises(ValueError, match="threshold_db"):
        cotf.TruncationPolicy(threshold_db=0.0)
    with pytest.raises(ValueError, match="convention"):
        cotf.TruncationPolicy(threshold_db=10.0, convention="nepers")
    sigma = np.array([1.0, 0.11, 0.09])
    power = cotf.TruncationPolicy(threshold_db=10.0, convention=cotf.POWER)
    assert power.keep_mask(sigma).sum() == 2  # cutoff 0.1
    amplitude = cotf.TruncationPolicy(threshold_db=10.0, convention=cotf.AMPLITUDE)
    assert amplitude.keep_mask(sigma).sum() == 1  # cutoff 0.316
    untruncated = cotf.TruncationPolicy()
    assert untruncated.keep_mask(sigma).all()


def test_amplitude_convention_truncates_harder(point_stack, point_mask):
    power = cotf.solve(point_stack, point_mask, cotf.TruncationPolicy(20.0, cotf.POWER))
    amplitude = cotf.solve(point_stack, point_mask, cotf.TruncationPolicy(20.0, cotf.AMPLITUDE))
    assert amplitude.rank_used <= power.rank_used
    assert amplitude.objective <= power.objective * (1 + 1e-9)


def test_pinhole_exclusion_flag():
    # Orthogonal columns with very different scales: truncation drops the
    # weak pinhole direction entirely.
    t = np.zeros((4, 2))
    t[:2, 0] = 1.0
    t[2:, 1] = 100.0
    stack = _toy_stack(t)
    mask = _toy_mask([1, 0, 1, 0])
    kept = cotf.solve(stack, mask)
    assert not kept.pinhole_excluded
    dropped = cotf.solve(stack, mask, cotf.TruncationPolicy(threshold_db=10.0))
    assert dropped.pinhole_excluded
    assert dropped.rank_used == 1


def test_empty_retained_subspace():
    t = np.zeros((4, 2))
    t[:2, 0] = 1.0
    t[2:, 1] = 100.0
    policy = cotf.TruncationPolicy(threshold_db=10.0)
    keep = policy.keep_mask(np.array([1.0]))
    assert keep.all()  # sanity: the largest direction always survives
    # The solver itself can never produce rank 0, so force it directly.
    with pytest.raises(cotf.NumericalError, match="singular direction"):
        optimizer._solve_prepared(
            _toy_stack(t),
            optimizer._prepare(_toy_stack(t), _toy_mask([1, 0, 1, 0])),
            _AlwaysEmptyPolicy(),
        )


class _AlwaysEmptyPolicy(cotf.TruncationPolicy):
    def keep_mask(self, singular_values):
        return np.zeros(singular_values.size, dtype=bool)


def test_singular_out_of_focus_gram_raises():
    # The second channel has no out-of-focus weight, so B is singular on the
    # full (numerically resolved) subspace: reported, never regularized away.
    t = np.zeros((4, 2))
    t[:, 0] = 1.0
    t[0, 1] = 1.0
    with pytest.raises(cotf.NumericalError, match="singular"):
        cotf.solve(_toy_stack(t), _toy_mask([1, 0, 0, 0]))


def test_degenerate_conventional_errors():
    t = np.zeros((4, 2))
    t[0, 0] = 1.0  # pinhole weight only on the focal node
    t[:, 1] = 1.0
    stack = _toy_stack(t)
    with pytest.raises(cotf.NumericalError, match="out-of-focus"):
        cotf.solve(stack, _toy_mask([1, 0, 0, 0]))
    t2 = np.zeros((4, 2))
    t2[3, 0] = 1.0  # pinhole weight only outside the focal region
    t2[:, 1] = 1.0
    with pytest.raises(cotf.NumericalError, match="focal"):
        cotf.solve(_toy_stack(t2), _toy_mask([1, 0, 0, 0]))


def test_incompatible_mask_rejected(line_stack):
    bad = _toy_mask(np.r_[np.ones(3), np.zeros(4)])
    with pytest.raises(ValueError, match="nodes"):
        cotf.solve(line_stack, bad)


def test_empty_out_of_focus_rejected():
    stack = _toy_stack(np.ones((5, 2)))
    mask = _toy_mask(np.ones(5))
    with pytest.raises(ValueError, match="out-of-focus region is empty"):
        cotf.solve(stack, mask)


def test_brute_force_agreement_small():
    """Condensed version of the acceptance oracle: 5 random stacks."""
    rng = np.random.default_rng(23)
    for _ in range(5):
        k = int(rng.integers(10, 51))
        n = int(rng.integers(2, 4))
        t = np.abs(rng.standard_normal((k, n)))
        t[:, 0] += 0.1
        focal = (rng.random(k) < 0.3).astype(np.uint8)
        if focal.sum() == 0:
            focal[0] = 1
        if focal.sum() == k:
            focal[0] = 0
        stack = _toy_stack(t)
        mask = _toy_mask(focal)
        result = cotf.solve(stack, mask)
        c = rng.standard_normal((n, 100_000))
        c /= np.linalg.norm(c, axis=0)
        tc = t @ c
        f = focal.astype(np.float64)
        num = np.einsum("kj,k->j", tc**2, f)
        den = np.einsum("kj,k->j", tc**2, 1.0 - f)
        ok = den > 0
        best = (num[ok] / den[ok]).max()
        assert best <= result.objective * (1 + 1e-9)
        assert abs(best - result.objective) <= 1e-3 * result.objective


def test_result_serialization(point_sweep):
    payload = point_sweep[2].to_json_dict()
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert parsed["rank_used"] == 14
    assert parsed["numerical_rank"] == 25
    assert parsed["policy"] == {"threshold_db": 20.0, "convention": "power"}
    assert len(parsed["coefficients"]) == 25
    assert parsed["pinhole_excluded"] is False
    assert np.isclose(parsed["improvement_factor"], 5.821152, rtol=1e-5)
