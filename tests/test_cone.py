"""Projection kernel: PAVA isotonic regression and the exhaustive KKT oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congested_flow.cone import (
    SpacingCone,
    _pava,
    isotonic_project,
    normal_cone_check,
    project_onto_cone,
    projection_blocks,
    qp_oracle_project,
    qp_oracle_project_many,
)
from congested_flow.dynamics import CONTACT_RTOL, _contact_starts, _scale, validate_initial
from congested_flow.errors import CapacityError, InputDomainError, PreconditionError
from congested_flow.random_data import random_admissible_datum, random_projection_input


def brute_force_isotonic(y):
    """Independent oracle: enumerate every block partition, keep the feasible
    minimizer of the least-squares objective."""
    y = np.asarray(y, dtype=float)
    n = y.size
    best_cost, best_x = np.inf, None
    for mask in range(1 << (n - 1)):
        x = np.empty(n)
        a = 0
        for j in range(n - 1):
            if not (mask >> j) & 1:
                x[a:j + 1] = y[a:j + 1].mean()
                a = j + 1
        x[a:] = y[a:].mean()
        if np.all(np.diff(x) >= -1e-12):
            cost = float(np.sum((x - y) ** 2))
            if cost < best_cost - 1e-13:
                best_cost, best_x = cost, x
    return best_x


def test_isotonic_already_monotone_is_identity():
    y = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(isotonic_project(y), y)


def test_isotonic_two_point_pool():
    np.testing.assert_allclose(isotonic_project(np.array([1.0, 0.0])), [0.5, 0.5])


def test_isotonic_three_point_against_partition_enumeration():
    y = np.array([3.0, 1.0, 2.0])
    expected = brute_force_isotonic(y)
    np.testing.assert_allclose(expected, [2.0, 2.0, 2.0])
    np.testing.assert_allclose(isotonic_project(y), expected)


def test_isotonic_weighted_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        y = rng.normal(size=n)
        w = rng.uniform(0.2, 3.0, size=n)
        x = isotonic_project(y, w)
        # oracle on the weighted problem: pool means with weights
        best_cost, best_x = np.inf, None
        for mask in range(1 << (n - 1)):
            z = np.empty(n)
            a = 0
            bounds = [j + 1 for j in range(n - 1) if not (mask >> j) & 1] + [n]
            for b in bounds:
                z[a:b] = np.average(y[a:b], weights=w[a:b])
                a = b
            if np.all(np.diff(z) >= -1e-12):
                cost = float(np.sum(w * (z - y) ** 2))
                if cost < best_cost - 1e-13:
                    best_cost, best_x = cost, z
        np.testing.assert_allclose(x, best_x, atol=1e-10)


def test_isotonic_input_errors():
    with pytest.raises(InputDomainError):
        isotonic_project(np.array([]))
    with pytest.raises(InputDomainError):
        isotonic_project(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    with pytest.raises(InputDomainError):
        isotonic_project(np.array([1.0, 2.0]), np.array([1.0, -1.0]))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_isotonic_output_monotone_and_idempotent(data):
    y = np.array(data)
    x = isotonic_project(y)
    assert np.all(np.diff(x) >= -1e-9 * (1.0 + np.abs(y).max()))
    np.testing.assert_array_equal(isotonic_project(x), x)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_isotonic_preserves_total_with_unit_weights(data):
    y = np.array(data)
    x = isotonic_project(y)
    assert abs(x.sum() - y.sum()) <= 1e-9 * (1.0 + np.abs(y).sum())


def test_pooled_blocks_carry_weighted_means():
    rng = np.random.default_rng(9)
    cone = SpacingCone.canonical(12)
    y = rng.normal(0.0, 1.0, 12)
    x, starts = projection_blocks(cone, y)
    yt = cone.translate(y)
    xt = cone.translate(x)
    bounds = np.append(starts, 12)
    for a, b in zip(bounds, bounds[1:]):
        np.testing.assert_allclose(xt[a:b], yt[a:b].mean(), atol=1e-12)


def pava_numpy_scalars(y, w):
    """The list-free kernel ``_pava`` replaced: numpy arrays indexed one scalar
    at a time, the same operations in the same order."""
    n = y.size
    starts = np.empty(n, dtype=np.intp)
    sums_wy = np.empty(n)
    sums_w = np.empty(n)
    means = np.empty(n)
    m = 0
    for i in range(n):
        starts[m] = i
        cw = w[i]
        cwy = cw * y[i]
        cmean = y[i]
        while m > 0 and means[m - 1] > cmean:
            m -= 1
            cw += sums_w[m]
            cwy += sums_wy[m]
            cmean = cwy / cw
        sums_w[m] = cw
        sums_wy[m] = cwy
        means[m] = cmean
        m += 1
    return starts[:m].copy(), means[:m].copy()


_RNG = np.random.default_rng(11)
PAVA_CASES = {
    "unit_weights": (_RNG.normal(size=500), np.ones(500)),
    "random_weights": (_RNG.normal(size=500), _RNG.uniform(0.1, 3.0, 500)),
    # [2, 0] and [3, -1] pool to mean 1.0, equal to their neighbours, which stay apart
    "exact_ties": (np.array([1.0, 2.0, 0.0, 1.0, 1.0, 3.0, -1.0, 1.0]), np.ones(8)),
    "monotone": (np.cumsum(_RNG.uniform(0.0, 1.0, 300)), _RNG.uniform(0.5, 2.0, 300)),
    "decreasing": (-np.cumsum(_RNG.uniform(0.1, 1.0, 300)), _RNG.uniform(0.5, 2.0, 300)),
    "single": (np.array([0.3]), np.array([2.0])),
    "offset_noise": (1e6 + 1e-9 * np.cumsum(_RNG.normal(size=2000)), np.ones(2000)),
}


@pytest.mark.parametrize("case", sorted(PAVA_CASES))
def test_pava_bitwise_equals_numpy_scalar_kernel(case):
    y, w = PAVA_CASES[case]
    starts, means = _pava(y, w)
    ref_starts, ref_means = pava_numpy_scalars(y, w)
    assert starts.dtype == ref_starts.dtype and means.dtype == ref_means.dtype
    assert np.array_equal(starts, ref_starts)
    assert means.tobytes() == ref_means.tobytes()
    if case == "exact_ties":
        assert starts.tolist() == [0, 1, 3, 4, 5, 7] and means.tolist() == [1.0] * 6
    if case == "monotone":
        assert starts.size == y.size and means.tobytes() == y.tobytes()
    if case == "decreasing":
        assert starts.tolist() == [0]


def test_projection_identity_on_feasible():
    cone = SpacingCone(3, 0.5)
    y = np.array([0.0, 0.6, 1.2])
    np.testing.assert_array_equal(project_onto_cone(cone, y), y)
    # pass-through does no pooling at all
    _, starts = projection_blocks(cone, y)
    assert starts.size == 3


def test_projection_symmetric_split():
    cone = SpacingCone(2, 1.0)
    np.testing.assert_allclose(project_onto_cone(cone, np.array([0.0, 0.0])), [-0.5, 0.5])


def test_projection_matches_oracle_n8():
    rng = np.random.default_rng(1)
    cone = SpacingCone.canonical(8)
    for _ in range(25):
        y = rng.normal(0.0, 1.0, 8)
        x = project_onto_cone(cone, y)
        x_ref, cert = qp_oracle_project(cone, y)
        np.testing.assert_allclose(x, x_ref, atol=1e-10)
        assert cert.min_lambda >= -1e-12
        assert cert.max_complementarity_violation <= 1e-10


def test_projection_feasibility_and_contraction():
    rng = np.random.default_rng(2)
    for n in (2, 5, 33, 200):
        cone = SpacingCone.canonical(n)
        y = rng.normal(0.0, 1.0, n)
        z = rng.normal(0.0, 1.0, n)
        px, pz = project_onto_cone(cone, y), project_onto_cone(cone, z)
        assert cone.feasibility_violation(px) <= 1e-12 * (1.0 + np.abs(y).max())
        # contraction in the rescaled norm
        lhs = np.sqrt(np.sum((px - pz) ** 2) / n)
        rhs = np.sqrt(np.sum((y - z) ** 2) / n)
        assert lhs <= rhs + 1e-12
        # idempotent up to the one rounding of the translation roundtrip
        again = project_onto_cone(cone, px)
        assert np.max(np.abs(again - px)) <= 4.0 * np.spacing(np.abs(px).max())


def test_oracle_feasible_input_no_active_constraints():
    cone = SpacingCone.canonical(4)
    y = np.array([0.0, 0.5, 1.0, 1.5])
    x, cert = qp_oracle_project(cone, y)
    np.testing.assert_allclose(x, y, atol=1e-14)
    np.testing.assert_allclose(cert.lambdas, 0.0, atol=1e-14)


def test_oracle_two_particle_hand_kkt():
    # stationarity x - y = -lambda * grad g with grad g = (-1, 1) forces 0.5
    cone = SpacingCone(2, 1.0)
    x, cert = qp_oracle_project(cone, np.array([0.0, 0.0]))
    np.testing.assert_allclose(x, [-0.5, 0.5])
    np.testing.assert_allclose(cert.lambdas, [0.5])
    assert list(cert.active_set) == [0]


def test_oracle_capacity_guard():
    cone = SpacingCone(21, 1.0 / 21)
    with pytest.raises(CapacityError):
        qp_oracle_project(cone, np.zeros(21))
    with pytest.raises(CapacityError):
        qp_oracle_project_many(cone, np.zeros((2, 21)))


def test_oracle_equivalence_sweep_small():
    rng = np.random.default_rng(3)
    for n in range(2, 9):
        cone = SpacingCone.canonical(n)
        ys = rng.normal(0.0, 0.5, (40, n))
        ref = qp_oracle_project_many(cone, ys)
        for row in range(ys.shape[0]):
            x = project_onto_cone(cone, ys[row])
            assert np.max(np.abs(x - ref[row])) <= 1e-9
            # the single-row oracle is the batched enumeration on that row
            x_one, _ = qp_oracle_project(cone, ys[row])
            np.testing.assert_array_equal(x_one, ref[row])


def test_normal_cone_zero_vector_passes():
    cone = SpacingCone.canonical(5)
    x = np.arange(5) * 0.4
    cert = normal_cone_check(cone, x, np.zeros(5))
    assert cert.passes(1e-12)
    np.testing.assert_allclose(cert.lambdas, 0.0)


def test_normal_cone_rejects_nonzero_at_interior_point():
    cone = SpacingCone.canonical(3)
    x = np.array([0.0, 1.0, 2.0])
    cert = normal_cone_check(cone, x, np.array([1.0, -1.0, 0.0]))
    assert not cert.passes(1e-10)


def test_normal_cone_two_particle_reaction():
    cone = SpacingCone(2, 1.0)
    cert = normal_cone_check(cone, np.array([-0.5, 0.5]), np.array([1.0, -1.0]))
    assert cert.passes(1e-12)
    np.testing.assert_allclose(cert.lambdas, [0.5])


def test_normal_cone_requires_feasible_point():
    cone = SpacingCone(2, 1.0)
    with pytest.raises(PreconditionError):
        normal_cone_check(cone, np.array([0.0, 0.1]), np.zeros(2))


def test_nan_configuration_is_not_feasible():
    # max(0.0, nan) is 0.0: the violation must keep the NaN instead
    cone = SpacingCone(3, 1.0)
    assert np.isnan(cone.feasibility_violation(np.array([0.0, np.nan, 2.0])))
    assert cone.feasibility_violation(np.array([0.0, 1.0, 2.0])) == 0.0
    assert cone.feasibility_violation(np.array([0.0, 0.5, 2.0])) == 0.5


@pytest.mark.parametrize("bad", ["x", "xi"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_normal_cone_rejects_non_finite_input(bad, value):
    cone = SpacingCone(3, 1.0)
    x, xi = np.array([0.0, 1.0, 2.0]), np.zeros(3)
    (x if bad == "x" else xi)[1] = value
    with pytest.raises(InputDomainError, match="finite"):
        normal_cone_check(cone, x, xi)


def test_variational_characterization():
    # the residual y - P(y) must be a valid normal-cone element at P(y)
    rng = np.random.default_rng(4)
    for n in (2, 6, 17):
        cone = SpacingCone.canonical(n)
        y = rng.normal(0.0, 1.0, n)
        x = project_onto_cone(cone, y)
        cert = normal_cone_check(cone, x, (y - x) * n)
        assert cert.passes(1e-9)


def projection_sweep_inputs():
    """The inputs of this file's projection sweeps, same seeds and draws, plus
    two generic inputs at n = 1e3 and 1e4."""
    rng = np.random.default_rng(1)
    for _ in range(25):
        yield SpacingCone.canonical(8), rng.normal(0.0, 1.0, 8)
    rng = np.random.default_rng(2)
    for n in (2, 5, 33, 200):
        cone = SpacingCone.canonical(n)
        yield cone, rng.normal(0.0, 1.0, n)
        yield cone, rng.normal(0.0, 1.0, n)
    rng = np.random.default_rng(3)
    for n in range(2, 9):
        cone = SpacingCone.canonical(n)
        yield from ((cone, y) for y in rng.normal(0.0, 0.5, (40, n)))
    rng = np.random.default_rng(4)
    for n in (2, 6, 17):
        yield SpacingCone.canonical(n), rng.normal(0.0, 1.0, n)
    rng = np.random.default_rng(12)
    for n in (1000, 10_000):
        yield random_projection_input(n, rng)


def assert_runs_agree(cone, y, runs, rtol=1e-12, bound=0.0):
    """Projection over ``runs`` within rtol (1 + max|x|) + bound of the
    per-particle projection."""
    x = project_onto_cone(cone, y)
    xr, starts = projection_blocks(cone, y, runs)
    assert np.all(np.isin(starts, runs))
    dev = float(np.max(np.abs(xr - x)))
    assert dev <= rtol * (1.0 + np.abs(x).max()) + bound


def test_projection_on_singleton_runs_is_per_particle_pava_bitwise():
    """The default runs reproduce PAVA on the translated data with unit
    weights, output and pooled starts alike."""
    for cone, y in projection_sweep_inputs():
        yt = cone.translate(y)
        x, starts = projection_blocks(cone, y)
        assert x.tobytes() == cone.untranslate(isotonic_project(yt)).tobytes()
        assert starts.tobytes() == _pava(yt, np.ones(cone.n))[0].tobytes()
        xr, starts_r = projection_blocks(cone, y, np.arange(cone.n))
        assert xr.tobytes() == x.tobytes() and starts_r.tobytes() == starts.tobytes()


@pytest.mark.parametrize("runs", [
    np.array([[0, 2]]), np.array([0.0, 2.0]), np.array([], dtype=int),
    np.array([1, 2]), np.array([0, 2, 2]), np.array([0, 3, 2]), np.array([0, 4]),
])
def test_projection_rejects_malformed_runs(runs):
    with pytest.raises(InputDomainError):
        projection_blocks(SpacingCone(4, 0.25), np.zeros(4), runs)


def test_projection_over_rigid_runs_of_the_sweeps():
    rng = np.random.default_rng(13)
    for cone, y in projection_sweep_inputs():
        n = cone.n
        for p_start in (0.1, 0.5):
            runs = np.flatnonzero(np.concatenate(([True], rng.random(n - 1) < p_start)))
            # rigid on the runs up to the rounding of the translation roundtrip
            yt = cone.translate(y)
            rigid = cone.untranslate(np.repeat(yt[runs], np.diff(np.append(runs, n))))
            assert_runs_agree(cone, rigid, runs)


def criterion_2_contact_data():
    """The contact data of acceptance criterion 2 (same seed and draws), each
    with every tenth of its 200 sampled times."""
    rng = np.random.default_rng(2002)
    sizes = [10] * 20 + [100] * 15 + [1000] * 10 + [10000] * 5
    for k, n in enumerate(sizes):
        x0, u0, cone = random_admissible_datum(n, rng, contacts=bool(k % 2))
        times = np.sort(rng.uniform(0.0, 2.0, 200))
        if k % 2:
            yield x0, u0, cone, times[::10]


def test_projection_over_runs_on_criterion_2_data_at_offsets():
    checked = {0.0: 0, 1e3: 0, 1e6: 0}
    for x0, u0, cone, times in criterion_2_contact_data():
        for offset in checked:
            x = x0 + offset
            if not validate_initial(x, u0, cone).passed:
                continue
            runs = _contact_starts(x, cone.two_r)
            for t in times:
                assert_runs_agree(cone, x + t * u0, runs)
            checked[offset] += 1
    # the contact tolerance depends on the span, so every datum stays admissible
    assert checked[0.0] == checked[1e3] == checked[1e6] == 25


def sheared_contact_datum(n, rng, alternate):
    """A contact datum whose every contact pair shears at 0.9 of the tolerance
    validate_initial admits; the shear is summed along each run, with one
    sign throughout or with alternating signs."""
    x0, u0, cone = random_admissible_datum(n, rng, contacts=True)
    runs = _contact_starts(x0, cone.two_r)
    contact = np.ones(n - 1, dtype=bool)
    contact[runs[1:] - 1] = False
    shear = 0.9 * CONTACT_RTOL * _scale(u0)
    signs = (-1.0) ** np.arange(n - 1) if alternate else np.ones(n - 1)
    drift = np.concatenate(([0.0], np.cumsum(np.where(contact, signs * shear, 0.0))))
    run_of = np.cumsum(np.concatenate(([0], ~contact)))
    u0 = u0 + drift - drift[runs[run_of]]
    assert validate_initial(x0, u0, cone).passed
    return x0, u0, cone, runs


@pytest.mark.parametrize("alternate", [False, True])
def test_projection_over_contacts_sheared_at_the_tolerance(alternate):
    """Sheared runs are not rigid, so the projection over them deviates by up
    to the largest in-run spread of the translated data (sup-norm
    non-expansiveness), plus rounding.  With one sign the spread grows with
    the run length and the deviation reaches about 2e-12 (1 + max|x|)."""
    rng = np.random.default_rng(14)
    for n in (10, 100, 1000):
        for _ in range(5):
            x0, u0, cone, runs = sheared_contact_datum(n, rng, alternate)
            for t in rng.uniform(0.0, 2.0, 10):
                y = x0 + t * u0
                yt = cone.translate(y)
                spread = float(np.max(np.maximum.reduceat(yt, runs)
                                      - np.minimum.reduceat(yt, runs)))
                assert_runs_agree(cone, y, runs, rtol=1e-14, bound=spread)
