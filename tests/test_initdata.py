"""Rearrangement, quantile sampling and discretization convergence."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congested_flow.cli import load_config
from congested_flow.cone import SpacingCone
from congested_flow.dynamics import evolve, trajectory_at, validate_initial
from congested_flow.errors import AdmissibilityError, InputDomainError
from congested_flow.initdata import (
    MacroscopicDatum,
    cdf_from_density,
    datum_from_eulerian,
    discretization_convergence,
    quantile_sample,
    rearrangement_from_density,
)
from congested_flow.piecewise import PiecewiseField


ROOT = Path(__file__).resolve().parents[1]


def constant_velocity(c: float) -> PiecewiseField:
    return PiecewiseField.constant(np.array([0.0, 1.0]), np.array([c]))


def test_rearrangement_identity():
    m = rearrangement_from_density([(0.0, 1.0, 1.0)])
    w = np.linspace(0.01, 1.0, 13)
    np.testing.assert_allclose(m(w), w, atol=1e-15)


def test_rearrangement_dilation():
    m = rearrangement_from_density([(0.0, 2.0, 0.5)])
    w = np.linspace(0.01, 1.0, 13)
    np.testing.assert_allclose(m(w), 2.0 * w, atol=1e-15)


def test_rearrangement_two_speed():
    m = rearrangement_from_density([(0.0, 0.5, 1.0), (1.0, 2.0, 0.5)])
    np.testing.assert_allclose(m(np.array([0.25, 0.5])), [0.25, 0.5])
    np.testing.assert_allclose(m(np.array([0.75, 1.0])), [1.5, 2.0])
    # left-continuity at the vacuum jump
    assert m(0.5, side="left") == 0.5
    assert m(0.5, side="right") == 1.0


def test_rearrangement_slope_is_inverse_density():
    m = rearrangement_from_density([(0.0, 0.5, 1.0), (1.0, 2.0, 0.5)])
    np.testing.assert_allclose(m.slopes(), [1.0, 2.0])


def test_density_validation_errors():
    with pytest.raises(InputDomainError):
        rearrangement_from_density([(0.0, 1.0, 1.2)])
    with pytest.raises(InputDomainError):
        rearrangement_from_density([(0.0, 1.0, 0.5)])  # mass 1/2
    with pytest.raises(InputDomainError):
        rearrangement_from_density([(0.0, 1.0, 1.0), (0.5, 1.5, 0.1)])  # overlap
    with pytest.raises(InputDomainError):
        rearrangement_from_density([])


def test_density_rejects_a_nan_piece():
    # a NaN value fails both `value < 0` and `value > 1`, and `value > 0` then
    # dropped the piece without a word: the first piece alone has mass 1
    with pytest.raises(InputDomainError):
        rearrangement_from_density([(0.0, 1.0, 1.0), (1.0, 2.0, np.nan)])


def test_datum_rejects_shear_on_saturated_piece():
    x0_map = rearrangement_from_density([(0.0, 1.0, 1.0)])
    shear = PiecewiseField(np.array([0.0, 1.0]), np.array([0.0]), np.array([1.0]))
    with pytest.raises(AdmissibilityError):
        MacroscopicDatum(x0_map, shear)


def test_quantile_sample_packed_block():
    datum = MacroscopicDatum(rearrangement_from_density([(0.0, 1.0, 1.0)]),
                             constant_velocity(0.3))
    x0, u0, cone = quantile_sample(datum, 4)
    np.testing.assert_allclose(x0, [0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(u0, np.full(4, 0.3))
    assert cone.two_r == 0.25


def test_quantile_sample_dilute():
    datum = MacroscopicDatum(rearrangement_from_density([(0.0, 2.0, 0.5)]),
                             constant_velocity(0.0))
    x0, _, cone = quantile_sample(datum, 4)
    np.testing.assert_allclose(x0, [0.5, 1.0, 1.5, 2.0])
    assert np.all(np.diff(x0) > cone.two_r)


def test_quantile_sample_two_particles():
    datum = MacroscopicDatum(rearrangement_from_density([(0.0, 1.0, 1.0)]),
                             constant_velocity(1.0))
    x0, u0, cone = quantile_sample(datum, 2)
    assert x0[1] - x0[0] == pytest.approx(cone.two_r)
    with pytest.raises(InputDomainError):
        quantile_sample(datum, 1)


def random_contacts_datum(seed, tmp_path):
    """The benchmark's random_contacts datum, from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = tmp_path / "random_contacts.json"
    path.write_text(json.dumps(workloads.workload_config(ROOT, "random_contacts", seed)))
    return load_config(str(path))["_datum"]


@pytest.mark.parametrize("seed", range(1, 11))
def test_quantile_sample_is_admissible_at_every_n(seed, tmp_path):
    # the workload puts its breaks off the quantiles of its own n values
    # only; elsewhere a quantile may lie within an ulp of an end of a
    # saturated piece (seed 1: n = 1600, 3200, ..., 9600; seed 3: n = 128,
    # 192, 256, ...), where the left-limit convention gave it the velocity of
    # the piece beside while it touched a particle of the saturated one
    datum = random_contacts_datum(seed, tmp_path)
    ns = list(range(2, 2001)) + ([3200, 4800, 6400, 8000, 9600] if seed == 1 else [])
    for n in ns:
        quantile_sample(datum, n)  # raises AdmissibilityError on an inadmissible sample


@st.composite
def saturated_borders(draw):
    """Piecewise data whose saturated pieces border pieces that move differently.

    Piece masses are whole multiples of 1/q, so at every n that q divides a
    quantile i/n falls on each mass break up to the rounding of the
    accumulated breaks, the hostile case for the sample's velocity.
    """
    k = draw(st.integers(2, 7))
    units = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    saturated = draw(st.lists(st.booleans(), min_size=k, max_size=k).filter(any))
    # two adjacent saturated pieces would be one congested region, one speed
    saturated = [sat and not (j and saturated[j - 1]) for j, sat in enumerate(saturated)]
    q = sum(units)
    density, a = [], draw(st.floats(-2.0, 2.0))
    for m, sat in zip(units, saturated):
        v = 1.0 if sat else draw(st.floats(0.2, 0.9))
        density.append([a, a + m / q / v, v])
        a += m / q / v
    x0_map = rearrangement_from_density(density)
    speeds = draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k))
    shift = draw(st.lists(st.floats(0.1, 1.0), min_size=2 * k, max_size=2 * k))
    left, right = [], []
    for j in range(k):
        if saturated[j]:
            left.append(speeds[j])
            right.append(speeds[j])
            continue
        # each end next to a saturated piece moves away from that piece's speed
        ul = speeds[j - 1] + shift[2 * j] if j > 0 and saturated[j - 1] else speeds[j]
        ur = speeds[j + 1] - shift[2 * j + 1] if j + 1 < k and saturated[j + 1] \
            else speeds[j] + shift[2 * j + 1]
        left.append(ul)
        right.append(ur)
    datum = MacroscopicDatum(x0_map, PiecewiseField(x0_map.breaks, np.array(left),
                                                    np.array(right)))
    ns = draw(st.lists(st.integers(2, 2000), min_size=5, max_size=20))
    return datum, sorted(set(ns + list(range(q, 2001, q))))


@given(saturated_borders())
@settings(max_examples=40, deadline=None)
def test_quantile_sample_is_admissible_next_to_saturated_pieces(case):
    datum, ns = case
    for n in ns:
        quantile_sample(datum, n)  # raises AdmissibilityError on an inadmissible sample


def test_mass_between_consecutive_samples():
    pieces = [(0.0, 0.5, 1.0), (1.0, 2.0, 0.5)]
    datum = MacroscopicDatum(rearrangement_from_density(pieces), constant_velocity(0.0))
    cdf = cdf_from_density(pieces)
    for n in (4, 8, 32):
        x0, _, _ = quantile_sample(datum, n)
        masses = np.diff(cdf(x0))
        np.testing.assert_allclose(masses, 1.0 / n, atol=1e-12)


def test_pushforward_cdf_sup_distance():
    pieces = [(0.0, 0.5, 1.0), (1.0, 2.0, 0.5)]
    datum = MacroscopicDatum(rearrangement_from_density(pieces), constant_velocity(0.0))
    cdf = cdf_from_density(pieces)
    for n in (16, 64, 256):
        x0, _, _ = quantile_sample(datum, n)
        grid = np.linspace(-0.1, 2.1, 2000)
        emp = np.searchsorted(x0, grid, side="right") / n
        true = np.where(grid < 0.0, 0.0, np.where(grid > 2.0, 1.0, cdf(np.clip(grid, 0.0, 2.0))))
        assert np.max(np.abs(emp - true)) <= 1.0 / n + 1e-12


def test_validate_initial_reports():
    cone = SpacingCone.canonical(3)
    ok = validate_initial(np.array([0.0, 0.5, 1.0]), np.array([1.0, -2.0, 0.5]), cone)
    assert ok.passed
    dense = validate_initial(np.array([0.0, 1 / 3, 2 / 3]), np.full(3, 0.2), cone)
    assert dense.passed
    shear = validate_initial(np.array([0.0, 1 / 3, 2 / 3]), np.array([0.2, 0.3, 0.2]), cone)
    assert not shear.passed
    with pytest.raises(InputDomainError):
        validate_initial(np.array([0.0, 0.5]), np.zeros(2), cone)
    with pytest.raises(InputDomainError):
        validate_initial(np.array([0.0, 0.5, 1.0]), np.zeros(4), cone)


@pytest.mark.parametrize("where", ["x0", "u0"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_initial_data_are_rejected_before_any_work(where, value):
    # an infinite velocity used to pass validate_initial (evolve then moved a
    # particle to -inf) or to fail inside evolve, and a NaN to fail as an
    # inadmissible datum; each entry point names the first bad entry
    cone = SpacingCone(3, 1.0)
    data = {"x0": np.array([0.0, 2.0, 4.0]), "u0": np.array([1.0, 0.0, -1.0])}
    data[where][1:] = value
    message = re.escape(f"{where}[1] = {value} is not finite")
    for call in (lambda: validate_initial(data["x0"], data["u0"], cone),
                 lambda: evolve(data["x0"], data["u0"], cone, 1.0),
                 lambda: trajectory_at(data["x0"], data["u0"], cone, 0.5)):
        with pytest.raises(InputDomainError, match=message):
            call()


def test_discretization_convergence_identity_exact_on_grid():
    datum = MacroscopicDatum(rearrangement_from_density([(0.0, 1.0, 1.0)]),
                             constant_velocity(0.0))
    rows = discretization_convergence(datum, [8, 16])
    # the sampled interpolant of the identity map has L2 error h/sqrt(3)
    for row in rows:
        assert row["err_x_l2"] == pytest.approx(1.0 / (np.sqrt(3.0) * row["n"]), rel=1e-12)
        assert row["err_u_l2"] == 0.0


def test_discretization_convergence_first_order_rate():
    datum = MacroscopicDatum(rearrangement_from_density([(0.0, 2.0, 0.5)]),
                             constant_velocity(0.0))
    rows = discretization_convergence(datum, [8, 16, 32, 64])
    errs = [r["err_x_l2"] for r in rows]
    # closed form 2/(sqrt(3) n), hence exact halving
    assert errs[0] == pytest.approx(2.0 / (np.sqrt(3.0) * 8), rel=1e-12)
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(r == pytest.approx(2.0, rel=1e-9) for r in ratios)


def test_discretization_convergence_discontinuous_velocity_half_rate():
    # the velocity jump must sit in an unsaturated region to be admissible
    x0_map = rearrangement_from_density([(0.0, 2.0, 0.5)])
    u0_map = PiecewiseField.constant(np.array([0.0, 1.0 / 3.0, 1.0]), np.array([1.0, -1.0]))
    datum = MacroscopicDatum(x0_map, u0_map)
    rows = discretization_convergence(datum, [8, 32, 128, 512])
    errs = [r["err_u_l2"] for r in rows]
    slope = np.polyfit(np.log([r["n"] for r in rows]), np.log(errs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.05)


def test_datum_from_eulerian_composition():
    # u(x) = 1 - x over an unsaturated density with a vacuum gap
    vel = PiecewiseField(np.array([-10.0, 10.0]), np.array([11.0]), np.array([-9.0]))
    datum = datum_from_eulerian([(0.0, 1.0, 0.5), (1.5, 2.5, 0.5)], vel)
    w = np.array([0.1, 0.4, 0.7, 0.95])
    x = datum.x0_map(w)
    np.testing.assert_allclose(datum.u0_map(w), 1.0 - x, atol=1e-12)
    # a sheared velocity over a saturated block violates the hypothesis
    with pytest.raises(AdmissibilityError):
        datum_from_eulerian([(0.0, 0.5, 1.0), (1.0, 2.0, 0.5)], vel)


def test_datum_from_eulerian_needs_the_velocity_on_the_whole_support():
    # the support [0, 1] u [1.5, 2.5] ends past u0's last break; a vacuum gap
    # left uncovered would do no harm, and a gap at an end is no support
    vel = PiecewiseField(np.array([-10.0, 2.0]), np.array([11.0]), np.array([-1.0]))
    with pytest.raises(InputDomainError, match=r"not on \[2.0, 2.5\] of the density's "
                                               r"support \[0.0, 2.5\]"):
        datum_from_eulerian([(0.0, 1.0, 0.5), (1.5, 2.5, 0.5)], vel)
    inner = PiecewiseField(np.array([1.0, 4.0]), np.array([0.0]), np.array([-3.0]))
    datum = datum_from_eulerian([(0.0, 1.0, 0.0), (1.0, 3.0, 0.5), (3.0, 4.0, 0.0)], inner)
    np.testing.assert_allclose(datum.u0_map(np.array([0.0, 1.0])), [-0.0, -2.0], atol=1e-12)
