import numpy as np
import pytest

from fluxlattice import (IntegrationOverflowError, PoleProximityError,
                         dirichlet_count_below, dirichlet_eigenvalues,
                         integrate_basis, krein_matrix)
from oracles import fd_dirichlet, free_basis

L = np.pi

# Mathieu reference eigenvalues (high-order shooting, rtol 1e-13) for
# V = 10 cos(2t) on [0, pi]; representation error of the 4096-cell sampled
# fixture is ~2e-6.
MATHIEU_MU = [-5.7900805986377115, 2.0994604454867347, 9.236327713694054,
              16.648219937169863, 25.51081604630306, 36.35886684802971]


def test_free_basis_z1(free_pot):
    pair = integrate_basis(free_pot, 1.0)
    assert pair.u1_l == pytest.approx(0.0, abs=1e-12)
    assert pair.du1_l == pytest.approx(-1.0, rel=1e-9)
    assert pair.u2_l == pytest.approx(-1.0, rel=1e-9)
    assert pair.du2_l == pytest.approx(0.0, abs=1e-12)


def test_free_basis_quarter(free_pot):
    pair = integrate_basis(free_pot, 0.25)
    assert pair.u1_l == pytest.approx(2.0, rel=1e-9)
    assert pair.du1_l == pytest.approx(0.0, abs=1e-12)
    assert pair.u2_l == pytest.approx(0.0, abs=1e-12)
    assert pair.du2_l == pytest.approx(-0.5, rel=1e-9)


def test_free_basis_hyperbolic(free_pot):
    pair = integrate_basis(free_pot, -1.0)
    assert pair.u1_l == pytest.approx(np.sinh(np.pi), rel=1e-9)
    assert pair.u2_l == pytest.approx(np.cosh(np.pi), rel=1e-9)


def test_free_basis_z0(free_pot):
    pair = integrate_basis(free_pot, 0.0)
    assert pair.u1_l == pytest.approx(np.pi, rel=1e-12)
    assert pair.du1_l == pytest.approx(1.0, rel=1e-12)
    assert pair.u2_l == pytest.approx(1.0, rel=1e-12)


def test_free_closed_forms_over_range(free_pot):
    for z in np.linspace(-5.0, 110.0, 47):
        pair = integrate_basis(free_pot, float(z))
        u1, du1, u2, du2 = free_basis(float(z))
        assert pair.u1_l == pytest.approx(u1, rel=1e-9, abs=1e-12)
        assert pair.du1_l == pytest.approx(du1, rel=1e-9, abs=1e-12)
        assert pair.u2_l == pytest.approx(u2, rel=1e-9, abs=1e-12)
        assert pair.du2_l == pytest.approx(du2, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("fixture", ["free_pot", "const5_pot", "step_pot",
                                     "mathieu_pot", "linear_pot"])
def test_wronskian_defect_all_kinds(fixture, request):
    # absolute bound over the scan range (heuristic floor upward); relative
    # bound further down where the solutions grow beyond float64's absolute
    # resolution of the 1e-8 target
    p = request.getfixturevalue(fixture)
    floor = min(0.0, p.infimum()) - 1.0
    for z in np.linspace(floor, 120.0, 40):
        pair = integrate_basis(p, float(z))
        scale = max(1.0, abs(pair.du1_l * pair.u2_l))
        if scale < 1e6:
            assert pair.wronskian_defect < 1e-8
        assert pair.wronskian_defect / scale < 1e-12
    for z in np.linspace(floor - 20.0, floor, 9):
        pair = integrate_basis(p, float(z))
        scale = max(1.0, abs(pair.du1_l * pair.u2_l))
        assert pair.wronskian_defect / scale < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_guard(free_pot):
    with pytest.raises(IntegrationOverflowError, match="rescale"):
        integrate_basis(free_pot, -1e7)


def test_dirichlet_free(free_pot):
    spec = dirichlet_eigenvalues(free_pot, 2)
    assert np.allclose(spec.eigenvalues, [1.0, 4.0, 9.0], atol=1e-10)


def test_dirichlet_constant_shift(const5_pot):
    spec = dirichlet_eigenvalues(const5_pot, 1)
    assert np.allclose(spec.eigenvalues, [6.0, 9.0], atol=1e-10)


def test_dirichlet_mathieu_vs_fd_oracle(mathieu_pot):
    fd = fd_dirichlet(lambda t: 10.0 * np.cos(2.0 * t), L, 2000, 4)
    spec = dirichlet_eigenvalues(mathieu_pot, 3)
    assert np.max(np.abs(np.asarray(spec.eigenvalues) - fd)) < 1e-4


def test_dirichlet_mathieu_vs_shooting_reference(mathieu_pot):
    spec = dirichlet_eigenvalues(mathieu_pot, 5)
    # dominated by the 4096-cell linear-interpolation representation error
    assert np.max(np.abs(np.asarray(spec.eigenvalues) - MATHIEU_MU)) < 5e-6


def test_dirichlet_increasing_with_tolerances(mathieu_pot):
    spec = dirichlet_eigenvalues(mathieu_pot, 5)
    assert all(b > a for a, b in zip(spec.eigenvalues, spec.eigenvalues[1:]))
    assert len(spec.tolerances) == 6
    assert all(t < 1e-8 for t in spec.tolerances)


@pytest.mark.parametrize("fixture", ["free_pot", "step_pot", "mathieu_pot"])
def test_prufer_count_at_midpoints(fixture, request):
    p = request.getfixturevalue(fixture)
    spec = dirichlet_eigenvalues(p, 6)
    mus = spec.eigenvalues
    for k in range(5):
        mid = 0.5 * (mus[k] + mus[k + 1])
        assert dirichlet_count_below(p, mid) == k + 1


def test_prufer_count_below_ground(free_pot):
    assert dirichlet_count_below(free_pot, 0.5) == 0
    assert dirichlet_count_below(free_pot, -3.0) == 0


def test_krein_quarter(free_pot):
    s = krein_matrix(free_pot, 0.25)
    assert s.s11 == pytest.approx(0.0, abs=1e-12)
    assert s.s12 == pytest.approx(0.5, rel=1e-9)
    assert s.s22 == pytest.approx(0.0, abs=1e-12)


def test_krein_hyperbolic(free_pot):
    s = krein_matrix(free_pot, -1.0)
    coth = np.cosh(np.pi) / np.sinh(np.pi)
    assert s.s11 == pytest.approx(-coth, rel=1e-9)
    assert s.s12 == pytest.approx(1.0 / np.sinh(np.pi), rel=1e-9)
    assert s.s22 == pytest.approx(-coth, rel=1e-9)


def test_krein_pole_guard(free_pot):
    with pytest.raises(PoleProximityError) as exc:
        krein_matrix(free_pot, 1.0)
    assert exc.value.nearest_mu == pytest.approx(1.0, abs=1e-8)


def test_krein_symmetric_bit_equal(step_pot):
    for z in (-2.0, 0.3, 2.7, 12.1):
        s = krein_matrix(step_pot, z)
        assert s.s12 == s.s21
