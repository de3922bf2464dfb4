import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import steadypop as sp
from steadypop.errors import GridMismatchError, ParameterError


def brute_trapezoid(nodes, values):
    """Independent oracle: explicit pairwise trapezoid summation."""
    total = 0.0
    for i in range(len(nodes) - 1):
        total += 0.5 * (values[i] + values[i + 1]) * (nodes[i + 1] - nodes[i])
    return total


class TestBuildGrid:
    def test_uniform_nodes_and_weights(self):
        g = sp.build_grid(10.0, 11)
        assert np.allclose(g.nodes, np.arange(11.0))
        assert np.allclose(g.weights, [0.5] + [1.0] * 9 + [0.5])

    def test_empty_domain_rejected(self):
        with pytest.raises(ParameterError):
            sp.build_grid(0.0, 5)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ParameterError):
            sp.build_grid(1.0, 2)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ParameterError):
            sp.build_grid(1.0, 5, "simpson")

    @pytest.mark.parametrize("args,field", [
        ((-1.0, 5), "x_max"),
        ((float("inf"), 5, "graded_trapezoid"), "x_max"),
        ((float("nan"), 5), "x_max"),
        ((1.0, 2), "n"),
        ((1.0, 5, "simpson"), "scheme"),
        # positive, but its spacings round to 0: the nodes it builds fail
        ((1e-320, 4001), "x_max"),
        ((1e-320, 4001, "graded_trapezoid"), "x_max"),
        # never allocatable: too many nodes for numpy, or for any memory
        ((1.0, int(1e300)), "n"),
        ((1.0, 2**63, "graded_trapezoid"), "n"),
        ((1.0, 10**16), "n"),
        ((1.0, 10**16, "graded_trapezoid"), "n"),
        # its spacing ratio rounds to 1, and 0/0 would come before the allocation
        ((1.0, 10**17, "graded_trapezoid"), "n"),
    ])
    def test_error_names_its_field(self, args, field):
        with pytest.raises(ParameterError) as info:
            sp.build_grid(*args)
        assert info.value.field == field

    @pytest.mark.parametrize("scheme", sp.grid.SCHEMES)
    def test_constant_integrates_to_x_max(self, scheme):
        g = sp.build_grid(17.3, 501, scheme)
        assert sp.integrate(g, np.ones(g.n)) == pytest.approx(17.3, rel=1e-12)

    def test_graded_clusters_near_zero(self):
        g = sp.build_grid(40.0, 4001, "graded_trapezoid")
        d = np.diff(g.nodes)
        assert d[0] < d[-1] / 50
        assert np.all(np.diff(d) > 0)

    def test_exponential_accuracy(self):
        # analytic oracle: integral of e^{-x} over [0, inf) is 1, tail e^{-40}
        gu = sp.build_grid(40.0, 4001)
        # plain trapezoid carries an h^2/12 bias of ~8.3e-6 at this resolution
        assert abs(sp.integrate(gu, np.exp(-gu.nodes)) - 1.0) < 1.1e-5
        gg = sp.build_grid(40.0, 4001, "graded_trapezoid")
        assert abs(sp.integrate(gg, np.exp(-gg.nodes)) - 1.0) < 1e-6


class TestGrid:
    @pytest.mark.parametrize("nodes", [
        [[0.0, 1.0, 2.0]],              # 2-D
        [0.0, 1.0],                     # too few nodes
        [0.5, 1.0, 2.0],                # first node not 0
        [0.0, 1.0, 1.0, 2.0],           # repeated node
        [0.0, 5e-324, 1e-323],          # first weight, half a subnormal step, rounds to 0
    ])
    def test_bad_nodes_rejected(self, nodes):
        with pytest.raises(ParameterError):
            sp.Grid(np.array(nodes))

    @pytest.mark.parametrize("nodes", [
        [0.0, np.nan, 1.0],             # passed the ordering check, with all-NaN weights
        [0.0, 1.0, np.inf],             # built with infinite weights
    ])
    def test_non_finite_nodes_rejected(self, nodes):
        with pytest.raises(ParameterError, match="nodes must be finite"):
            sp.Grid(np.array(nodes))

    @pytest.mark.parametrize("scheme", sp.grid.SCHEMES)
    def test_derived_geometry(self, scheme):
        g = sp.build_grid(7.0, 101, scheme)
        assert np.array_equal(g.steps, np.diff(g.nodes))
        assert g.is_uniform == (scheme == sp.grid.UNIFORM)
        for arr in (g.nodes, g.steps, g.weights):
            with pytest.raises(ValueError):
                arr[1] = 1.0


class TestIntegrate:
    def test_zero_function(self):
        g = sp.build_grid(10.0, 101)
        assert sp.integrate(g, np.zeros(g.n)) == 0.0

    def test_matches_brute_force(self):
        g = sp.build_grid(5.0, 64, "graded_trapezoid")
        rng = np.random.default_rng(7)
        f = rng.random(g.n)
        assert sp.integrate(g, f) == pytest.approx(
            brute_trapezoid(g.nodes, f), rel=1e-12
        )

    def test_shape_mismatch(self):
        g = sp.build_grid(10.0, 101)
        with pytest.raises(GridMismatchError):
            sp.integrate(g, np.ones(50))

    def test_profile_from_other_grid_rejected(self):
        g1 = sp.build_grid(10.0, 101)
        g2 = sp.build_grid(12.0, 101)
        with pytest.raises(GridMismatchError):
            sp.integrate(g1, sp.DensityProfile(g2, np.ones(101)))

    @settings(deadline=None, max_examples=50)
    @given(
        a=st.floats(-10, 10),
        b=st.floats(-10, 10),
        seed=st.integers(0, 2**31),
    )
    def test_linearity(self, a, b, seed):
        g = sp.build_grid(3.0, 33)
        rng = np.random.default_rng(seed)
        f1, f2 = rng.random(g.n), rng.random(g.n)
        lhs = sp.integrate(g, a * f1 + b * f2)
        rhs = a * sp.integrate(g, f1) + b * sp.integrate(g, f2)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_nonnegative_for_nonnegative_samples(self):
        g = sp.build_grid(3.0, 33)
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert sp.integrate(g, rng.random(g.n)) >= 0.0


class TestCumulativeIntegrals:
    def test_constant_one_is_exact(self):
        g = sp.build_grid(10.0, 101, "graded_trapezoid")
        assert np.allclose(sp.cumulative_integral(g, np.ones(g.n)), g.nodes, rtol=1e-13)

    def test_zero(self):
        g = sp.build_grid(10.0, 101)
        assert np.all(sp.cumulative_integral(g, np.zeros(g.n)) == 0.0)
        assert np.all(sp.reverse_cumulative_integral(g, np.zeros(g.n)) == 0.0)

    def test_linear_integrand_exact(self):
        # trapezoid is exact on degree-1 integrands; oracle by direct summation
        g = sp.build_grid(10.0, 101)
        F = sp.cumulative_integral(g, g.nodes)
        assert np.allclose(F, g.nodes**2 / 2.0, rtol=1e-12, atol=1e-12)

    def test_reverse_of_ones(self):
        g = sp.build_grid(10.0, 101)
        G = sp.reverse_cumulative_integral(g, np.ones(g.n))
        assert np.allclose(G, 10.0 - g.nodes, rtol=1e-12, atol=1e-12)
        assert G[-1] == 0.0

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**31))
    def test_forward_plus_reverse_is_total(self, seed):
        g = sp.build_grid(7.0, 129, "graded_trapezoid")
        f = np.random.default_rng(seed).random(g.n)
        total = sp.integrate(g, f)
        both = sp.cumulative_integral(g, f) + sp.reverse_cumulative_integral(g, f)
        assert np.allclose(both, total, rtol=1e-12)

    def test_last_node_matches_integrate(self):
        g = sp.build_grid(7.0, 129)
        f = np.random.default_rng(11).random(g.n)
        assert sp.cumulative_integral(g, f)[-1] == pytest.approx(
            sp.integrate(g, f), rel=1e-12
        )

    def test_monotone_for_nonnegative(self):
        g = sp.build_grid(7.0, 129)
        f = np.random.default_rng(13).random(g.n)
        assert np.all(np.diff(sp.cumulative_integral(g, f)) >= 0)
        assert np.all(np.diff(sp.reverse_cumulative_integral(g, f)) <= 0)


class TestTranslate:
    def test_identity_shift(self):
        g = sp.build_grid(10.0, 101)
        f = np.exp(-g.nodes)
        assert np.array_equal(sp.translate(g, f, 0.0), f)

    def test_indicator_right_half_zero(self):
        g = sp.build_grid(10.0, 101)
        f = np.ones(g.n)
        shifted = sp.translate(g, f, 5.0)
        assert np.all(shifted[g.nodes > 5.0] == 0.0)
        assert np.all(shifted[g.nodes < 5.0] == 1.0)

    def test_exponential_aligned_shift(self):
        g = sp.build_grid(40.0, 4001)
        f = np.exp(-g.nodes)
        shifted = sp.translate(g, f, 0.1)
        interior = g.nodes <= 39.0
        assert np.allclose(shifted[interior], np.exp(-(g.nodes[interior] + 0.1)),
                           rtol=1e-8)

    def test_exponential_unaligned_shift(self):
        g = sp.build_grid(40.0, 4001)
        f = np.exp(-g.nodes)
        shifted = sp.translate(g, f, 0.1051)
        interior = g.nodes <= 39.0
        assert np.allclose(shifted[interior], np.exp(-(g.nodes[interior] + 0.1051)),
                           atol=2e-5)

    def test_roundtrip_aligned(self):
        g = sp.build_grid(10.0, 101)
        f = np.random.default_rng(5).random(g.n)
        back = sp.translate(g, sp.translate(g, f, 0.4), -0.4)
        inner = (g.nodes > 0.4) & (g.nodes < 10.0 - 0.4)
        # node alignment is only approximate in floating point
        assert np.allclose(back[inner], f[inner], rtol=1e-12, atol=1e-12)

    def test_large_shift_rejected(self):
        g = sp.build_grid(10.0, 101)
        with pytest.raises(ParameterError):
            sp.translate(g, np.ones(g.n), 10.0)

    def test_graded_grid_interpolates_linearly(self):
        g = sp.build_grid(10.0, 101, "graded_trapezoid")
        f = np.random.default_rng(7).random(g.n)
        for h in (0.5, 0.01, -0.3):
            expect = np.interp(g.nodes + h, g.nodes, f, left=0.0, right=0.0)
            assert sp.translate(g, f, h).tobytes() == expect.tobytes()


class TestDensityProfile:
    def test_wrong_length(self):
        g = sp.build_grid(10.0, 101)
        with pytest.raises(GridMismatchError):
            sp.DensityProfile(g, np.ones(5))

    def test_negative_values_rejected(self):
        g = sp.build_grid(10.0, 101)
        values = np.ones(g.n)
        values[3] = -1e-9
        with pytest.raises(ParameterError):
            sp.DensityProfile(g, values)

    def test_immutability(self):
        g = sp.build_grid(10.0, 101)
        p = sp.DensityProfile(g, np.ones(g.n))
        with pytest.raises(ValueError):
            p.values[0] = 2.0
        with pytest.raises(ValueError):
            g.nodes[0] = 1.0
