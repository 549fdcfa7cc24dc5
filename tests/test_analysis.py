import math
from fractions import Fraction

import pytest

from hypertraffic import generators, graphs
from hypertraffic.analysis import (
    GLOBAL,
    LOCAL,
    UNDECIDED,
    beta_c,
    classify_transition,
    default_window,
    growth_exponent,
    sweep,
    tree_closed_forms,
)
from hypertraffic import analysis
from hypertraffic.errors import (
    EmptySphere,
    EvenSide,
    HypertrafficError,
    InvalidRate,
    NotHyperbolic,
    ParseError,
    WindowTooLarge,
)
from hypertraffic.generators import FamilySpec, family_graph, gen_grid, gen_kary_tree
from hypertraffic.traffic import (
    ExponentialRate,
    PolynomialRate,
    node_loads,
    pair_census,
    traffic_totals,
)
from oracles import tree_closed_forms_exact, tree_distance_counts, tree_root_limit


class TestGrowthExponent:
    def test_binary_tree_exact(self):
        est = growth_exponent([1, 2, 4, 8, 16], 4)
        assert est.e_ratio == math.log(2.0)

    def test_constant_spheres(self):
        assert growth_exponent([5, 5, 5, 5], 3).e_ratio == 0.0

    def test_grid_linear_growth(self):
        spheres = [len(layer) for layer in gen_grid(51).layers]
        est = growth_exponent(spheres, default_window(spheres))
        assert est.e_ratio <= 0.05
        assert est.e_slope <= 0.05

    def test_shrinking_tail_clips_to_zero(self):
        assert growth_exponent([8, 6, 4, 2], 3).e_ratio == 0.0

    def test_slope_tracks_ratio_on_clean_growth(self):
        est = growth_exponent([1, 3, 9, 27, 81, 243], 4)
        assert est.e_ratio == pytest.approx(math.log(3.0), abs=1e-12)
        assert est.e_slope == pytest.approx(math.log(3.0), rel=0.2)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            growth_exponent([1, 2, 4], 3)
        with pytest.raises(WindowTooLarge):
            growth_exponent([1, 2, 4], 1)

    def test_empty_sphere(self):
        with pytest.raises(EmptySphere):
            growth_exponent([1, 2, 0, 4], 3)

    def test_default_window_is_trailing_half(self):
        assert default_window([1] * 9) == 4
        assert default_window([1, 2, 3]) == 2

    def test_no_window_uses_default(self):
        spheres = [1, 4, 12, 36, 108, 324, 972]
        assert growth_exponent(spheres) == growth_exponent(spheres, default_window(spheres))

    @pytest.mark.parametrize("spheres", [[1], [1, 2], [3, 7]])
    def test_fewer_than_three_spheres_grow_at_rate_zero(self, spheres):
        est = growth_exponent(spheres)
        assert (est.window, est.e_ratio, est.e_slope) == (0, 0.0, 0.0)
        assert est.sphere_sizes == tuple(spheres)


class TestBetaC:
    def test_exact_anchors(self):
        assert beta_c(math.log(9.0)) == 3.0
        assert beta_c(0.0) == 1.0

    def test_square_roots_within_ulp(self):
        for k in (2, 3, 4, 16, 25):
            assert beta_c(math.log(float(k))) == pytest.approx(
                math.sqrt(float(k)), rel=1e-15
            )

    def test_nine_ary_tree_pipeline_exact(self):
        est = growth_exponent([1, 9, 81, 729, 6561], 4)
        assert est.e_ratio == math.log(9.0)
        assert beta_c(est.e_ratio) == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            beta_c(-0.1)


class TestTreeDistanceCounts:
    def test_binary_depth2(self):
        assert tree_distance_counts(2, 2, 2) == 1
        assert tree_distance_counts(2, 2, 4) == 2

    def test_odd_is_zero(self):
        for p in (1, 3, 5, 7):
            assert tree_distance_counts(3, 4, p) == 0

    def test_zero_distance(self):
        assert tree_distance_counts(5, 3, 0) == 1

    def test_beyond_depth(self):
        assert tree_distance_counts(2, 3, 8) == 0

    @pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (4, 3), (2, 6)])
    def test_counts_partition_leaves(self, k, n):
        total = sum(tree_distance_counts(k, n, p) for p in range(2 * n + 1))
        assert total == k**n

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 5), (3, 4), (4, 3)])
    def test_census_distance_marginal(self, k, n):
        # every one of the k^n leaves sees the same distance counts
        marginal = pair_census(gen_kary_tree(k, n), n).sum(axis=1)
        assert marginal.tolist() == [k**n * tree_distance_counts(k, n, d) for d in range(2 * n + 1)]


class TestTreeClosedForms:
    def test_binary_depth2(self):
        out = tree_closed_forms(2, 2.0, 2)
        assert out["T"] == pytest.approx(5.5, rel=1e-15)
        assert out["P"] == pytest.approx(1.0 / 11.0, rel=1e-15)

    @staticmethod
    def assert_exact(k, beta, n):
        out = tree_closed_forms(k, beta, n)
        want = tree_closed_forms_exact(k, beta, n)
        for key in ("T", "P"):
            assert abs(Fraction(out[key]) - want[key]) / want[key] <= 1e-13

    def test_degenerate_beta_squared_equals_k(self):
        self.assert_exact(2, math.sqrt(2.0), 5)
        assert 0.0 < tree_closed_forms(2, math.sqrt(2.0), 5)["P"] < 1.0

    @pytest.mark.parametrize("k", [2, 3, 4, 9])
    @pytest.mark.parametrize("n", [1, 5, 10, 20, 40])
    @pytest.mark.parametrize("beta", [1.1, 2.0, 10.0])
    def test_matches_exact_rationals(self, k, n, beta):
        self.assert_exact(k, beta, n)

    # where a geometric form ((k/beta^2)^n - 1) / (k/beta^2 - 1) loses digits
    @pytest.mark.parametrize("k", [2, 3, 4, 9])
    @pytest.mark.parametrize("n", [1, 5, 10, 20, 40])
    @pytest.mark.parametrize("factor", [1 - 1e-9, 1.0, 1 + 1e-9])
    def test_matches_exact_rationals_near_sqrt_k(self, k, n, factor):
        self.assert_exact(k, math.sqrt(k) * factor, n)

    def test_just_off_beta_squared_equals_k(self):
        # 5.7e-9 off through the geometric form
        self.assert_exact(2, 1.4142135612524063, 10)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("beta", [1.1, 1.9, 3.0])
    @pytest.mark.parametrize("n", [1, 4, 12, 40])
    def test_share_in_unit_interval(self, k, beta, n):
        assert 0.0 < tree_closed_forms(k, beta, n)["P"] < 1.0

    def test_matches_engine(self):
        for k, beta, n in [(2, 1.3, 4), (3, 2.2, 3)]:
            g = gen_kary_tree(k, n)
            rate = ExponentialRate(beta)
            rep = traffic_totals(pair_census(g, n), rate)
            loads = node_loads(g, rate, n)
            closed = tree_closed_forms(k, beta, n)
            assert rep.T == pytest.approx(closed["T"], rel=1e-9)
            assert loads[0] / rep.T == pytest.approx(closed["P"], rel=1e-9)


class TestTreeRootLimit:
    def test_subcritical(self):
        assert tree_root_limit(4, 1.5) == 0.4375

    def test_boundary_is_zero(self):
        assert tree_root_limit(4, 2.0) == 0.0

    def test_supercritical(self):
        assert tree_root_limit(9, 3.5) == 0.0

    def test_closed_form_approaches_limit(self):
        assert tree_closed_forms(4, 1.5, 40)["P"] == pytest.approx(0.4375, abs=1e-3)


class TestClassify:
    def test_global(self):
        assert classify_transition([0.30, 0.38, 0.41, 0.43]) == GLOBAL

    def test_local(self):
        assert classify_transition([0.20, 0.08, 0.03, 0.01]) == LOCAL

    def test_undecided(self):
        assert classify_transition([0.20, 0.22, 0.18, 0.19]) == UNDECIDED

    def test_constant_high_is_global(self):
        assert classify_transition([0.4, 0.4, 0.4]) == GLOBAL

    def test_constant_low_is_local(self):
        assert classify_transition([0.01, 0.01, 0.01]) == LOCAL

    def test_too_few(self):
        assert classify_transition([0.5, 0.04]) == UNDECIDED
        assert classify_transition([0.5, 0.04], tail=2) == LOCAL

    def test_custom_thresholds(self):
        assert classify_transition([0.1, 0.12, 0.15], tau_g=0.1) == GLOBAL

    @pytest.mark.parametrize("tail", [0, -2])
    def test_tail_below_one(self, tail):
        # ratios[-0:] is the whole series and ratios[2:] drops the head
        with pytest.raises(ValueError, match="tail must be >= 1"):
            classify_transition([0.30, 0.38, 0.41, 0.43], tail=tail)


class TestSweep:
    def test_tree_grid(self):
        spec = FamilySpec(variant="tree", k=4, depth=0)
        report = sweep(spec, [1.5, 2.5], [3, 4, 5], 0)
        assert report.beta_c_pred == pytest.approx(2.0, rel=1e-12)
        assert report.labels[2.5] == LOCAL
        # subcritical ratios stay above the limit and drift down toward it
        series = [report.cells[(1.5, n)]["ratio"] for n in report.depths]
        limit = tree_root_limit(4, 1.5)
        assert all(a > b > limit for a, b in zip(series, series[1:]))
        assert series[-1] == pytest.approx(limit, abs=0.02)
        # supercritical ratios collapse
        assert report.cells[(2.5, 5)]["ratio"] < 0.05

    def test_ratios_non_increasing_in_beta(self):
        spec = FamilySpec(variant="tessellation", p=5, q=4, depth=0)
        report = sweep(spec, [1.2, 1.5, 1.9, 2.4], [3, 4, 5], 1)
        for n in report.depths:
            row = [report.cells[(b, n)]["ratio"] for b in report.betas]
            assert all(b <= a + 1e-12 for a, b in zip(row, row[1:]))
        for key, cell in report.cells.items():
            assert 0.0 <= cell["ratio"] <= 1.0

    def test_errors_recorded_not_fatal(self):
        spec = FamilySpec(variant="grid", side=5)
        report = sweep(spec, [1.5], [3, 4, 9], 2)
        assert 9 in report.errors
        assert (1.5, 3) in report.cells
        assert report.labels[1.5] == UNDECIDED  # only two usable depths

    def test_validation(self):
        spec = FamilySpec(variant="tree", k=2, depth=0)
        with pytest.raises(ValueError):
            sweep(spec, [1.5, 1.2], [3, 4, 5], 0)  # betas not ascending
        with pytest.raises(ValueError):
            sweep(spec, [1.5], [5, 4], 0)  # depths not ascending
        with pytest.raises(ValueError):
            sweep(spec, [1.5], [2, 3], 3)  # depth <= r
        with pytest.raises(ValueError):
            sweep(spec, [0.5, 1.5], [3, 4], 0)  # beta <= 1
        with pytest.raises(ValueError, match="r must be >= 0"):
            sweep(spec, [1.5], [3, 4, 5], -1)  # T_r[-1] would read T
        for tail in (0, -2):
            with pytest.raises(ValueError, match="tail must be >= 1"):
                sweep(spec, [1.5], [3, 4, 5], 0, tail=tail)

    @pytest.mark.parametrize("rate,betas", [
        (ExponentialRate, [0.5, 1.5]),
        (ExponentialRate, [1.5, math.inf]),
        (PolynomialRate, [-1.0, 2.0]),
    ])
    def test_rate_checked_before_any_graph(self, monkeypatch, rate, betas):
        calls = counting(monkeypatch, analysis, "family_graph")
        with pytest.raises(InvalidRate):
            sweep(FamilySpec(variant="tree", k=2), betas, [3, 4], 0, rate=rate)
        assert calls == []

    def test_depth_one_tree_grows_at_rate_zero(self):
        report = sweep(FamilySpec(variant="tree", k=2), [1.5, 2.0], [1], 0)
        assert report.growth == growth_exponent([1, 2])
        assert report.growth.window == 0 and report.beta_c_pred == 1.0
        assert report.errors == {} and len(report.cells) == 2

    def test_bracketed_crossing(self):
        """Under the polynomial control every LOCAL beta lies above every
        GLOBAL one, so the empirical beta_c is the bracket's midpoint."""
        spec = FamilySpec(variant="tree", k=2)
        report = sweep(spec, [0.5, 1, 2, 4, 8, 16], [3, 4, 5, 6], 0, rate=PolynomialRate)
        assert report.labels == {0.5: GLOBAL, 1.0: GLOBAL, 2.0: UNDECIDED,
                                 4.0: UNDECIDED, 8.0: LOCAL, 16.0: LOCAL}
        assert report.beta_c_emp == 4.5

    def test_polynomial_control_keeps_core(self):
        spec = FamilySpec(variant="tree", k=2, depth=0)
        report = sweep(spec, [2.0], [3, 4, 5, 6], 0, rate=PolynomialRate)
        series = [report.cells[(2.0, n)]["ratio"] for n in report.depths]
        assert all(b > a for a, b in zip(series, series[1:]))
        assert series[-1] > 0.1


def per_depth_sweep(spec, betas, depths, r):
    """(cells, errors, spheres) computed the plain way: a graph built afresh
    for every depth, its own census, and the spheres of the deepest graph
    whose census succeeded."""
    cells, errors, spheres = {}, {}, None
    for n in depths:
        try:
            g = family_graph(spec, depth=n)
            census = pair_census(g, n)
        except HypertrafficError as exc:
            errors[n] = str(exc)
            continue
        spheres = [len(layer) for layer in g.layers]
        for b in betas:
            rep = traffic_totals(census, ExponentialRate(b))
            cells[(b, n)] = {"T": rep.T, "T_r": rep.T_r[r], "ratio": rep.T_r[r] / rep.T}
    return cells, errors, spheres


def counting(monkeypatch, module, name):
    """Wrap module.name so each call is appended to the returned list."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSweepBuilds:
    BETAS = (1.3, 1.9, 2.5)

    # (family, depths, node cap): the deepest depths exceed the cap, or lie
    # beyond the grid's rim
    CAPPED = {
        "tess": (FamilySpec(variant="tessellation", p=5, q=4), (3, 4, 5, 6), 300),
        "tree": (FamilySpec(variant="tree", k=3), (2, 3, 4, 5), 300),
        "grid": (FamilySpec(variant="grid", side=5), (2, 3, 4, 5), 300),
    }

    @pytest.mark.parametrize("name", sorted(CAPPED))
    def test_capped_sweep_matches_per_depth_builds(self, name, monkeypatch):
        spec, depths, cap = self.CAPPED[name]
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", str(cap))
        report = sweep(spec, self.BETAS, depths, 1)
        cells, errors, spheres = per_depth_sweep(spec, self.BETAS, depths, 1)
        assert errors  # the cap or the rim is reached
        assert report.cells == cells
        assert list(report.errors.items()) == list(errors.items())
        assert list(report.growth.sphere_sizes) == spheres

    # under cap 200 depth 4 builds and depth 5 overflows, for either family
    OVERFLOWING = {
        "tess": (FamilySpec(variant="tessellation", p=5, q=4),
                 "tessellation (5,4) map exceeds node cap 200"),
        "tree": (FamilySpec(variant="tree", k=3), "tree k=3 depth=5 exceeds node cap 200"),
    }

    @pytest.mark.parametrize("name", sorted(OVERFLOWING))
    def test_builds_stop_at_the_first_overflow(self, name, monkeypatch):
        spec, message = self.OVERFLOWING[name]
        monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", "200")
        built = []
        real = analysis.family_graph

        def spy(spec, depth=None):
            built.append(depth)
            return real(spec, depth=depth)

        monkeypatch.setattr(analysis, "family_graph", spy)
        report = sweep(spec, self.BETAS, (2, 3, 4, 5, 6, 7), 1)
        assert built == [2, 3, 4, 5]
        assert report.errors == {5: message, 6: message, 7: message}
        assert sorted({n for _, n in report.cells}) == [2, 3, 4]

    def test_grid_built_once(self, monkeypatch):
        spec = FamilySpec(variant="grid", side=7)
        calls = counting(monkeypatch, generators, "gen_grid")
        report = sweep(spec, self.BETAS, (1, 2, 3), 0)
        assert len(calls) == 1
        cells, errors, spheres = per_depth_sweep(spec, self.BETAS, (1, 2, 3), 0)
        assert report.cells == cells and report.errors == errors == {}
        assert list(report.growth.sphere_sizes) == spheres

    def test_edge_list_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "cycle.txt"
        path.write_text("".join(f"{i} {(i + 1) % 6}\n" for i in range(6)))
        spec = FamilySpec(variant="edge_list", source=str(path))
        calls = counting(monkeypatch, graphs, "find_symmetries")
        report = sweep(spec, self.BETAS, (1, 2), 0)
        assert len(calls) == 1
        cells, errors, _ = per_depth_sweep(spec, self.BETAS, (1, 2), 0)
        assert report.cells == cells and report.errors == errors == {}

    def test_unparsable_edge_list_fails_once(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        spec = FamilySpec(variant="edge_list", source=str(path))
        with pytest.raises(ParseError) as info:
            sweep(spec, self.BETAS, (1, 2), 0)
        assert str(info.value) == "line 1: odd token count in '0 1 2'"

    # errors no depth causes: the first build raises them, and the sweep ends
    DEPTH_FREE = {
        "not-hyperbolic": (FamilySpec(variant="tessellation", p=3, q=3), None, NotHyperbolic,
                           "(3-2)(3-2) = 1 is not > 4"),
        "even-side": (FamilySpec(variant="grid", side=4), None, EvenSide,
                      "side must be odd, got 4"),
        "bad-k": (FamilySpec(variant="tree", k=1), None, ValueError, "k must be >= 2, got 1"),
        "bad-cap": (FamilySpec(variant="tree", k=2), "abc", HypertrafficError,
                    "HYPERTRAFFIC_NODE_CAP must be an integer, got 'abc'"),
    }

    @pytest.mark.parametrize("name", sorted(DEPTH_FREE))
    def test_depth_free_error_ends_the_sweep(self, name, monkeypatch):
        spec, cap, error, message = self.DEPTH_FREE[name]
        if cap is not None:
            monkeypatch.setenv("HYPERTRAFFIC_NODE_CAP", cap)
        calls = counting(monkeypatch, analysis, "family_graph")
        with pytest.raises(error) as info:
            sweep(spec, self.BETAS, (2, 3, 4), 0)
        assert str(info.value) == message
        assert len(calls) == 1

    def test_every_depth_past_the_rim(self):
        # each depth records its own EmptyBoundary, and the run names them all
        with pytest.raises(HypertrafficError) as info:
            sweep(FamilySpec(variant="grid", side=3), self.BETAS, (3, 4), 0)
        assert str(info.value) == (
            "every depth failed: no nodes at depth 3; graph has max depth 2; "
            "no nodes at depth 4; graph has max depth 2"
        )
