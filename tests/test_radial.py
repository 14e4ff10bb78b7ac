import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confinement_lab import radial
from confinement_lab.errors import RangeError, SingularityError, SolverError, ValidationError
from confinement_lab.radial import (
    EXPONENT_BAND,
    INCONCLUSIVE,
    LIMIT_CIRCLE,
    LIMIT_POINT,
    RadialProblem,
    classify_by_solving,
    classify_indicial,
    esa_verdict_radial,
    indicial_roots,
    reduce_disk_mode,
    reduce_monopole,
    solver_selftest,
    sweep_alpha,
    threshold_bisection,
)

SQRT3_2 = math.sqrt(3.0) / 2.0
# The reason of a problem the two collocations disagree on.
UNRESOLVED = re.compile(
    r"integration failed: collocations at 16 and 24 nodes differ by \d\.\de[+-]\d\d")


def synthetic_problem(c):
    return RadialProblem(
        q=lambda r, _c=c: _c / np.asarray(r, float) ** 2,
        interval=(0.0, 1.0),
        decisive_endpoints=(0.0,),
        provenance={"reduction": "synthetic"},
    )


def pole_problem():
    """A fourth-order pole at r = 0.05, inside the window integrated toward 0."""
    return RadialProblem(
        q=lambda r: 1.0 / (np.asarray(r, float) - 0.05) ** 4,
        interval=(0.0, 1.0),
        decisive_endpoints=(0.0,),
        provenance={"reduction": "synthetic"},
    )


potentials = st.one_of(
    st.builds(lambda alpha, m: reduce_disk_mode(alpha, m).q,
              st.floats(1e-3, 1e3, exclude_min=True), st.integers(-3, 3)),
    st.builds(lambda charge: reduce_monopole(charge).q, st.integers(-6, 6).filter(bool)),
    # the self-test's c / r^2, at its couplings and elsewhere
    st.builds(radial._inverse_square, st.sampled_from((0.0, 0.3, 0.74, 0.76, 2.0))
              | st.floats(-10.0, 10.0)),
)


def evaluated(q, r):
    """(bits of q(r), the RuntimeWarnings it raised); numpy says "scalar
    divide" where an array says "divide", so that word is dropped."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = q(r)
    return np.float64(value).tobytes(), [
        (w.category, str(w.message).replace("scalar ", "")) for w in caught]


def counted(problem):
    """Wrap ``problem``'s potential; the returned list grows by one per call."""
    calls = []
    q = problem.q
    problem.q = lambda r: calls.append(r) or q(r)
    return calls


class TestReductions:
    def test_disk_mode_potential_frozen_value(self):
        p = reduce_disk_mode(0.5, 1)
        # (1 - 1/4)/r^2 + 2 m a r/(r-1) + a^2 r^2/(r-1)^2 at r = 1/2
        assert p.q(0.5) == pytest.approx(3.0 - 1.0 + 0.25, rel=1e-14)
        assert p.interval == (0.0, 1.0)
        assert p.decisive_endpoints == (1.0,)

    def test_disk_mode_batched_potential(self):
        p = reduce_disk_mode(0.7, 0)
        r = np.array([0.2, 0.5, 0.9])
        expect = -0.25 / r**2 + 0.49 * r**2 / (r - 1.0) ** 2
        assert np.allclose(p.q(r), expect, rtol=1e-14)

    def test_disk_mode_validation(self):
        with pytest.raises(ValidationError):
            reduce_disk_mode(0.0, 0)
        with pytest.raises(ValidationError):
            reduce_disk_mode(0.5, 1.5)
        reduce_disk_mode(1.2, -3)  # alpha beyond the field-class range is fine here

    def test_monopole_reduction(self):
        p = reduce_monopole(3)
        r = np.array([0.5, 2.0])
        assert np.allclose(p.q(r), 1.5 / r**2)
        assert p.interval == (0.0, math.inf)
        assert p.decisive_endpoints == (0.0, math.inf)
        assert p.provenance["angular_level"] == "3/2"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(potentials, st.lists(st.floats(0.0, 1e6) | st.floats(0.0, 1.0), min_size=1,
                                max_size=100))
    @example(reduce_disk_mode(0.5, 1).q, [1.0])   # the disk pole
    @example(reduce_disk_mode(0.5, 0).q, [1.0])
    @example(reduce_disk_mode(0.5, 2).q, [0.0])   # the polar origin
    # Here a float64 scalar's x**2, computed through pow, moves q by an ulp.
    @example(reduce_disk_mode(0.5, 0).q, [0.7449])
    @example(reduce_disk_mode(0.5, 1).q, [0.0588, 0.9477])
    @example(reduce_monopole(1).q, [0.0397])
    @example(radial._inverse_square(0.3), [0.6352])
    @example(reduce_monopole(2).q, [0.0])         # the monopole puncture
    @example(reduce_monopole(-3).q, [1e-170])     # r * r underflows to 0
    @example(radial._inverse_square(0.0), [0.0])
    def test_scalar_potential_matches_array_bit_for_bit(self, q, rs):
        # Both methods call q with arrays; a float must give the same bits.
        for r in rs:
            array_bits, array_warned = evaluated(lambda x: q(x)[0], np.array([r]))
            for scalar in (r, np.float64(r)):
                assert evaluated(q, scalar) == (array_bits, array_warned)

    def test_potential_pole_warns_and_returns_inf(self):
        bits, warned = evaluated(reduce_monopole(2).q, 0.0)
        assert bits == np.float64(np.inf).tobytes()
        assert warned == [(RuntimeWarning, "divide by zero encountered in divide")]


class TestIndicial:
    def test_roots(self):
        s_m, s_p = indicial_roots(0.0)
        assert (s_m, s_p) == (0.0, 1.0)
        s_m, s_p = indicial_roots(2.0)
        assert s_m == pytest.approx((1 - 3) / 2)
        assert s_p == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.0, 1.2])
    def test_disk_boundary_coupling_is_alpha_squared(self, alpha):
        cls = classify_indicial(reduce_disk_mode(alpha, 0), 1.0)
        assert cls.c == pytest.approx(alpha**2, rel=1e-6)

    def test_disk_origin_coupling_is_coordinate_artifact(self):
        cls = classify_indicial(reduce_disk_mode(0.5, 2), 0.0)
        assert cls.c == pytest.approx(4.0 - 0.25, rel=1e-6)
        assert cls.kind == LIMIT_POINT

    def test_flip_across_critical_alpha(self):
        assert classify_indicial(reduce_disk_mode(0.86, 0), 1.0).kind == LIMIT_CIRCLE
        assert classify_indicial(reduce_disk_mode(0.87, 0), 1.0).kind == LIMIT_POINT

    def test_exactly_critical_is_inconclusive(self):
        cls = classify_indicial(reduce_disk_mode(SQRT3_2, 0), 1.0)
        assert cls.kind == INCONCLUSIVE

    def test_monopole_endpoints(self):
        p2 = reduce_monopole(2)
        assert classify_indicial(p2, 0.0).kind == LIMIT_POINT
        assert classify_indicial(p2, math.inf).kind == LIMIT_POINT
        p1 = reduce_monopole(1)
        cls = classify_indicial(p1, 0.0)
        assert cls.kind == LIMIT_CIRCLE
        assert cls.c == pytest.approx(0.5, rel=1e-9)

    def test_regular_endpoint_is_limit_circle(self):
        p = RadialProblem(
            q=lambda r: np.zeros_like(np.asarray(r, float)),
            interval=(0.0, 1.0),
            decisive_endpoints=(1.0,),
            provenance={},
        )
        cls = classify_indicial(p, 1.0)
        assert cls.kind == LIMIT_CIRCLE
        assert cls.c == pytest.approx(0.0, abs=1e-12)
        assert cls.diagnostics["regular"]

    def test_supercritical_positive_blowup_is_limit_point(self):
        p = RadialProblem(
            q=lambda r: 1.0 / np.asarray(r, float) ** 3,
            interval=(0.0, 1.0),
            decisive_endpoints=(0.0,),
            provenance={},
        )
        cls = classify_indicial(p, 0.0)
        assert cls.kind == LIMIT_POINT
        assert cls.c == math.inf

    def test_supercritical_negative_blowup_rejected(self):
        p = RadialProblem(
            q=lambda r: -1.0 / np.asarray(r, float) ** 3,
            interval=(0.0, 1.0),
            decisive_endpoints=(0.0,),
            provenance={},
        )
        with pytest.raises(SingularityError):
            classify_indicial(p, 0.0)

    def test_non_endpoint_rejected(self):
        with pytest.raises(RangeError):
            classify_indicial(reduce_disk_mode(0.5, 0), 0.5)

    @pytest.mark.parametrize("classify", [classify_indicial, classify_by_solving],
                             ids=["indicial", "solve"])
    def test_infinite_endpoint_of_a_finite_interval_rejected(self, classify):
        # The disk mode lives on (0, 1); infinity is no endpoint of it.
        with pytest.raises(RangeError):
            classify(reduce_disk_mode(0.5, 0), math.inf)


class TestSolving:
    def test_selftest_accuracy(self):
        assert solver_selftest() < 1e-3

    def test_exponent_matches_indicial_root(self):
        for alpha, exact_c in ((0.5, 0.25), (1.0, 1.0)):
            cls = classify_by_solving(reduce_disk_mode(alpha, 0), 1.0)
            exact = (1.0 - math.sqrt(1.0 + 4.0 * exact_c)) / 2.0
            assert min(cls.diagnostics["exponents"]) == pytest.approx(exact, abs=2e-3)

    def test_verdicts_match_indicial_away_from_threshold(self):
        assert classify_by_solving(reduce_disk_mode(0.5, 0), 1.0).kind == LIMIT_CIRCLE
        assert classify_by_solving(reduce_disk_mode(1.0, 0), 1.0).kind == LIMIT_POINT

    def test_critical_coupling_is_inconclusive(self):
        cls = classify_by_solving(synthetic_problem(0.75), 0.0)
        assert cls.kind == INCONCLUSIVE
        assert abs(min(cls.diagnostics["exponents"]) + 0.5) < EXPONENT_BAND

    def test_infinite_endpoint_limit_point(self):
        cls = classify_by_solving(reduce_monopole(2), math.inf)
        assert cls.kind == LIMIT_POINT
        # nonreal spectral parameter forces growth Re sqrt(-i) = sqrt(2)/2
        assert max(cls.diagnostics["growth_rates"]) == pytest.approx(math.sqrt(2) / 2, abs=1e-2)

    def test_infinite_endpoint_fit_residuals(self):
        # The residual is the curvature of the WKB phase over the last 8
        # samples: Re sqrt(-i + c/r^2) = sqrt(2)/2 + c/(2 sqrt(2) r^2) + ...
        cls = classify_by_solving(reduce_monopole(2), math.inf)
        r = np.linspace(26.0, 40.0, 8)
        tail = -1.0 / (2.0 * math.sqrt(2.0) * r)
        curvature = np.max(np.abs(tail - np.polyval(np.polyfit(r, tail, 1), r)))
        resids = cls.diagnostics["fit_residuals"]
        assert len(resids) == 2 and all(math.isfinite(v) for v in resids)
        assert resids == pytest.approx([curvature, curvature], rel=0.01)

    @pytest.mark.parametrize("problem, endpoint, budget", [
        (reduce_disk_mode(0.9, 0), 1.0, 600),
        (reduce_monopole(2), math.inf, 2000),
        (reduce_disk_mode(0.5, 0), 1.0, 600),
    ])
    def test_q_evaluations_per_classification(self, problem, endpoint, budget):
        calls = counted(problem)
        classify_by_solving(problem, endpoint)
        assert len(calls) <= budget

    # Recorded with an independent integration (RK45, one solve per initial
    # condition, same tolerances and windows).
    @pytest.mark.parametrize("problem, endpoint, key, expected", [
        (reduce_disk_mode(0.5, 0), 1.0, "exponents",
         [-0.20706662615015056, -0.2070892637667099]),
        (reduce_disk_mode(0.9, 0), 1.0, "exponents",
         [-0.529514446282379, -0.5295147601349258]),
        (reduce_monopole(2), 0.0, "exponents", [-0.6180339662621673, -0.6180340476567733]),
        (reduce_monopole(2), math.inf, "growth_rates",
         [0.7074424761164978, 0.7074424761071467]),
    ])
    def test_exponents_pinned(self, problem, endpoint, key, expected):
        cls = classify_by_solving(problem, endpoint)
        assert cls.diagnostics[key] == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_member_alone_is_inconclusive(self):
        pole = classify_by_solving(pole_problem(), 0.0)
        assert pole.kind == INCONCLUSIVE
        assert UNRESOLVED.fullmatch(pole.diagnostics["reason"])
        assert list(pole.diagnostics) == ["reason"]

    # The true solution of c = 1e4 grows like dist^-99.5 and overflows over
    # the sample window; c = -1e6 oscillates too fast for the node counts
    # even on intervals halved REFINEMENTS times.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c, reason", [
        (1e4, re.compile(r"integration failed: \|w\| is not finite")),
        (-1e6, UNRESOLVED),
    ], ids=["overflowing", "unresolved"])
    def test_unresolved_member_is_inconclusive(self, c, reason):
        bad = classify_by_solving(synthetic_problem(c), 0.0)
        assert bad.kind == INCONCLUSIVE
        assert reason.fullmatch(bad.diagnostics["reason"])

    # Strong couplings, which the node counts do not resolve on the sample
    # intervals, are classified on halved intervals.
    @pytest.mark.parametrize("problem, endpoint, kind, c", [
        (synthetic_problem(70.0), 0.0, LIMIT_POINT, 70.0),
        (synthetic_problem(5000.0), 0.0, LIMIT_POINT, 5000.0),
        (synthetic_problem(-100.0), 0.0, LIMIT_CIRCLE, None),
        (synthetic_problem(-1e4), 0.0, LIMIT_CIRCLE, None),
        (reduce_disk_mode(9.0, 0), 1.0, LIMIT_POINT, None),
        (reduce_disk_mode(70.0, 3), 1.0, LIMIT_POINT, None),
        (reduce_monopole(140), 0.0, LIMIT_POINT, 70.0),
    ], ids=["c70", "c5000", "c-100", "c-1e4", "alpha9", "alpha70", "charge140"])
    def test_strong_coupling_is_classified(self, problem, endpoint, kind, c):
        cls = classify_by_solving(problem, endpoint)
        assert cls.kind == kind
        if c is not None:
            assert cls.c == pytest.approx(c, rel=1e-9)

    def test_halving_leaves_resolved_intervals_alone(self):
        # w'' = w' + g w with constant g: the transfer matrix is exp(h A).
        from scipy.linalg import expm

        g = 100.0 - 1.0j
        coefficient = lambda t: np.full(np.shape(t), g)  # noqa: E731
        starts, ends = np.array([0.0, -0.2]), np.array([-0.2, -0.2 - math.log(2.0)])
        steps = radial._transfers(coefficient, starts, ends, 1.0, radial.REFINEMENTS)
        # the short interval is resolved as it stands, the long one only halved
        short = radial._transfers(coefficient, starts[:1], ends[:1], 1.0, 0)
        assert steps[0].tobytes() == short[0].tobytes()
        with pytest.raises(SolverError, match="nodes differ by"):
            radial._transfers(coefficient, starts[1:], ends[1:], 1.0, 0)
        for step, h in zip(steps, ends - starts):
            exact = expm(h * np.array([[0.0, 1.0], [g, 1.0]]))
            assert np.max(np.abs(step - exact)) <= 1e-9 * np.max(np.abs(exact))

    @pytest.mark.parametrize("c", [1e15, 1e100, -1e10])
    def test_stiff_member_is_inconclusive(self, c):
        # Far past resolution both node counts reach the same stiff limit at
        # the interval ends; their interiors still disagree.
        cls = classify_by_solving(synthetic_problem(c), 0.0)
        assert cls.kind == INCONCLUSIVE

    def test_potential_called_with_arrays_once_per_node_count(self):
        problem = reduce_disk_mode(0.9, 0)
        calls = counted(problem)
        classify_by_solving(problem, 1.0)
        assert [np.shape(r) for r in calls] == [(14, n) for n in radial.NODE_COUNTS]

    def test_non_finite_potential_raises(self):
        # A coefficient that is not finite at a node is an error, not a verdict.
        nan = RadialProblem(q=lambda r: np.asarray(r, float) * np.nan, interval=(0.0, 1.0),
                            decisive_endpoints=(0.0,), provenance={})
        with pytest.raises(SingularityError, match="^coefficient is not finite at t = "):
            classify_by_solving(nan, 0.0)

    def test_oscillatory_subcritical_is_limit_circle(self):
        # c < -1/4 gives complex indicial roots with real part 1/2: limit
        # circle, and the two fitted exponents disagree, so no c is read off
        for c in (-1.0, -100.0):
            cls = classify_by_solving(synthetic_problem(c), 0.0)
            assert cls.kind == LIMIT_CIRCLE
            assert (cls.c, cls.s_minus, cls.s_plus) == (None, None, None)


class TestVerdicts:
    def test_monopole_esa_iff_two_flux_quanta(self):
        assert esa_verdict_radial(reduce_monopole(2)).esa is True
        assert esa_verdict_radial(reduce_monopole(-2)).esa is True
        assert esa_verdict_radial(reduce_monopole(1)).esa is False
        assert esa_verdict_radial(reduce_monopole(-1)).esa is False
        assert esa_verdict_radial(reduce_monopole(0)).esa is False

    def test_disk_esa_flips_at_critical_alpha(self):
        below = esa_verdict_radial(reduce_disk_mode(0.5, 0))
        assert below.esa is False
        assert any("mode decomposition" in c for c in below.caveats)
        above = esa_verdict_radial(reduce_disk_mode(1.0, 0))
        assert above.esa is True

    def test_inconclusive_exact_threshold(self):
        verdict = esa_verdict_radial(reduce_disk_mode(SQRT3_2, 0))
        assert verdict.esa is None

    def test_batch_keeps_order_and_endpoints(self):
        problems = [reduce_monopole(1), reduce_disk_mode(0.5, 0), reduce_monopole(2)]
        verdicts = [esa_verdict_radial(p, method="solve") for p in problems]
        assert [v.esa for v in verdicts] == [False, False, True]
        assert [list(v.endpoint_reports) for v in verdicts] == [[0.0, math.inf], [1.0],
                                                                 [0.0, math.inf]]

    def test_solve_method_agrees(self):
        assert esa_verdict_radial(reduce_monopole(2), method="solve").esa is True
        assert esa_verdict_radial(reduce_disk_mode(0.5, 0), method="solve").esa is False


class TestSweepAndBisection:
    def test_sweep_rows(self):
        rows = sweep_alpha([0.5, 0.9])
        assert [r["kind"] for r in rows] == [LIMIT_CIRCLE, LIMIT_POINT]
        assert rows[0]["c"] == pytest.approx(0.25, rel=1e-6)
        assert rows[0]["s_minus"].real == pytest.approx((1 - math.sqrt(2)) / 2, rel=1e-5)
        assert rows[1]["s_plus"].real == pytest.approx((1 + math.sqrt(4.24)) / 2, rel=1e-4)

    def test_bisection_indicial_precision(self, monkeypatch):
        monkeypatch.setattr(radial, "BISECTION_TOL", 1e-4)
        est = threshold_bisection(method="indicial")
        assert abs(est - SQRT3_2) < 1e-3

    def test_bisection_solve_within_band(self):
        est = threshold_bisection(method="solve")
        assert abs(est - SQRT3_2) < 0.05

    def test_bisection_solve_wide_bracket(self):
        # The solve method classifies alpha = 9 (c = 81) on halved intervals.
        est = threshold_bisection(lo=0.5, hi=9.0, method="solve")
        assert abs(est - SQRT3_2) < 0.05

    def test_bisection_unsolvable_end_raises(self):
        # An end the solver cannot integrate says nothing about the transition.
        with pytest.raises(SolverError, match=r"alpha = 1000\.0: integration failed"):
            threshold_bisection(lo=0.5, hi=1000.0, method="solve")

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValidationError):
            threshold_bisection(lo=0.9, hi=1.2, method="indicial")


@pytest.fixture
def classify_calls(monkeypatch):
    """Wrap both classifiers in the module, as ``bench/tracer.py`` does; the
    returned list grows by (classifier, problem, endpoint) per call."""
    calls = []
    for name in ("classify_by_solving", "classify_indicial"):
        def wrapper(problem, endpoint, _name=name, _original=getattr(radial, name)):
            calls.append((_name, problem, endpoint))
            return _original(problem, endpoint)
        monkeypatch.setattr(radial, name, wrapper)
    return calls


@pytest.fixture
def made_modes(monkeypatch):
    """Record every disk mode ``radial`` reduces."""
    made = []
    reduce = radial.reduce_disk_mode
    monkeypatch.setattr(radial, "reduce_disk_mode",
                        lambda alpha, mode: made.append(reduce(alpha, mode)) or made[-1])
    return made


CLASSIFIERS = {"indicial": "classify_indicial", "solve": "classify_by_solving"}


class TestClassifierLookup:
    """Every classification goes through the module's classifier attributes,
    looked up at call time, once per (problem, endpoint): a wrapper installed
    on them sees every call."""

    @pytest.mark.parametrize("method", ["indicial", "solve"])
    def test_verdict_classifies_each_decisive_endpoint_once(self, classify_calls, method):
        for problem in (reduce_monopole(2), reduce_disk_mode(0.5, 0)):
            classify_calls.clear()
            verdict = esa_verdict_radial(problem, method=method)
            assert [(name, ep) for name, _, ep in classify_calls] == [
                (CLASSIFIERS[method], ep) for ep in problem.decisive_endpoints]
            assert all(p is problem for _, p, _ in classify_calls)
            assert list(verdict.endpoint_reports) == list(problem.decisive_endpoints)

    @pytest.mark.parametrize("method", ["indicial", "solve"])
    def test_sweep_classifies_each_alpha_once(self, classify_calls, made_modes, method):
        rows = sweep_alpha([0.5, 0.9, 1.2], method=method)
        assert classify_calls == [(CLASSIFIERS[method], p, 1.0) for p in made_modes]
        assert [p.provenance["alpha"] for p in made_modes] == [r["alpha"] for r in rows]

    @pytest.mark.parametrize("method", ["indicial", "solve"])
    def test_bisection_classifies_each_probe_once(self, classify_calls, made_modes, method):
        threshold_bisection(method=method)
        assert len(made_modes) > 2
        assert classify_calls == [(CLASSIFIERS[method], p, 1.0) for p in made_modes]
