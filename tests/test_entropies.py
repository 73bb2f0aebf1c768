"""Pointwise entropy functions: closed-form spot values, the ordering of the
three statistics, Fenchel-Young equality/inequality, consistency of every
derivative with finite differences, and agreement of the elementwise numpy
bodies with the scalar math reference in conftest at every float edge."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entromin import (
    DomainError,
    Entropy,
    entropy_conjugate,
    entropy_conjugate_derivative,
    entropy_derivative,
    entropy_value,
)

from conftest import (
    ref_entropy_conjugate,
    ref_entropy_conjugate_derivative,
    ref_entropy_derivative,
    ref_entropy_value,
)

MB = Entropy.MAXWELL_BOLTZMANN
BE = Entropy.BOSE_EINSTEIN
FD = Entropy.FERMI_DIRAC

INF = math.inf


class TestValues:
    def test_sign_constants(self):
        assert BE.a == -1 and MB.a == 0 and FD.a == 1

    def test_mb_zero_convention(self):
        assert entropy_value(MB, 0.0) == 0.0

    def test_mb_at_one(self):
        assert entropy_value(MB, 1.0) == -1.0

    def test_fd_half(self):
        assert entropy_value(FD, 0.5) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_be_negative_is_inf(self):
        assert entropy_value(BE, -0.1) == INF

    def test_fd_outside_unit_interval(self):
        assert entropy_value(FD, 1.5) == INF
        assert entropy_value(FD, 1.0) == 0.0
        assert entropy_value(FD, 0.0) == 0.0

    def test_be_zero(self):
        assert entropy_value(BE, 0.0) == 0.0


class TestConjugates:
    def test_mb(self):
        assert entropy_conjugate(MB, 0.0) == 1.0

    def test_fd(self):
        assert entropy_conjugate(FD, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_be_nonnegative_is_inf(self):
        assert entropy_conjugate(BE, 0.0) == INF
        assert entropy_conjugate(BE, 1.0) == INF

    def test_stability_large_arguments(self):
        # softplus must not overflow and must match its asymptotes
        assert entropy_conjugate(FD, 800.0) == pytest.approx(800.0, rel=1e-12)
        assert entropy_conjugate(FD, -745.0) == pytest.approx(math.exp(-745.0), rel=1e-10)
        assert entropy_conjugate(BE, -745.0) == pytest.approx(math.exp(-745.0), rel=1e-10)
        assert entropy_conjugate(MB, 1000.0) == INF


class TestConjugateDerivative:
    def test_mb(self):
        assert entropy_conjugate_derivative(MB, 0.0) == 1.0

    def test_fd(self):
        assert entropy_conjugate_derivative(FD, 0.0) == 0.5

    def test_be(self):
        assert entropy_conjugate_derivative(BE, -math.log(2.0)) == pytest.approx(1.0, abs=1e-14)

    def test_be_domain(self):
        with pytest.raises(DomainError):
            entropy_conjugate_derivative(BE, 0.0)


class TestDerivative:
    def test_mb(self):
        assert entropy_derivative(MB, 1.0) == 0.0

    def test_fd_symmetry(self):
        assert entropy_derivative(FD, 0.5) == 0.0

    def test_be(self):
        assert entropy_derivative(BE, 1.0) == pytest.approx(-math.log(2.0), abs=1e-15)

    @pytest.mark.parametrize(
        "kind,u",
        [(MB, 0.0), (MB, -1.0), (BE, 0.0), (FD, 0.0), (FD, 1.0), (FD, 2.0)],
    )
    def test_empty_subdifferential(self, kind, u):
        with pytest.raises(DomainError):
            entropy_derivative(kind, u)


def test_ordering_on_grid():
    # BE <= MB <= FD everywhere, including boundary and out-of-domain points
    grid = [-2.0, -0.5, 0.0, 1e-12, 0.3, 0.5, 0.999, 1.0, 1.5, 7.0, 100.0]
    for u in grid:
        be, mb, fd = (entropy_value(k, u) for k in (BE, MB, FD))
        assert be <= mb <= fd


@given(st.floats(1e-9, 50.0))
def test_fenchel_young_equality_mb_be(u):
    for kind in (MB, BE):
        t = entropy_derivative(kind, u)
        gap = entropy_value(kind, u) + entropy_conjugate(kind, t) - u * t
        assert abs(gap) <= 1e-10


@given(st.floats(1e-9, 1.0 - 1e-9))
def test_fenchel_young_equality_fd(u):
    t = entropy_derivative(FD, u)
    gap = entropy_value(FD, u) + entropy_conjugate(FD, t) - u * t
    assert abs(gap) <= 1e-10


@settings(max_examples=300)
@given(st.floats(0.0, 30.0), st.floats(-40.0, 10.0))
def test_fenchel_young_inequality(u, t):
    for kind in (MB, BE, FD):
        w = entropy_value(kind, u)
        ws = entropy_conjugate(kind, t)
        if math.isinf(w) or math.isinf(ws):
            continue
        assert w + ws - u * t >= -1e-12


@pytest.mark.parametrize("kind,t_lo,t_hi", [(MB, -5.0, 2.0), (FD, -5.0, 2.0), (BE, -5.0, -0.05)])
def test_conjugate_matches_grid_sup(kind, t_lo, t_hi):
    # sup_u (u t - W(u)) over a fine grid reproduces W* to grid resolution
    n = 40_000
    hi = 1.0 if kind is FD else 25.0
    u = hi * np.arange(n + 1) / n
    w = entropy_value(kind, u)
    inside = ~np.isinf(w)
    for t in [t_lo, 0.5 * (t_lo + t_hi), t_hi]:
        best = float(np.max(u[inside] * t - w[inside]))
        assert best == pytest.approx(entropy_conjugate(kind, t), abs=1e-4)


@pytest.mark.parametrize("kind", [MB, BE, FD])
def test_derivative_matches_finite_differences(kind):
    h = 1e-5
    points = [0.2, 0.5, 0.8] if kind is FD else [0.2, 0.7, 1.5, 4.0]
    for u in points:
        fd_est = (entropy_value(kind, u + h) - entropy_value(kind, u - h)) / (2 * h)
        assert abs(entropy_derivative(kind, u) - fd_est) <= 1e-6


@pytest.mark.parametrize("kind,ts", [(MB, [-2.0, 0.5]), (FD, [-2.0, 0.5]), (BE, [-2.0, -0.3])])
def test_conjugate_derivative_matches_finite_differences(kind, ts):
    h = 1e-5
    for t in ts:
        fd_est = (entropy_conjugate(kind, t + h) - entropy_conjugate(kind, t - h)) / (2 * h)
        assert abs(entropy_conjugate_derivative(kind, t) - fd_est) <= 1e-6


@given(st.floats(1e-6, 20.0))
def test_inverse_gradient_identity_mb_be(u):
    for kind in (MB, BE):
        t = entropy_derivative(kind, u)
        assert entropy_conjugate_derivative(kind, t) == pytest.approx(u, rel=1e-10)


@given(st.floats(1e-6, 1.0 - 1e-6))
def test_inverse_gradient_identity_fd(u):
    t = entropy_derivative(FD, u)
    assert entropy_conjugate_derivative(FD, t) == pytest.approx(u, rel=1e-10)


# -- elementwise numpy bodies against the scalar math reference --------------

TINY = 5e-324
MIN_NORMAL = 2.2250738585072014e-308
NAN = math.nan
# arguments u of W and W': the domain ends, outside it, nan, +-inf,
# subnormals, 1 -+ 1 ulp for fermi-dirac, and far into the range
EDGE_U = (
    0.0, -0.0, 1.0, -1.0, -TINY, -1e300, NAN, INF, -INF, TINY, 1e-310,
    MIN_NORMAL, 1e-300, 1e-12, 0.5, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 2.0,
    math.e, 710.0, 1e15, 1e300, 1.7976931348623157e308,
)
# arguments t of W* and W*': 0, nan, +-inf, subnormals, beyond the exp
# cut at 709, t -> 0- where exp(t) rounds to 1, large |t| for the
# fermi-dirac softplus, and the bose-einstein (W*)' beyond -709.78
EDGE_T = (
    0.0, -0.0, NAN, INF, -INF, TINY, -TINY, 1e-310, -1e-310, -1e-17,
    -(2.0**-60), -1e-9, -0.01, -math.log(2.0), 1.0, -1.0, 36.0, -36.0,
    40.0, -40.0, 708.0, 709.0, 709.5, 709.79, 710.0, -708.0, -709.0,
    -745.0, -746.0, 800.0, -800.0, 1e10, -1e10, 1e300, -1e300,
)
FUNCTIONS = (
    (entropy_value, ref_entropy_value, EDGE_U),
    (entropy_derivative, ref_entropy_derivative, EDGE_U),
    (entropy_conjugate, ref_entropy_conjugate, EDGE_T),
    (entropy_conjugate_derivative, ref_entropy_conjugate_derivative, EDGE_T),
)


def _xlogx_size(u):
    return abs(u * math.log(u)) if u > 0.0 else 0.0


def _ulp_scale(fn, kind, x, ref):
    """The largest magnitude among the result and the quantities the formula
    adds (or, for bose-einstein's -log1p(-e^t), divides by 1 - e^t): numpy's
    log, log1p and exp differ from libm's by up to 1 ulp, and each of those
    ulps reaches the result at that scale."""
    size = abs(ref)
    if fn is entropy_value:
        other = {MB: abs(x), BE: _xlogx_size(1.0 + x), FD: _xlogx_size(1.0 - x)}[kind]
        size = max(size, _xlogx_size(x), other)
    elif fn is entropy_derivative and kind is not MB:
        size = max(size, abs(math.log(x)), abs(math.log1p(x if kind is BE else -x)))
    elif fn is entropy_conjugate and kind is BE:
        z = math.exp(x)
        size = max(size, z / (1.0 - z))
    return size


def _matches(fn, kind, x, got, ref):
    """Special values (nan, +-inf, signed zeros) match exactly, finite values
    within 2 ulp of _ulp_scale."""
    if not math.isfinite(ref) or ref == 0.0:
        return repr(got) == repr(ref)
    return abs(got - ref) <= 2.0 * math.ulp(_ulp_scale(fn, kind, x, ref))


@pytest.fixture
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.usefixtures("warnings_are_errors")
@pytest.mark.parametrize("kind", [MB, BE, FD])
@pytest.mark.parametrize("fn,ref,edges", FUNCTIONS, ids=lambda v: getattr(v, "__name__", ""))
class TestArrayBodies:
    def test_edges_match_the_reference(self, fn, ref, edges, kind):
        for x in edges:
            try:
                want = ref(kind, x)
            except DomainError as exc:
                with pytest.raises(DomainError) as got:
                    fn(kind, x)
                assert str(got.value) == str(exc)
                continue
            except OverflowError:
                # the reference's expm1(-t) overflows; e^t / (1 - e^t) is 0
                # to the float resolution there
                assert (fn, kind, x < -709.78) == (entropy_conjugate_derivative, BE, True)
                want = 0.0
            got = fn(kind, x)
            assert type(got) is float
            assert _matches(fn, kind, x, got, want), (x, got, want)

    def test_seeded_sample_matches_the_reference(self, fn, ref, edges, kind):
        rng = np.random.default_rng(20)
        if edges is EDGE_U:
            xs = np.concatenate([rng.uniform(0.0, 1.0, 600), np.exp(rng.uniform(-740.0, 700.0, 600))])
            if kind is FD:
                xs = xs[xs < 1.0]
            xs = xs[xs > 0.0]
        else:
            xs = np.concatenate([rng.uniform(-40.0, 40.0, 600), -np.exp(rng.uniform(-740.0, 6.5, 600))])
            if kind is BE:
                # where libm rounds e^t to 1.0: the guard test below
                xs = xs[xs < -(2.0**-54)]
        for x, got in zip(xs.tolist(), fn(kind, xs).tolist()):
            assert _matches(fn, kind, x, got, ref(kind, x)), (x, got)

    def test_arrays_keep_shape_and_scalar_values(self, fn, ref, edges, kind):
        xs = np.array([x for x in edges if _raises(fn, kind, x) is None])
        grid = np.resize(xs, (3, xs.size))
        out = fn(kind, grid)
        assert isinstance(out, np.ndarray) and out.shape == grid.shape
        scalar = [repr(fn(kind, x)) for x in xs.tolist()]
        assert [repr(v) for v in out[1].tolist()] == scalar
        x0 = 0.25 if edges is EDGE_U else -0.25
        assert type(fn(kind, np.float64(x0))) is float
        assert type(fn(kind, np.array(x0))) is float


def _raises(fn, kind, x):
    try:
        fn(kind, x)
    except DomainError:
        return DomainError
    return None


@pytest.mark.usefixtures("warnings_are_errors")
@pytest.mark.parametrize(
    "fn,kind,edges",
    [(entropy_derivative, k, EDGE_U) for k in (MB, BE, FD)]
    + [(entropy_conjugate_derivative, BE, EDGE_T)],
    ids=["mb", "be", "fd", "be-conjugate"],
)
def test_one_element_outside_the_domain_raises(fn, kind, edges):
    good = [x for x in edges if _raises(fn, kind, x) is None]
    bad = [x for x in edges if _raises(fn, kind, x) is DomainError]
    assert bad
    for x in bad:
        with pytest.raises(DomainError, match=re.escape(f"got {x}")):
            fn(kind, np.array(good[:3] + [x] + good[3:]))


@pytest.mark.usefixtures("warnings_are_errors")
def test_be_conjugate_is_inf_exactly_where_exp_rounds_to_one():
    # the guard fires where e^t rounds to 1.0, and -log1p(-e^t) is finite
    # one float below; numpy's exp decides which t those are
    ts = np.concatenate([-np.geomspace(1e-20, 1e-15, 4001), [-TINY, -MIN_NORMAL]])
    got = entropy_conjugate(BE, ts)
    rounds_to_one = np.exp(ts) >= 1.0
    assert rounds_to_one.any() and not rounds_to_one.all()
    assert np.array_equal(got == INF, rounds_to_one)
    assert np.all(np.isfinite(got[~rounds_to_one]))


@pytest.mark.usefixtures("warnings_are_errors")
def test_be_conjugate_is_accurate_as_t_tends_to_zero():
    # -ln(1 - e^t) at 200 points from -ln 2 to -1e-15: -log1p(-e^t) lost
    # up to 8e-7 relative accuracy there (27.631043 for 27.631021 at
    # t = -1e-12), -log(-expm1(t)) keeps a few ulp
    mpmath = pytest.importorskip("mpmath")
    ts = -np.geomspace(math.log(2.0), 1e-15, 200)
    got = entropy_conjugate(BE, ts)
    with mpmath.workdps(50):
        want = [float(-mpmath.log(-mpmath.expm1(mpmath.mpf(t)))) for t in ts.tolist()]
    for t, g, w in zip(ts.tolist(), got.tolist(), want):
        assert abs(g - w) <= 4.0 * math.ulp(w), (t, g, w)


@pytest.mark.usefixtures("warnings_are_errors")
def test_be_value_is_accurate_over_the_whole_float_range():
    # u ln u - (1+u) ln(1+u) at 1,606 log-spaced u in [1e-300, 1e308]: the
    # one-line form read 0.0 at 1e100 (true -231.2585...), nan from 1e306
    # up and was 2,417 ulp off at 1e-5; split at u = 1 it keeps a few ulp
    mpmath = pytest.importorskip("mpmath")
    us = np.geomspace(1e-300, 1e308, 1606)
    got = entropy_value(BE, us)
    with mpmath.workdps(360):  # the form itself cancels 308 digits at 1e308
        want = [float(u * mpmath.log(u) - (1 + u) * mpmath.log1p(u))
                for u in map(mpmath.mpf, us.tolist())]
    for u, g, w in zip(us.tolist(), got.tolist(), want):
        assert abs(g - w) <= 4.0 * math.ulp(w), (u, g, w)


@pytest.mark.usefixtures("warnings_are_errors")
def test_fd_value_keeps_its_linear_term_at_small_u():
    # u ln u + (1-u) ln(1-u) at 581 log-spaced u in [1e-300, 1e-10]: 1 - u
    # rounds to 1 below about 1e-16, where (1-u) ln(1-u) dropped its -u
    # (-3.914e-16 for -4.014e-16 at 1e-17); (1-u) log1p(-u) keeps a few ulp
    mpmath = pytest.importorskip("mpmath")
    us = np.geomspace(1e-300, 1e-10, 581)
    got = entropy_value(FD, us)
    with mpmath.workdps(50):
        want = [float(u * mpmath.log(u) + (1 - u) * mpmath.log1p(-u))
                for u in map(mpmath.mpf, us.tolist())]
    for u, g, w in zip(us.tolist(), got.tolist(), want):
        assert abs(g - w) <= 4.0 * math.ulp(w), (u, g, w)
