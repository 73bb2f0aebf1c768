"""Sequence families: term generation, lattice enumeration, prefix
statistics, minimum-level sets, and — most importantly — soundness of every
certified tail bound against brute-force summation."""

import dataclasses
import functools
import json
import math
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entromin import (
    Arithmetic,
    ConfigurationError,
    DomainError,
    EmpSolver,
    Entropy,
    ExplicitPrefix,
    ExplosiveWeights,
    Lattice3D,
    LogLevels,
    PowerLaw,
    RangeError,
    ShiftedSigma,
    UnsupportedFamilyError,
    WeightedGeometric,
    lattice_levels,
    sigma_min_set,
)
from entromin import _work, sequences
from entromin.sequences import flipped

from conftest import (
    brute_force_series,
    brute_force_tail,
    generate,
    lattice_triples,
    prefix_stats,
    ref_log_terms,
    ref_sigma_array,
    tail_bound,
)


class TestGenerate:
    def test_geometric(self, geometric):
        assert generate(geometric, 3) == (1.0, 3.0)

    def test_weighted_geometric_first(self, zeta_family):
        p, s = generate(zeta_family, 1)
        assert p == pytest.approx(math.e, rel=1e-15)
        assert s == 1.0

    def test_lattice_first(self, lattice):
        assert generate(lattice, 1) == (1.0, 3.0)

    def test_bad_index(self, geometric):
        with pytest.raises(DomainError):
            generate(geometric, 0)

    def test_determinism(self):
        a = WeightedGeometric(1.0, 3.0)
        b = WeightedGeometric(1.0, 3.0)
        for n in (1, 2, 17, 400):
            assert generate(a, n) == generate(b, n)


_EXPLICIT = ExplicitPrefix((1.0, 2.5, 7.0), (0.5, 1.0, 1.5), WeightedGeometric(1.0, 3.0))
_LIBRARY_FAMILIES = [
    Lattice3D(1.0),
    Lattice3D(0.25),
    WeightedGeometric(1.0, 3.0),
    Arithmetic(0.0, 1.0),
    Arithmetic(-3.0, 0.5),
    PowerLaw(1.0, 1.5),
    PowerLaw(2.0, 0.5),
    LogLevels(1.0),
    WeightedGeometric(0.5, 4.0),
    ExplosiveWeights(1.0),
    ShiftedSigma(WeightedGeometric(1.0, 3.0), -2.0),
    ShiftedSigma(Lattice3D(1.0), 1.0),
    _EXPLICIT,
]


class TestLatticeLevels:
    def test_first_three(self):
        assert lattice_levels(1.0, 3) == [(1, 3.0), (3, 6.0), (3, 9.0)]

    def test_fifth_level(self):
        assert lattice_levels(1.0, 5)[4] == (1, 12.0)

    def test_scaled(self):
        assert lattice_levels(2.0, 1) == [(1, 6.0)]

    def test_degeneracy_conservation(self):
        # total degeneracy up to L equals the number of triples with sum <= L
        table = lattice_triples(200)
        levels = lattice_levels(1.0, len(table))
        assert [int(v) for _, v in levels] == sorted(table)
        assert sum(d for d, _ in levels) == sum(table.values())

    @pytest.mark.parametrize("family", _LIBRARY_FAMILIES, ids=repr)
    def test_weight_arrays_are_the_weights(self, family):
        # every family declares its terms as arrays, and the scalars p,
        # sigma and log_p are their elements, bit for bit (numpy's log and
        # ** differ from math.log and float ** at some indices); the CLI's
        # truncation check reads its weights as one array
        for lo, hi in ((1, 2048), (5, 70), (1, 8)):
            arrays = (family.p_array(lo, hi), family.sigma_array(lo, hi),
                      family.log_terms(0.0, lo, hi))
            for scalar, array in zip((family.p, family.sigma, family.log_p), arrays):
                want = [v.hex() for v in array.tolist()]
                assert [scalar(n).hex() for n in range(lo, hi + 1)] == want

    def test_explicit_weights_are_exact(self):
        # the given weights as they are, and the tail's beyond them
        m = len(_EXPLICIT.weights)
        assert [_EXPLICIT.p(k) for k in range(1, m + 1)] == list(_EXPLICIT.weights)
        assert _EXPLICIT.p_array(1, m + 3).tolist() == [
            *_EXPLICIT.weights, *_EXPLICIT.tail.p_array(m + 1, m + 3).tolist()
        ]
        assert Lattice3D(1.0).p(3) == 3.0 and ShiftedSigma(Lattice3D(1.0), 1.0).p(3) == 3.0

    def test_explicit_log_terms_read_the_tail_once(self, monkeypatch):
        # one call of the tail's array, not a scalar read per index
        calls = []
        orig = WeightedGeometric.log_terms

        def counting(self, y, lo, hi, *arrays):
            calls.append((lo, hi))
            return orig(self, y, lo, hi, *arrays)

        monkeypatch.setattr(WeightedGeometric, "log_terms", counting)
        got = _EXPLICIT.log_terms(-1.5, 1, 4096)
        assert calls == [(4, 4096)]
        m = len(_EXPLICIT.weights)
        head = [math.log(w) + s * -1.5 for w, s in zip(_EXPLICIT.weights, _EXPLICIT.levels)]
        assert got[:m].tolist() == pytest.approx(head, rel=1e-15)
        assert got[m:].tolist() == orig(_EXPLICIT.tail, -1.5, m + 1, 4096).tolist()

    def test_bad_args(self):
        with pytest.raises(DomainError):
            lattice_levels(1.0, 0)
        with pytest.raises(DomainError):
            lattice_levels(-1.0, 3)

    @pytest.mark.parametrize("scale, count", [
        (math.nan, 3), (math.inf, 3), (-math.inf, 3), (1.0, 2.5), (1.0, 3.0), (1.0, "3"), (1.0, None),
    ])
    def test_non_finite_scale_and_non_integer_count_are_refused(self, scale, count):
        # as Lattice3D refuses its scale and SequenceRule.term its n
        with pytest.raises(DomainError):
            lattice_levels(scale, count)

    def test_integer_counts_of_any_type_are_read(self):
        assert lattice_levels(1.0, np.int64(3)) == lattice_levels(1.0, 3) == [(1, 3.0), (3, 6.0), (3, 9.0)]


def _small_reads(monkeypatch) -> list:
    """The sigma_array and log_terms calls of at most two elements that any
    family class makes from here on, as (class, method, lo, hi)."""
    calls = []
    for cls in vars(sequences).values():
        if not (isinstance(cls, type) and issubclass(cls, sequences.SequenceFamily)):
            continue
        for name in ("sigma_array", "log_terms"):
            if name in cls.__dict__:
                def counting(self, *args, _orig=cls.__dict__[name], _name=name):
                    lo, hi = args[_name == "log_terms" :][:2]  # (y,) lo, hi (, arrays)
                    if hi - lo <= 1:
                        calls.append((type(self).__name__, _name, lo, hi))
                    return _orig(self, *args)

                monkeypatch.setattr(cls, name, counting)
    return calls


def _old_terms(family, y, n):
    """SequenceFamily._terms as two-element arrays formed it: (e^t_m, sigma_m)
    for m = n and n + 1, t_m = ln p_m + sigma_m y."""
    s = family.sigma_array(n, n + 1)
    with np.errstate(over="ignore"):
        t = (family.log_terms(0.0, n, n + 1) + s * y).tolist()
    return [(math.exp(tm) if tm < 700.0 else math.inf, sm) for tm, sm in zip(t, s.tolist())]


def _stores(family) -> set:
    """The names of what a family instance keeps beyond its fields."""
    return set(vars(family)) - {f.name for f in dataclasses.fields(family)}


class TestScalarMemo:
    """sigma(n) and log_p(n) are elements of the family's term table, its
    (sigma_n, ln p_n) rows, so the block walk and the tail brackets read
    their levels and log-weights with no array built; past the table they
    are elements of one window, and a family keeps nothing per index."""

    BLOCK_ENDS = [64 * 2**j for j in range(9)]

    @pytest.mark.parametrize("family", _LIBRARY_FAMILIES, ids=repr)
    def test_scalars_are_the_array_elements(self, family):
        family = dataclasses.replace(family)  # a fresh table
        ns = self.BLOCK_ENDS
        if isinstance(family, ExplicitPrefix):
            m = len(family.weights)
            ns = [*range(max(1, m - 2), m + 4), *ns]
        hexes = lambda terms: [(v.hex(), s.hex()) for v, s in terms]  # noqa: E731
        for _ in range(2):  # read cold, then from the built table
            for n in ns:
                assert family.sigma(n).hex() == family.sigma_array(n, n)[0].hex()
                assert family.log_p(n).hex() == family.log_terms(0.0, n, n)[0].hex()
                lo = max(1, n - 1)
                assert family.sigma(n).hex() == family.sigma_array(lo, n + 1)[n - lo].hex()
                for y in (0.0, -0.5, -1e300):
                    assert hexes(family._terms(y, n)) == hexes(_old_terms(family, y, n))

    @pytest.mark.parametrize(
        "family, forward, w",
        [
            (Arithmetic(0.0, 1.0), (-0.5, -1.0), 2.0),
            (WeightedGeometric(1.0, 3.0), (-0.5, -2.0), 1.2),
            (Lattice3D(1.0), (-0.5, -0.5), 4.0),
        ],
        ids=repr,
    )
    def test_warm_solves_make_no_small_array_reads(self, monkeypatch, family, forward, w):
        # the block ends' sigma_(n+1), the brackets' t_n and t_(n+1) and the
        # closed forms' sign tests come from the table's rows
        es = EmpSolver(family)

        def solves():
            for kind, x in ((Entropy.BOSE_EINSTEIN, forward[0]), (Entropy.FERMI_DIRAC, 0.5)):
                es.forward_solve(kind, x, forward[1])
            assert es.solve_mb(1.0, w).region.value == "interior"

        solves()
        calls = _small_reads(monkeypatch)
        solves()
        assert calls == []

    def test_threads_read_the_same_levels(self):
        # more readers than cores, switching often, on a cold family, in and
        # past its table: each sees the arrays' floats, in scalars, in the
        # terms t_n, t_(n+1) and in windows
        family = WeightedGeometric(1.0, 3.0)
        ns = [*range(1, 2049), 8191, 8192, 8193, 16384]
        windows = [(1, 64), (5, 70), (8190, 8200), (8193, 16384)]
        start = threading.Barrier(4)
        seen = [None] * 4

        def read(k):
            order = ns if k % 2 else ns[::-1]
            start.wait()
            rows = [(n, family.sigma(n), family.log_p(n), *family._terms(-0.5, n)) for n in order]
            wins = [(family.sigma_array(lo, hi).tobytes(), family.log_terms(-0.5, lo, hi).tobytes())
                    for lo, hi in (windows if k % 2 else windows[::-1])]
            seen[k] = (sorted(rows), sorted(wins))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert seen[1:] == seen[:1] * 3
        want = [(s_.hex(), lp.hex()) for lo, hi in ((1, 2048), (8191, 8193), (16384, 16384))
                for s_, lp in zip(ref_sigma_array(family, lo, hi).tolist(),
                                  ref_log_terms(family, 0.0, lo, hi).tolist())]
        assert [(r[1].hex(), r[2].hex()) for r in seen[0][0]] == want
        assert [(n, *terms) for n, _, _, *terms in seen[0][0]] == [
            (n, *_old_terms(family, -0.5, n)) for n in sorted(ns)]

    def test_memo_is_bounded(self):
        # tail_interval is public and n arbitrary: every index, in the
        # table or past it, reads the same terms, and the family keeps
        # nothing per index, only its one table
        family = WeightedGeometric(1.0, 3.0)
        for n in [*range(1, 5001), *range(8185, 8200), 20_000]:
            family.tail_interval(-1.5, n, 1)
        assert _stores(family) == {"_term_table"}
        for n in (4999, 8192, 8193, 20_000):
            assert family.sigma(n).hex() == family.sigma_array(n, n)[0].hex()
            assert family._terms(-1.5, n) == _old_terms(family, -1.5, n)

    @pytest.mark.parametrize("family", _LIBRARY_FAMILIES, ids=repr)
    def test_log_p_in_the_table_builds_no_array(self, family, monkeypatch):
        # once a fresh family's table is read, log_p(n) for n <= 2^13 is an
        # element of its ln p_n row, read with no log_terms call
        fam = dataclasses.replace(family)
        fam.sigma(1)
        calls = _small_reads(monkeypatch)
        ns = (1, 2, 3, 64, 1000, 8191, sequences._TABLE_MAX)
        got = [fam.log_p(n).hex() for n in ns]
        assert calls == []
        assert got == [ref_log_terms(fam, 0.0, n, n)[0].hex() for n in ns]

    @pytest.mark.parametrize("family", _LIBRARY_FAMILIES, ids=repr)
    def test_terms_past_the_table_build_one_window(self, family, monkeypatch):
        # t_n and t_(n+1) past the table come from one window [n, n + 1]
        fam, calls = dataclasses.replace(family), []
        fam.sigma(1)
        term_arrays = type(fam)._term_arrays

        def counting(self, lo, hi):
            if self is fam:
                calls.append((lo, hi))
            return term_arrays(self, lo, hi)

        monkeypatch.setattr(type(fam), "_term_arrays", counting)
        for n in (sequences._TABLE_MAX, sequences._TABLE_MAX + 1, 20_000):
            calls.clear()
            got = fam._terms(-0.5, n)
            assert calls == [(n, n + 1)]
            assert got == _old_terms(fam, -0.5, n)


class TestLatticeTableThreads:
    """Lattice3D's levels come from one read-only table per power-of-two
    limit (sequences._lattice_upto), cached and shared between threads."""

    @pytest.mark.parametrize("limit", [32 << j for j in range(8)])
    def test_tables_are_the_enumerated_triples(self, limit):
        ref = lattice_triples(limit)
        keys = sorted(ref)
        degeneracy = np.array([ref[v] for v in keys], dtype=np.int64)
        values, got, ln_degeneracy = sequences._lattice_upto(limit)
        assert values.tobytes() == np.array(keys, dtype=float).tobytes()
        assert got.dtype == degeneracy.dtype and got.tobytes() == degeneracy.tobytes()
        assert ln_degeneracy.tobytes() == np.log(degeneracy.astype(float)).tobytes()

    def test_concurrent_growth(self):
        # six threads read levels at growing counts from cold tables, each
        # from its own offset, at a 1 us switch interval
        sequences._lattice_upto.cache_clear()
        fam = Lattice3D(1.0)
        ref = lattice_triples(1000)
        ref_levels = [(ref[v], float(v)) for v in sorted(ref)]
        ref_values = np.array(sorted(ref), dtype=float)
        errors = []

        def read(offset):
            try:
                for count in range(50 + offset, len(ref), 37):
                    assert lattice_levels(1.0, count) == ref_levels[:count]
                    s = fam.sigma_array(1, count)
                    lt = fam.log_terms(0.0, 1, count)
                    assert np.array_equal(s, ref_values[:count])
                    assert len(lt) == count
            except Exception as exc:  # reported below, from the test's thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert not errors, errors


# the windows a certified pass reads ([1, 64 2^j] up to 4096, then [2^j + 1,
# 2^(j+1)]; the last beyond the largest table), and a few others
_TABLE_WINDOWS = [(1, 64 << j) for j in range(7)] + [(2**j + 1, 2 ** (j + 1)) for j in range(12, 16)]
_TABLE_WINDOWS += [(1, 1), (2, 3), (5, 70), (100, 101), (4000, 4200)]


def _table_ys(family):
    return (0.0, -0.5, -family.alpha - 1e-9, -1e300)


class TestTermTables:
    """Each family keeps the y-free arrays of its terms in one read-only
    table per instance (SequenceFamily._tabled) of sequences._TABLE_MAX
    terms, built on first read: sigma_array and log_terms must give the
    floats the families' formulas gave before the tables
    (tests/conftest.py's ref_sigma_array and ref_log_terms), whatever order
    the windows are read in and from however many threads."""

    @pytest.mark.parametrize("family", _LIBRARY_FAMILIES, ids=repr)
    def test_arrays_are_the_pre_table_formulas(self, family):
        # a fresh instance reads the windows widest first, another narrowest
        # first, so that a wide and a narrow first read each build a table
        for order in (reversed(_TABLE_WINDOWS), _TABLE_WINDOWS):
            fam = dataclasses.replace(family)
            for lo, hi in order:
                assert fam.sigma_array(lo, hi).tobytes() == ref_sigma_array(fam, lo, hi).tobytes()
                for y in _table_ys(fam):
                    with np.errstate(all="ignore"):
                        got, want = fam.log_terms(y, lo, hi), ref_log_terms(fam, y, lo, hi)
                    assert got.tobytes() == want.tobytes(), (lo, hi, y)

    @pytest.mark.parametrize("family", _LIBRARY_FAMILIES, ids=repr)
    def test_writes_into_returned_arrays_leave_later_reads_unchanged(self, family):
        reads = (family.sigma_array, functools.partial(family.log_terms, -0.5), family.p_array)
        for lo, hi in ((1, 64), (3, 40), (4097, 8192)):
            for read in reads:
                with np.errstate(all="ignore"):
                    first = read(lo, hi)
                    want = first.copy()
                    first[:] = 123.0
                    assert read(lo, hi).tobytes() == want.tobytes()
        assert family.sigma(5).hex() == ref_sigma_array(family, 5, 5)[0].hex()

    def test_threads_read_identical_floats(self):
        # four threads build and slice the same fresh tables, Lattice3D's
        # levels among them cold, at a 1 us switch interval, each reading
        # the windows in its own order
        families = [WeightedGeometric(1.0, 3.0), Lattice3D(0.5), LogLevels(2.0),
                    ShiftedSigma(PowerLaw(1.0, 1.5), -1.0), _EXPLICIT]
        windows = [(1, 64 << j) for j in range(7)] + [(5, 70), (4097, 8192), (1, 1), (60, 3000)]
        want = {(i, w): (ref_sigma_array(f, *w).tobytes(), ref_log_terms(f, -0.5, *w).tobytes())
                for i, f in enumerate(families) for w in windows}
        fresh = [dataclasses.replace(f) for f in families]
        sequences._lattice_upto.cache_clear()
        errors, seen = [], []

        def read(seed):
            try:
                order = np.random.default_rng(seed).permutation(len(want))
                keys = list(want)
                for j in order:
                    i, (lo, hi) = keys[j]
                    fam = fresh[i]
                    got = (fam.sigma_array(lo, hi).tobytes(), fam.log_terms(-0.5, lo, hi).tobytes())
                    assert got == want[keys[j]], keys[j]
                    seen.append(keys[j])
            except Exception as exc:  # reported below, from the test's thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(seen) == 4 * len(want)

    @pytest.mark.parametrize("family", _LIBRARY_FAMILIES, ids=repr)
    def test_one_build_whatever_the_order(self, family, monkeypatch):
        # windows [1, k] up to _TABLE_MAX, read in a shuffled order on a
        # fresh instance, build its table once, at full size
        fam, calls = dataclasses.replace(family), []
        term_arrays = type(fam)._term_arrays

        def counting(self, lo, hi):
            if self is fam:
                calls.append((lo, hi))
            return term_arrays(self, lo, hi)

        monkeypatch.setattr(type(fam), "_term_arrays", counting)
        ks = [1, 2, 3, 63, 64, 65, 100, 127, 128, 1000, 2048, 4097, 5000, 8191, 8192]
        for k in np.random.default_rng(40).permutation(ks).tolist():
            fam.sigma_array(1, k)
            fam.log_terms(-0.5, 1, k)
            fam.sigma(k)
        assert calls == [(1, sequences._TABLE_MAX)]

    @pytest.mark.parametrize("family", [PowerLaw(1e152, 1.0), Arithmetic(0.0, 1e152)], ids=repr)
    def test_squares_past_the_float_maximum_leak_no_warning(self, family):
        # sigma_n^2 = 1e304 n^2 overflows from n = 135, inside the table,
        # whose levels are finite: the solve, whose passes form the
        # squares, raises an EmpError, not numpy's overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = dataclasses.replace(family)
            with pytest.raises(RangeError):
                EmpSolver(fam).solve_mb(1.0, 2e152)
            top = float(fam._term_table[1][0, -1])
            assert math.isfinite(top) and top > math.sqrt(sys.float_info.max)

    def test_levels_past_the_float_maximum_leak_no_warning(self):
        # sigma_n = 1e305 n is inf from n = 1798, inside the table, where
        # the ln p_n row reads inf * 0 = nan: building it warns of nothing,
        # and the solve reports the target below the cone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fam = Arithmetic(0.0, 1e305)
            assert EmpSolver(fam).solve_mb(1.0, 2.0).region.value == "below-cone"
            assert fam.sigma(5000) == math.inf and math.isnan(fam.log_p(5000))

    @pytest.mark.parametrize("family", _LIBRARY_FAMILIES, ids=repr)
    def test_every_window_past_the_table_is_built_in_one_place(self, family):
        # _tabled is the one place a window past the table is built, where the
        # work record counts it: a scalar read or a bracket's two terms past
        # 2^13 build one window per layer (a wrapper's and its base's), and
        # reads inside the table none
        fam = dataclasses.replace(family)
        layers = 2 if isinstance(fam, (ShiftedSigma, ExplicitPrefix)) else 1
        n = sequences._TABLE_MAX + 1
        with _work.counting() as work:
            fam.sigma(5), fam.log_p(5), fam._terms(-1.0, 5)
            inside = work.windows_built
            fam.sigma(n), fam.log_p(n), fam._terms(-1.0, n)
        assert inside == 0 and work.windows_built == 3 * layers

    def test_each_store_stays_inside_its_bound(self):
        # 10,000 distinct windows, many past the largest table: the table
        # stops at _TABLE_MAX terms, under 256 KB, and is all a family
        # keeps; a wrapper's table owns its levels and ln p_n rows alone,
        # and holds views of its base's
        rng = np.random.default_rng(38)
        windows = set()
        while len(windows) < 10_000:
            lo = int(rng.integers(1, 70_000))
            windows.add((lo, lo + int(rng.integers(0, 64))))
        leaf = WeightedGeometric(1.0, 3.0)
        for fam in (leaf, ShiftedSigma(leaf, 0.5), dataclasses.replace(_EXPLICIT, tail=leaf)):
            for lo, hi in windows if fam is leaf else list(windows)[:500]:
                fam.sigma_array(lo, hi)
                fam.log_terms(-1.5, lo, hi)
                fam.sigma(hi)
                fam.log_p(lo)
            arrays, pair = fam._term_table
            assert pair.shape == (2, sequences._TABLE_MAX) and arrays[0].base is pair
            assert max(len(a) for a in arrays) == sequences._TABLE_MAX
            owned = [pair] + [a for a in arrays if a.base is None]
            assert sum(a.nbytes for a in owned) < 2**18
            assert fam is leaf or len(owned) == 1  # a wrapper owns its pair alone
            assert all(not a.flags.writeable for a in (*arrays, pair))
            assert _stores(fam) - {"_head"} == {"_term_table"}  # _head: the explicit terms


class TestPrefixStats:
    def test_geometric(self, geometric):
        st_ = prefix_stats(geometric, 4)
        assert (st_.rho_n, st_.eta1_n, st_.eta2_n) == (4.0, 1.0, 4.0)

    def test_lattice(self, lattice):
        st_ = prefix_stats(lattice, 2)
        assert (st_.rho_n, st_.eta1_n, st_.eta2_n) == (4.0, 3.0, 6.0)

    def test_weighted_geometric(self, zeta_family):
        st_ = prefix_stats(zeta_family, 2)
        assert st_.rho_n == pytest.approx(math.e + math.e**2 / 8.0, rel=1e-14)

    def test_monotonicity(self, lattice):
        prev = prefix_stats(lattice, 1)
        for n in range(2, 30):
            cur = prefix_stats(lattice, n)
            assert cur.rho_n > prev.rho_n
            assert cur.eta1_n <= prev.eta1_n
            assert cur.eta2_n >= prev.eta2_n
            prev = cur


class TestSigmaMinSet:
    def test_geometric(self, geometric):
        smin = sigma_min_set(geometric)
        assert (smin.theta1, smin.indices, smin.p_sum) == (1.0, (1,), 1.0)

    def test_explicit_prefix_with_tie(self):
        fam = ExplicitPrefix((1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 5.0, 6.0), Arithmetic(2.0, 1.0))
        smin = sigma_min_set(fam)
        assert smin.theta1 == 2.0
        assert smin.indices == (1, 2)
        assert smin.p_sum == 2.0

    def test_lattice(self, lattice):
        smin = sigma_min_set(lattice)
        assert (smin.theta1, smin.indices, smin.p_sum) == (3.0, (1,), 1.0)

    def test_tie_run_across_blocks(self):
        # sigma_n = 1e-15 n ties with theta1 up to n = 1001, past the
        # scan's first blocks of 64, 128, 256 and 512 levels
        fam = Arithmetic(0.0, 1e-15)
        smin = sigma_min_set(fam)
        top = smin.theta1 + sequences.TIE_RTOL
        assert smin.indices == tuple(n for n in range(1, 3000) if fam.sigma(n) <= top)
        assert smin.indices[-1] == 1001 and smin.p_sum == 1001.0

    def test_a_refused_tie_scan_stays_small(self):
        # 10^7 tied levels: the scan gave up only after building a list of
        # 10^7 ints (413 MB resident, 3.45 s)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedFamilyError, match="level tie scan did not terminate"):
                sigma_min_set(Arithmetic(0.0, 1e-100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_rejects_decreasing_levels(self):
        with pytest.raises(UnsupportedFamilyError):
            sigma_min_set(Arithmetic(0.0, -1.0))

    def test_rejects_constant(self):
        with pytest.raises(UnsupportedFamilyError):
            sigma_min_set(Arithmetic(5.0, 0.0))


class TestTailBound:
    def test_geometric_matches_exact_tail(self, geometric):
        # sum_{n>10} 2^-n = 2^-10; the ratio bound is tight here
        assert tail_bound(geometric, -math.log(2.0), 10) == pytest.approx(2.0**-10, rel=1e-12)

    def test_vanishes_with_n(self, geometric):
        bounds = [tail_bound(geometric, -math.log(2.0), n) for n in (10, 20, 40, 80)]
        assert all(b is not None for b in bounds)
        assert bounds[-1] < 1e-22 and all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_weighted_geometric_sound(self, zeta_family):
        bound = tail_bound(zeta_family, -1.5, 20)
        brute, _ = brute_force_tail(zeta_family, -1.5, 20, 100_000)
        assert bound is not None and brute <= bound

    def test_domain_error_outside(self, zeta_family):
        with pytest.raises(DomainError):
            tail_bound(zeta_family, -0.5, 10)

    def test_unavailable_for_log_levels(self):
        # spacing decays to zero: no uniform ratio certificate exists
        assert tail_bound(LogLevels(1.0), -2.0, 50) is None

    def test_no_ratio_across_the_prefix_end(self):
        # from n = m = 64 the ratio test would compare the prefix's last
        # term (level 1000) with the tail family's terms
        levels = tuple(float(n) for n in range(1, 64)) + (1000.0,)
        fam = ExplicitPrefix((1.0,) * 64, levels, Arithmetic(0.0, 1.0))
        for n in (64, 65):
            bound = tail_bound(fam, -0.05, n)
            brute, converged = brute_force_tail(fam, -0.05, n, 2000)
            assert converged and (bound is None or brute <= bound)
        assert tail_bound(fam, -0.05, 65) is not None


_FAMILY_POINTS = [
    (Arithmetic(0.0, 1.0), -0.05),
    (Arithmetic(3.0, 0.5), -0.4),
    (PowerLaw(1.0, 2.0), -0.01),
    (PowerLaw(0.7, 0.5), -0.8),
    (LogLevels(1.0), -1.8),
    (WeightedGeometric(1.0, 3.0), -1.2),
    (WeightedGeometric(1.0, 3.0), -1.0 - 1e-9),
    (WeightedGeometric(2.0, 0.5), -2.3),
    # moments 1 and 2 are boundary-divergent (power 1.5): near -alpha their
    # brackets come from moment absorption into the plain tail
    (WeightedGeometric(1.0, 1.5), -1.004),
    (Lattice3D(1.0), -0.3),
    (Lattice3D(0.25), -1.1),
    (ExplicitPrefix((2.0, 1.5), (0.7, 0.9), Arithmetic(0.0, 1.0)), -0.2),
    (ShiftedSigma(Arithmetic(-4.0, 1.0), -5.0), -0.15),
    (ShiftedSigma(WeightedGeometric(1.0, 3.0), -2.0), -1.2),
    # base levels n - 1000 are negative up to n = 999: moments >= 1 of the
    # base have no bracket there
    (ShiftedSigma(Arithmetic(-1000.0, 1.0), -1000.0), -0.05),
    # the prefix ends at n = 70 with a level far above the tail's
    (
        ExplicitPrefix(
            (1.0,) * 70, tuple(float(n) for n in range(1, 70)) + (1000.0,), Arithmetic(0.0, 1.0)
        ),
        -0.05,
    ),
]


_PINNED = Path(__file__).resolve().parent / "golden" / "tail_brackets.json"
_PINNED_N = tuple(64 * 2**j for j in range(8)) + (70, 300)


def _pinned_bracket_inputs():
    """(family, y, n) of the pinned brackets: every family of _FAMILY_POINTS
    at its y, at twice and half its distance from -alpha, and at -alpha
    where its plain series is certified summable, for each n of _PINNED_N."""
    for family, y in _FAMILY_POINTS:
        a = family.alpha
        ys = [y, -a + 2.0 * (y + a), -a + 0.5 * (y + a)]
        if family.boundary_divergent(0) is False:
            ys.append(-a)
        for yy in ys:
            for n in _PINNED_N:
                yield family, yy, n


def _pin_key(family, y, n, k):
    return f"{family!r} y={y!r} n={n} k={k}"


def _pin_tail_brackets():
    """The pinned brackets, {_pin_key: repr of tail_interval(y, n, k)} for
    k = 0, 1, 2 at every _pinned_bracket_inputs point."""
    return {
        _pin_key(family, y, n, k): repr(family.tail_interval(y, n, k))
        for family, y, n in _pinned_bracket_inputs()
        for k in (0, 1, 2)
    }


@pytest.mark.parametrize("family,y", _FAMILY_POINTS)
@pytest.mark.parametrize("moment", [0, 1, 2])
def test_tail_interval_brackets_brute_force(family, y, moment):
    # every certified (lo, hi) must bracket the brute-force tail sum; when
    # the brute horizon has not converged it still bounds the tail below,
    # so only the upper certificate can be checked
    for n in (70, 300):
        iv = family.tail_interval(y, n, moment)
        if iv is None:
            continue
        lo, hi = iv
        assert 0.0 <= lo <= hi
        tail, converged = brute_force_tail(family, y, n, 100_000, moment)
        assert tail <= hi * (1 + 1e-12) + 1e-300
        if converged:
            assert lo <= tail * (1 + 1e-12) + 1e-300


class TestLatticeTail:
    """Lattice3D's bracket bounds sum_{S > V} S^(k+1) rho^S by a ratio test
    over S >= V + 1 wherever its ratio is below 1: it decays at the terms'
    own rate, where absorbing S^(k+1) into half of it did not."""

    @staticmethod
    def _levels(limit):
        # (values, degeneracies) of i^2 + j^2 + k^2 <= limit, enumerated
        m = math.isqrt(limit) + 1
        sq = np.arange(1, m + 1) ** 2
        sums = (sq[:, None, None] + sq[None, :, None] + sq[None, None, :]).ravel()
        counts = np.bincount(sums[sums <= limit])
        values = np.nonzero(counts)[0]
        return values.astype(float), counts[values].astype(float)

    def _tail(self, values, deg, y, n, k):
        terms = deg[n:] * values[n:] ** k * np.exp(values[n:] * y)
        assert terms[-1] <= 1e-18 * terms.sum()  # the horizon holds the tail
        return math.fsum(terms)

    def test_tail_at_the_terms_rate(self):
        # the absorption bound alone gave (0, 5.9e-7) here
        values, deg = self._levels(2000)
        lo, hi = Lattice3D(1.0).tail_interval(-0.2, 128, 0)
        tail = self._tail(values, deg, -0.2, 128, 0)
        assert hi - lo <= 1e-12
        assert lo <= tail <= hi * (1 + 1e-12)

    def test_upper_ends_bound_the_brute_force_tails(self):
        values, deg = self._levels(4000)
        rng = np.random.default_rng(24)
        fam = Lattice3D(1.0)
        for _ in range(150):
            y = float(rng.uniform(-3.0, -0.05))
            n = 64 * 2 ** int(rng.integers(0, 6))
            for k in (0, 1, 2):
                lo, hi = fam.tail_interval(y, n, k)
                tail = self._tail(values, deg, y, n, k)
                assert lo <= tail * (1 + 1e-12) + 1e-300
                assert tail <= hi * (1 + 1e-12) + 1e-300


def test_boundary_brackets_sound(zeta_family):
    # boundary tails are zeta tails: check against long partial sums
    for moment in (0, 1):
        lo, hi = zeta_family.tail_interval(-1.0, 50, moment)
        tail = math.fsum(n ** (moment - 3.0) for n in range(51, 400_000))
        assert lo <= tail <= hi


def test_shifted_boundary_brackets_sound(zeta_family):
    # at y = -alpha = -1 the terms of levels n + 2 are e^-2 (n + 2)^k / n^3
    fam = ShiftedSigma(zeta_family, -2.0)
    for moment in (0, 1):
        lo, hi = fam.tail_interval(-1.0, 50, moment)
        tail = math.exp(-2.0) * math.fsum(
            (n + 2.0) ** moment * n**-3.0 for n in range(51, 400_000)
        )
        assert lo <= tail <= hi


def test_shifted_moment_brackets_come_from_the_base():
    # (sigma + 2)^k expands over the base's moment brackets: moment 1 is as
    # tight as moments 0 and 2, not dominated by the boundary tail (~1/n)
    fam = ShiftedSigma(WeightedGeometric(1.0, 3.0), -2.0)
    lo, hi = fam.tail_interval(-1.2, 300, 1)
    assert 0.0 < lo <= hi < 1e-30


@pytest.mark.parametrize("moment", [0, 1, 2])
def test_shifted_tail_where_the_scale_overflows(moment):
    # exp(-shift y) = e^999.9 magnifies the base's rounding: the base tail
    # is 0 in floats, the shifted tail of levels 0.1 + m/1000 is about 19
    fam = ShiftedSigma(Arithmetic(1000.0, 0.001), 999.9)
    lo, hi = fam.tail_interval(-10.0, 64, moment)
    tail = math.fsum(
        (0.1 + 0.001 * m) ** moment * math.exp(-10.0 * (0.1 + 0.001 * m))
        for m in range(65, 20_000)
    )
    assert lo <= tail * (1 + 1e-9) and tail <= hi * (1 + 1e-9) and hi < math.inf
    # the shifted terms' own ratio bound certifies a tail that is 0
    fam = ShiftedSigma(WeightedGeometric(1.0, 3.0), 0.5)
    assert fam.tail_interval(-1e10, 64, moment) == (0.0, 0.0)
    # Lattice3D has no ratio certificate: only (0, inf) is certain
    fam = ShiftedSigma(Lattice3D(1.0), 2.0)
    assert fam.tail_interval(-1e300, 64, moment) == (0.0, math.inf)


def test_no_moment_bracket_over_nonpositive_levels():
    # levels n - 1000: the moment-1 tail beyond 64 is negative, so neither
    # the floor 0 nor the absorption of sigma^k into e^(eps sigma) holds
    fam = Arithmetic(-1000.0, 1.0)
    for moment in (1, 2):
        assert fam.tail_interval(-0.05, 64, moment) is None
        assert fam.tail_interval(-0.05, 999, moment) is None
        assert fam.tail_interval(-0.05, 1000, moment) is not None
    assert fam.tail_interval(-0.05, 64, 0) is not None


def test_arithmetic_tail_where_its_amplitude_overflows():
    # e^(offset y) = e^1000 overflows: it is taken into rho^(n+1) as
    # e^(sigma_(n+1) y) = e^-25, and the brackets stay the exact tails
    # (the ratio route gave (1.389e-11, 2.197e-11) for moment 0 here)
    fam = Arithmetic(-1000.0, 1.0)
    for k, (lo, hi) in zip((0, 1, 2), fam.tail_intervals(-1.0, 1024, (0, 1, 2))):
        tail = math.fsum((m - 1000.0) ** k * math.exp(1000.0 - m) for m in range(1025, 3000))
        assert lo == hi == pytest.approx(tail, rel=1e-13)
    # e^(sigma_65 y) = e^935 overflows too: nothing is certified
    assert fam.tail_intervals(-1.0, 64, (0, 1, 2)) == [None] * 3


def test_boundary_divergence_flags(case_b_family, zeta_family):
    assert case_b_family.boundary_divergent(0) is False
    assert case_b_family.boundary_divergent(1) is True
    assert zeta_family.boundary_divergent(0) is False
    assert zeta_family.boundary_divergent(1) is False
    assert LogLevels(1.0).boundary_divergent(0) is True
    assert Arithmetic(0.0, 1.0).boundary_divergent(0) is True


class TestConstruction:
    def test_explicit_weight_below_one(self):
        with pytest.raises(ConfigurationError):
            ExplicitPrefix((0.5, 1.0), (1.0, 2.0), Arithmetic(0.0, 1.0))

    def test_explicit_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            ExplicitPrefix((1.0,), (1.0, 2.0), Arithmetic(0.0, 1.0))

    def test_weighted_geometric_needs_positive_rate(self):
        with pytest.raises(ConfigurationError):
            WeightedGeometric(0.0, 3.0)

    def test_power_law_needs_positive_exponent(self):
        with pytest.raises(ConfigurationError):
            PowerLaw(1.0, 0.0)

    def test_shift_must_lie_below_levels(self):
        with pytest.raises(ConfigurationError):
            ShiftedSigma(Arithmetic(0.0, 1.0), 2.0)

    def test_explosive_is_declared_divergent(self):
        fam = ExplosiveWeights()
        assert fam.dom_f_empty and math.isinf(fam.alpha)


def test_flip_reverses_direction():
    fam = Arithmetic(0.0, -1.0)
    assert fam.sigma_direction == -1
    flip = flipped(fam)
    assert flip.sigma_direction == +1
    assert flip.sigma(4) == -fam.sigma(4)


# (family, sigma_direction, constant_sigma, dom_f_empty, theta1, or None
# where sigma_min_set refuses the family): the metadata the base class must
# derive for every shipped family, the constant and falling ones and the
# ExplicitPrefix and ShiftedSigma wrappers included
DERIVED_METADATA = [
    (Arithmetic(0.0, 1.0), 1, False, False, 1.0),
    (Arithmetic(-3.0, 1.0), 1, False, False, -2.0),
    (Arithmetic(5.0, 0.0), 0, True, True, None),
    (Arithmetic(2.0, -1.0), -1, False, False, None),
    (Arithmetic(0.0, -1.0), -1, False, False, None),
    (PowerLaw(1.0, 0.5), 1, False, False, 1.0),
    (PowerLaw(2.0, 1.5), 1, False, False, 2.0),
    (PowerLaw(-1.0, 0.5), -1, False, False, None),
    (LogLevels(1.0), 1, False, False, math.log(2.0)),
    (LogLevels(0.5), 1, False, False, 0.5 * math.log(2.0)),
    (LogLevels(-1.0), -1, False, False, None),
    (WeightedGeometric(1.0, 3.0), 1, False, False, 1.0),
    (WeightedGeometric(0.5, 1.5), 1, False, False, 1.0),
    (Lattice3D(1.0), 1, False, False, 3.0),
    (Lattice3D(0.5), 1, False, False, 1.5),
    (ExplosiveWeights(1.0), 1, False, True, 1.0),
    (ExplicitPrefix((1.0, 2.0), (3.0, 0.5), Arithmetic(0.0, 1.0)), 1, False, False, 0.5),
    (ExplicitPrefix((1.0, 2.0), (-3.0, -1.0), Arithmetic(0.0, -1.0)), -1, False, False, None),
    (ExplicitPrefix((1.0,), (5.0,), Arithmetic(5.0, 0.0)), 0, True, True, None),
    (ExplicitPrefix((1.0, 1.0), (2.0, 1.0), WeightedGeometric(1.0, 3.0)), 1, False, False, 1.0),
    (ExplicitPrefix((1.0,), (1.0,), ExplosiveWeights(1.0)), 1, False, True, 1.0),
    (ShiftedSigma(Arithmetic(-3.0, 1.0), -3.0), 1, False, False, 1.0),
    (ShiftedSigma(WeightedGeometric(1.0, 3.0), -2.0), 1, False, False, 3.0),
    (ShiftedSigma(Lattice3D(1.0), 2.0), 1, False, False, 1.0),
    (ShiftedSigma(LogLevels(1.0), -1.0), 1, False, False, 1.0 + math.log(2.0)),
    (ShiftedSigma(ExplosiveWeights(1.0), 0.5), 1, False, True, 0.5),
    (ShiftedSigma(Arithmetic(5.0, 0.0), 4.0), 0, True, True, None),
]


@pytest.mark.parametrize("case", DERIVED_METADATA, ids=lambda c: repr(c[0]))
def test_derived_metadata(case):
    fam, direction, constant, empty, theta1 = case
    assert fam.sigma_direction == direction
    assert fam.constant_sigma is constant
    assert fam.dom_f_empty is empty
    if theta1 is None:
        with pytest.raises(UnsupportedFamilyError):
            sigma_min_set(fam)
    else:
        assert sigma_min_set(fam).theta1 == theta1


def test_shifted_terms_and_alpha(zeta_family):
    sh = ShiftedSigma(zeta_family, -2.0)
    assert sh.sigma(5) == zeta_family.sigma(5) + 2.0
    assert sh.p(5) == zeta_family.p(5)
    assert sh.alpha == zeta_family.alpha


@pytest.mark.parametrize("y", [-1e-300, -5e-324, -1e-17])
def test_arithmetic_tail_is_trivial_where_the_ratio_rounds_to_one(y):
    # exp(slope y) == 1.0: no finite bracket is certain, and returning none
    # at all kept the kernel summing to its whole term budget
    fam = Arithmetic(0.0, 1.0)
    for k in (0, 1, 2):
        assert fam.tail_interval(y, 100, k) == (0.0, math.inf)


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, -0.02), st.integers(64, 400))
def test_arithmetic_moment_tails_are_exact(y, n):
    fam = Arithmetic(0.5, 1.0)
    for k in (0, 1, 2):
        lo, hi = fam.tail_interval(y, n, k)
        assert hi - lo <= 1e-12 * max(1.0, hi)
        brute, _ = brute_force_tail(fam, y, n, 5000, k)
        assert brute == pytest.approx(hi, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("offset, slope", [(0.0, 1.0), (-3.0, 1.0), (2.0, 0.5)])
@pytest.mark.parametrize("y", [-0.05, -0.3, -2.0])
def test_arithmetic_moment_3_and_4_tails_are_exact(offset, slope, y):
    # the slope ladder's model rungs bound f''' and f'''' from these: the
    # exact tails beyond n = 64, against the terms summed directly up to
    # where they fall below 1e-80 of the first
    fam = Arithmetic(offset, slope)
    levels = [offset + slope * m for m in range(65, 65 + math.ceil(200.0 / (slope * -y)))]
    for k, (lo, hi) in zip((3, 4), fam.tail_intervals(y, 64, (3, 4))):
        direct = math.fsum(s**k * math.exp(s * y) for s in levels)
        assert lo == hi == pytest.approx(direct, rel=1e-14, abs=0.0)


def test_tail_intervals_reproduce_the_pinned_brackets():
    # tests/golden/tail_brackets.json holds repr(tail_interval(y, n, k)) at
    # commit 0a2157d, before every moment came from one tail_intervals call
    # (json.dumps(_pin_tail_brackets(), indent=1) wrote it), its Lattice3D
    # entries re-pinned when that bracket gained its ratio-test route, none
    # of them wider, and its Arithmetic entries (alone or under a prefix or
    # a shift) when Arithmetic's exact tails stopped meeting the ratio
    # route's rounding in the combiner; its WeightedGeometric(1, 1.5)
    # entries, whose moments 1 and 2 take moment absorption near -alpha,
    # were written at commit 8c72b48; every moment set and order must give
    # the same floats
    pinned = json.loads(_PINNED.read_text())
    keys = {_pin_key(f, y, n, k) for f, y, n in _pinned_bracket_inputs() for k in (0, 1, 2)}
    assert set(pinned) == keys
    for family, y, n in _pinned_bracket_inputs():
        want = [pinned[_pin_key(family, y, n, k)] for k in (0, 1, 2)]
        assert [repr(iv) for iv in family.tail_intervals(y, n, (0, 1, 2))] == want
        assert [repr(iv) for iv in family.tail_intervals(y, n, (2, 0))] == [want[2], want[0]]
        for k in (0, 1, 2):
            assert repr(family.tail_intervals(y, n, (k,))[0]) == want[k]
            assert repr(family.tail_interval(y, n, k)) == want[k]


def _arithmetic_tail(mpmath, family, y, n, k):
    """sum_{m > n} sigma_m^k e^(sigma_m y) of Arithmetic(a, b) at the float
    y, in closed form: e^(a y) sum_{m > n} (a + b m)^k rho^m, rho = e^(b y)."""
    a, b, y = mpmath.mpf(family.offset), mpmath.mpf(family.slope), mpmath.mpf(y)
    rho, om, m = mpmath.exp(b * y), -mpmath.expm1(b * y), n + 1
    g = mpmath.exp(m * b * y)  # rho^m
    s0 = g / om
    s1 = g * (m / om + rho / om**2)  # sum_{j >= 0} (m + j) rho^(m + j)
    s2 = g * (m * m / om + 2 * m * rho / om**2 + rho * (1 + rho) / om**3)
    return mpmath.exp(a * y) * (s0, a * s0 + b * s1, a * a * s0 + 2 * a * b * s1 + b * b * s2)[k]


def test_arithmetic_brackets_are_the_exact_tail():
    # Arithmetic returns its closed forms without the combiner: both ends
    # lie within 1e-14 relative of the exact tail at the float y (50 digits),
    # apart from the rounding of e^((n+1) slope y) and e^(offset y) at their
    # rounded arguments, which reaches 2.3e-14 at |(n+1) slope y| = 410, and
    # from tails below the normal floats, which round to 0
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for family, y, n in _pinned_bracket_inputs():
            if type(family) is not Arithmetic:
                continue
            rounding = 2.0**-53 * (abs((n + 1) * family.slope * y) + abs(family.offset * y))
            for k, iv in zip((0, 1, 2), family.tail_intervals(y, n, (0, 1, 2))):
                want = _arithmetic_tail(mpmath, family, y, n, k)
                for end in iv:
                    assert abs(end - want) <= (1e-14 + rounding) * want + sys.float_info.min
