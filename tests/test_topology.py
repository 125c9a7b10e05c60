"""Closure formula against the definitional separation oracle.

The formula side is three residue comparisons; the oracle side searches
for a separating basic neighborhood. They were developed against each
other, so every agreement test here is two independent computations of
the same verdict.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kirch.numtheory import MAX_MAGNITUDE
from kirch.topology import (
    ClosureSet,
    Progression,
    closure,
    closure_oracle_member,
)

reps = st.integers(-20, 20).filter(lambda a: a != 0)
moduli = st.integers(1, 20)
points = st.integers(-2000, 2000).filter(lambda z: z != 0)


def window(W: int) -> list[int]:
    """[-W, W] minus 0, ascending."""
    return [*range(-W, 0), *range(1, W + 1)]


def members(p: Progression, W: int) -> list[int]:
    return [z for z in window(W) if z in p]


class TestProgression:
    def test_normalization(self):
        assert Progression(8, 3) == Progression(-1, 3)
        assert Progression(0, 5).a == 5
        assert Progression(7, 4).a == -1
        assert Progression(2, 4).a == 2  # tie goes positive
        assert Progression(1, 1).a == 1

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            Progression(1, 0)

    @pytest.mark.parametrize("a,b", [(2**63, 3), (-(2**63), 3), (1, 2**63)])
    def test_rejects_past_63_bits(self, a, b):
        with pytest.raises(OverflowError, match="63-bit"):
            Progression(a, b)
        Progression(2**63 - 1, 2**63 - 1)

    def test_membership_excludes_zero(self):
        p = Progression(3, 3)
        assert 0 not in p and -3 in p and 6 in p


class TestWindow:
    """The window bound that ClosureSet.sample takes."""

    def test_bounds(self):
        cs = closure(Progression(1, 1))
        assert cs.sample(1) == [-1, 1]
        assert len(cs.sample(10**6)) == 2 * 10**6
        for W in (0, -1, 10**6 + 1, 2**63):
            with pytest.raises(ValueError, match=f"^window bound {W} must lie"):
                cs.sample(W)


class TestClosureFormula:
    def test_halved_modulus_closes_everything(self):
        c = closure(Progression(1, 2))
        assert all(z in c for z in window(50))

    def test_mod_three_example(self):
        c = closure(Progression(2, 3))
        for z in window(200):
            assert (z in c) == (z % 3 in (0, 2))

    def test_two_prime_example(self):
        c = closure(Progression(1, 15))
        for z in (1, 6, 10, 16, -5, -14, 30):
            assert z in c
        for z in (2, 7, 8, -1, -16, 29):
            assert z not in c
        for z in window(200):
            assert (z in c) == (z % 3 in (0, 1) and z % 5 in (0, 1))

    def test_zero_never_member(self):
        assert 0 not in closure(Progression(4, 2))

    def test_residues_and_str(self):
        c = closure(Progression(2, 3))
        assert c.residues_mod(3) == {0, 2}
        assert "mod 3" in str(c)
        assert str(closure(Progression(1, 1))) == "Z\\{0}"
        assert closure(Progression(1, 1)) == ClosureSet((), 1)


class TestSample:
    # sample filters a prime at a time, the largest first, and skips 2
    # when a is odd; each is checked against the point-by-point
    # membership test it replaces, for even and odd a, on moduli with
    # and without 2 and with up to five primes
    @pytest.mark.parametrize("b", [*range(1, 61), 1001, 1155, 2002, 2310])
    def test_matches_membership(self, b):
        W = max(100, b)
        for a in (*range(-30, 0), *range(1, 31)):
            cs = closure(Progression(a, b))
            assert cs.sample(W) == [z for z in window(W) if z in cs], (a, b)

    def test_five_primes(self):
        # by the CRT, 2^5 classes mod 2310 pass all five filters; [-2310,
        # 2310] minus 0 holds two whole periods, less 0, plus 2310
        cs = closure(Progression(1, 2310))
        assert cs.modulus_primes == (2, 3, 5, 7, 11)
        got = cs.sample(2310)
        assert len(got) == 2 * 2**5
        assert got == [z for z in range(-2310, 2311)
                       if z and all(z % p in (0, 1) for p in cs.modulus_primes)]


class TestSeparationOracle:
    def test_frozen_examples(self):
        assert closure_oracle_member(4, Progression(2, 3)) is False
        assert closure_oracle_member(5, Progression(2, 3)) is True

    def test_own_points_are_members(self):
        for a, b in ((7, 10), (-3, 9), (4, 4)):
            p = Progression(a, b)
            for z in members(p, 60):
                assert closure_oracle_member(z, p)

    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            closure_oracle_member(0, Progression(1, 3))

    @given(reps, moduli, points)
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_formula(self, a, b, z):
        p = Progression(a, b)
        assert (z in closure(p)) == closure_oracle_member(z, p)

    def test_agrees_on_degenerate_moduli(self):
        # gcd(a,b) > 1 and squareful b get no special-casing anywhere
        for b in (4, 6, 8, 9, 12, 18):
            for a in range(-6, 7):
                if a == 0:
                    continue
                p = Progression(a, b)
                c = closure(p)
                for z in window(60):
                    assert (z in c) == closure_oracle_member(z, p), (a, b, z)

    @pytest.mark.parametrize("b", [30, 42, 105, 210])
    def test_agrees_over_one_period(self, b):
        # three or four primes of b are usable by the oracle's subset
        # search, and both sides are periodic in z with period b
        for a in range(1, b + 1):
            p = Progression(a, b)
            c = closure(p)
            for z in range(1, b + 1):
                assert (z in c) == closure_oracle_member(z, p), (a, b, z)

    @given(reps, moduli)
    @settings(max_examples=200, deadline=None)
    def test_progression_inside_own_closure(self, a, b):
        p = Progression(a, b)
        c = closure(p)
        assert all(z in c for z in members(p, 300))

    @given(reps, moduli, points)
    @settings(max_examples=200, deadline=None)
    def test_negation_symmetry(self, a, b, z):
        assert (z in closure(Progression(a, b))) == (
            -z in closure(Progression(-a, b))
        )


def period(p: Progression) -> int:
    return math.lcm(p.b, math.prod(closure(p).modulus_primes))


class TestPeriod:
    """The `closure` suite decides one point per sign and residue class
    mod this period, so each side must read z only through its class."""

    def test_both_sides_repeat_near_zero(self):
        progs = {
            Progression(a, b) for a in range(-20, 21) if a for b in range(1, 21)
        }
        for p in progs:
            c, t = closure(p), period(p)
            for z in range(-60, 61):
                if z == 0 or z + t == 0:
                    continue
                y = z + t
                assert (z in c) == (y in c), (p, z)
                assert closure_oracle_member(z, p) == closure_oracle_member(y, p), (p, z)

    @given(reps, moduli, st.integers(-MAX_MAGNITUDE, MAX_MAGNITUDE),
           st.integers(-MAX_MAGNITUDE, MAX_MAGNITUDE))
    @settings(max_examples=300, deadline=None)
    def test_both_sides_repeat_across_63_bits(self, a, b, z, y):
        p = Progression(a, b)
        t = period(p)
        # the point of z's class at most one period below y
        y = z + (y - z) // t * t
        assume(z != 0 and y != 0 and abs(y) <= MAX_MAGNITUDE)
        c = closure(p)
        assert (z in c) == (y in c)
        assert closure_oracle_member(z, p) == closure_oracle_member(y, p)


class TestSuperconnectWitness:
    def test_frozen_examples(self):
        # cl(1+qZ) and cl(2+qZ) meet exactly in the nonzero multiples of
        # q, for odd squarefree q. Both sides are periodic mod q (the
        # TestPeriod premise), so the points +-1..+-q decide each q.
        # 3, 5 and 7 are the odd primes whose squares are at most 105
        odd_squarefree = [q for q in range(1, 106, 2) if all(q % (p * p) for p in (3, 5, 7))]
        assert {3, 15, 105} <= set(odd_squarefree)
        for q in odd_squarefree:
            p1, p2 = Progression(1, q), Progression(2, q)
            c1, c2 = closure(p1), closure(p2)
            for z in (*range(-q, 0), *range(1, q + 1)):
                assert (z in c1 and z in c2) == (z % q == 0), (q, z)
                assert (closure_oracle_member(z, p1) and closure_oracle_member(z, p2)) == (
                    z % q == 0
                ), (q, z)
