"""Closure formula against the definitional separation oracle.

The formula side is three residue comparisons; the oracle side searches
for a separating basic neighborhood. They were developed against each
other, so every agreement test here is two independent computations of
the same verdict.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirch.topology import (
    ClosureSet,
    Progression,
    Window,
    closure,
    closure_oracle_member,
    is_kirch_open_basic,
    superconnect_witness,
)

reps = st.integers(-20, 20).filter(lambda a: a != 0)
moduli = st.integers(1, 20)
points = st.integers(-2000, 2000).filter(lambda z: z != 0)


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

    def test_membership_excludes_zero(self):
        p = Progression(3, 3)
        assert 0 not in p and -3 in p and 6 in p

    def test_sample(self):
        assert Progression(2, 5).sample(Window(12)) == [-8, -3, 2, 7, 12]


class TestBasicOpens:
    def test_frozen_examples(self):
        assert is_kirch_open_basic(1, 6)
        assert not is_kirch_open_basic(3, 6)
        assert not is_kirch_open_basic(5, 4)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            is_kirch_open_basic(0, 5)
        with pytest.raises(ValueError):
            is_kirch_open_basic(1, 0)


class TestClosureFormula:
    def test_halved_modulus_closes_everything(self):
        c = closure(Progression(1, 2))
        assert all(z in c for z in Window(50).members())

    def test_mod_three_example(self):
        c = closure(Progression(2, 3))
        for z in Window(200).members():
            assert (z in c) == (z % 3 in (0, 2))

    def test_two_prime_example(self):
        c = closure(Progression(1, 15))
        for z in (1, 6, 10, 16, -5, -14, 30):
            assert z in c
        for z in (2, 7, 8, -1, -16, 29):
            assert z not in c
        for z in Window(200).members():
            assert (z in c) == (z % 3 in (0, 1) and z % 5 in (0, 1))

    def test_zero_never_member(self):
        assert 0 not in closure(Progression(4, 2))

    def test_residues_and_str(self):
        c = closure(Progression(2, 3))
        assert c.residues_mod(3) == {0, 2}
        assert "mod 3" in str(c)
        assert str(closure(Progression(1, 1))) == "Z\\{0}"

    def test_rejects_all_primes_condition(self):
        from kirch.numtheory import PrimeSet

        with pytest.raises(ValueError):
            ClosureSet(PrimeSet.all_primes(), 1)


class TestSeparationOracle:
    def test_frozen_examples(self):
        assert closure_oracle_member(4, Progression(2, 3), 30) is False
        assert closure_oracle_member(5, Progression(2, 3), 30) is True

    def test_own_points_are_members(self):
        for a, b in ((7, 10), (-3, 9), (4, 4)):
            p = Progression(a, b)
            for z in p.sample(Window(60)):
                assert closure_oracle_member(z, p, 210 * b)

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            closure_oracle_member(4, Progression(1, 15), 14)

    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            closure_oracle_member(0, Progression(1, 3), 30)

    @given(reps, moduli, points)
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_formula(self, a, b, z):
        p = Progression(a, b)
        assert (z in closure(p)) == closure_oracle_member(z, p, 210 * b)

    def test_agrees_on_degenerate_moduli(self):
        # gcd(a,b) > 1 and squareful b get no special-casing anywhere
        for b in (4, 6, 8, 9, 12, 18):
            for a in range(-6, 7):
                if a == 0:
                    continue
                p = Progression(a, b)
                c = closure(p)
                for z in Window(60).members():
                    assert (z in c) == closure_oracle_member(z, p, 210 * b), (a, b, z)

    @given(reps, moduli)
    @settings(max_examples=200, deadline=None)
    def test_progression_inside_own_closure(self, a, b):
        p = Progression(a, b)
        c = closure(p)
        assert all(z in c for z in p.sample(Window(300)))

    @given(reps, moduli, points)
    @settings(max_examples=200, deadline=None)
    def test_negation_symmetry(self, a, b, z):
        assert (z in closure(Progression(a, b))) == (
            -z in closure(Progression(-a, b))
        )


class TestSuperconnectWitness:
    def test_frozen_examples(self):
        assert superconnect_witness(15, Window(150)) == {
            s * k for s in (1, -1) for k in range(15, 151, 15)
        }
        assert superconnect_witness(3, Window(9)) == {3, 6, 9, -3, -6, -9}
        assert superconnect_witness(105, Window(210)) == {105, 210, -105, -210}

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            superconnect_witness(6, Window(20))
        with pytest.raises(ValueError):
            superconnect_witness(9, Window(20))
        with pytest.raises(ValueError):
            superconnect_witness(15, Window(10))
