"""Tests for syndrome-class joint probabilities, induced channels, and cat-code rates."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catcodes import (
    Basis,
    CatCodeSpec,
    PauliChannel,
    ZeroProbabilityClassError,
    cat_rate,
    hashing_rate,
    induced_channel,
    joint_prob,
    joint_prob_hetero,
    logical_z_flip_prob,
    syndrome_classes,
)
from catcodes.oracle import JointTable, enumerate_joint, oracle_cat_rate

from conftest import EDGE_CHANNELS, random_channels

UV = ((0, 0), (1, 0), (1, 1), (0, 1))


def independent_channel(q_x: float, q_z: float) -> PauliChannel:
    return PauliChannel(
        (1.0 - q_x) * (1.0 - q_z),
        q_x * (1.0 - q_z),
        q_x * q_z,
        q_z * (1.0 - q_x),
    )


def syndrome_of_weight(m: int, r: int) -> tuple:
    return tuple(1 if i < r else 0 for i in range(m - 1))


# Pauli channels from four weights, normalized; a weight is often exactly 0,
# so zero-probability classes and beta = 0 or bbar = 0 come up.
CHANNELS_WITH_ZEROS = (
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=4, max_size=4)
    .filter(lambda w: sum(w) > 0.0)
    .map(lambda w: PauliChannel(*(x / sum(w) for x in w)))
)


class TestJointProb:
    def test_length_one_equals_bare_channel(self):
        for ch in random_channels(seed=11, count=10):
            probs = (ch.p_i, ch.p_x, ch.p_y, ch.p_z)
            for (u, v), expected in zip(UV, probs):
                assert joint_prob(ch, 1, u, v, 0).to_float() == pytest.approx(
                    expected, abs=1e-14
                )

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_v_sum_collapses_to_flip_pattern_probability(self, m, channels20):
        # Summing over the phase label leaves the probability of the
        # amplitude-flip pattern: q_x^a (1-q_x)^b for each logical value u.
        for ch in channels20:
            for r in range(m):
                for u in (0, 1):
                    a = u * (m - 2 * r) + r
                    b = (1 - u) * (m - 2 * r) + r
                    total = sum(
                        joint_prob(ch, m, u, v, r).to_float() for v in (0, 1)
                    )
                    assert total == pytest.approx(
                        ch.q_x**a * (1.0 - ch.q_x) ** b, abs=1e-12
                    )

    @pytest.mark.parametrize("m", [1, 2, 3, 6, 17, 40])
    def test_normalization(self, m, channels20):
        for ch in channels20:
            total = sum(
                sc.multiplicity * sc.total().to_float()
                for sc in syndrome_classes(ch, m)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_multiplicities_are_binomial(self):
        ch = independent_channel(0.1, 0.05)
        for m in (1, 2, 5, 9):
            classes = syndrome_classes(ch, m)
            assert [sc.r for sc in classes] == list(range(m))
            assert [sc.multiplicity for sc in classes] == [
                math.comb(m - 1, r) for r in range(m)
            ]

    def test_no_underflow_at_large_length(self):
        # Direct products of m = 4096 factors underflow doubles; the
        # log-domain path must still give every class a positive total and
        # a finite log-weight (vectors scaled by their maximum would not).
        depolarizing = PauliChannel(0.81, 0.19 / 3, 0.19 / 3, 0.19 / 3)
        for ch in (independent_channel(0.3, 0.01), depolarizing):
            classes = syndrome_classes(ch, 4096)
            assert all(sc.total().sign == 1 for sc in classes)
            # math.log takes the exact int: multiplicities this large exceed float range.
            log_weights = [math.log(sc.multiplicity) + sc.total().logmag for sc in classes]
            assert all(math.isfinite(lw) for lw in log_weights)
            total = sum(math.exp(lw) for lw in log_weights)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert classes[2048].total().to_float() == 0.0  # underflows as a plain double


@pytest.mark.parametrize("u,v", [(2, 0), (0, 2), (-1, 0), (0, -1)])
def test_logical_labels_outside_uv_order_are_rejected(u, v):
    ch = PauliChannel(0.7, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError, match=r"\(u, v\) = "):
        joint_prob(ch, 3, u, v, 0)
    with pytest.raises(ValueError, match=r"\(u, v\) = "):
        joint_prob_hetero([ch] * 3, u, v, (0, 0))


class TestHetero:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_reduces_to_homogeneous(self, m, channels20):
        for ch in channels20:
            for r in range(m):
                syndrome = syndrome_of_weight(m, r)
                for u, v in UV:
                    hom = joint_prob(ch, m, u, v, r).to_float()
                    het = joint_prob_hetero([ch] * m, u, v, syndrome).to_float()
                    assert het == pytest.approx(hom, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_enumeration(self, m):
        rng_channels = random_channels(seed=500 + m, count=20 * m)
        for case in range(20):
            chs = rng_channels[case * m : (case + 1) * m]
            table = enumerate_joint(chs, Basis.Z)
            for syndrome in table.syndrome_marginals():
                for u, v in UV:
                    got = joint_prob_hetero(chs, u, v, syndrome).to_float()
                    assert got == pytest.approx(
                        table.probs[(syndrome, u, v)], abs=1e-10
                    )


class TestAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(CHANNELS_WITH_ZEROS, st.integers(1, 6))
    def test_classes_and_induced_channels(self, ch, m):
        table = enumerate_joint([ch] * m, Basis.Z)
        for sc in syndrome_classes(ch, m):
            syndrome = syndrome_of_weight(m, sc.r)
            for val, (u, v) in zip(sc.joint, UV):
                want = table.probs.get((syndrome, u, v), 0.0)
                assert val.to_float() == pytest.approx(want, abs=1e-10)
            if sc.total().sign == 0:
                with pytest.raises(ZeroProbabilityClassError):
                    induced_channel(sc)
                continue
            got = induced_channel(sc)
            want = table.conditional_channel(syndrome)
            for g, w in zip(got.probs, want.probs):
                assert g == pytest.approx(w, abs=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda m: st.lists(CHANNELS_WITH_ZEROS, min_size=m, max_size=m)))
    def test_hetero(self, chs):
        table = enumerate_joint(chs, Basis.Z)
        for syndrome in itertools.product((0, 1), repeat=len(chs) - 1):
            for u, v in UV:
                got = joint_prob_hetero(chs, u, v, syndrome).to_float()
                want = table.probs.get((syndrome, u, v), 0.0)
                assert got == pytest.approx(want, abs=1e-10)


class TestInducedChannel:
    def test_length_one_returns_input(self, channels20):
        for ch in channels20:
            (sc,) = syndrome_classes(ch, 1)
            ind = induced_channel(sc)
            for got, want in zip(ind.probs, ch.probs):
                assert got == pytest.approx(want, abs=1e-14)

    def test_zero_probability_class_raises(self):
        ch = PauliChannel(0.9, 0.0, 0.0, 0.1)  # no amplitude flips
        classes = syndrome_classes(ch, 3)
        assert classes[1].total().sign == 0
        with pytest.raises(ZeroProbabilityClassError):
            induced_channel(classes[1])

    @pytest.mark.parametrize("m", [1, 2, 4, 7, 25, 60])
    def test_logical_phase_flip_closed_form(self, m):
        # With independent amplitude/phase noise the induced phase-flip
        # probability is the same for every syndrome class.
        for q_x, q_z in ((0.3, 0.01), (0.1, 0.1), (0.05, 0.2)):
            ch = independent_channel(q_x, q_z)
            expected = logical_z_flip_prob(q_z, m)
            for sc in syndrome_classes(ch, m):
                ind = induced_channel(sc)
                assert ind.p_y + ind.p_z == pytest.approx(expected, abs=1e-12)

    def test_logical_z_flip_prob_values(self):
        assert logical_z_flip_prob(0.0, 7) == 0.0
        assert logical_z_flip_prob(0.5, 3) == pytest.approx(0.5, abs=1e-15)
        assert logical_z_flip_prob(0.1, 1) == pytest.approx(0.1, abs=1e-15)
        # two uses: flip iff exactly one qubit flips
        assert logical_z_flip_prob(0.1, 2) == pytest.approx(
            2 * 0.1 * 0.9, abs=1e-15
        )


class TestCatRate:
    def test_length_one_is_hashing(self, channels20):
        for ch in channels20:
            for basis in Basis:
                assert cat_rate(ch, CatCodeSpec(1, basis)) == pytest.approx(
                    hashing_rate(ch), abs=1e-14
                )

    @pytest.mark.parametrize("m", [2, 3, 5, 9])
    def test_rate_bounded_by_inverse_length(self, m, channels20):
        for ch in channels20:
            assert cat_rate(ch, CatCodeSpec(m)) <= 1.0 / m + 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("basis", list(Basis))
    def test_matches_enumeration(self, m, basis, channels20):
        for ch in channels20 + EDGE_CHANNELS:
            got = cat_rate(ch, CatCodeSpec(m, basis))
            want = oracle_cat_rate([ch] * m, basis)
            assert got == pytest.approx(want, abs=1e-10)

    def test_induced_channels_match_enumeration(self, channels20):
        for ch in channels20[:5]:
            for m in (2, 3, 4):
                table = enumerate_joint([ch] * m, Basis.Z)
                classes = syndrome_classes(ch, m)
                for r in range(m):
                    syndrome = syndrome_of_weight(m, r)
                    want = table.conditional_channel(syndrome)
                    got = induced_channel(classes[r])
                    for g, w in zip(got.probs, want.probs):
                        assert g == pytest.approx(w, abs=1e-10)

    def test_information_tradeoff_is_monotone(self):
        # Longer codes reveal more about the amplitude flip and less
        # about the phase flip.
        def h2(q):
            if q <= 0.0 or q >= 1.0:
                return 0.0
            return -q * math.log2(q) - (1 - q) * math.log2(1 - q)

        ch = independent_channel(0.3, 0.01)
        prev_hx = None
        prev_hz = None
        for m in range(1, 51):
            hx = 0.0
            for sc in syndrome_classes(ch, m):
                tot = sc.total().to_float()
                if tot <= 0.0:
                    continue
                p_u1 = (sc.joint[1].to_float() + sc.joint[2].to_float()) / tot
                hx += sc.multiplicity * tot * h2(min(max(p_u1, 0.0), 1.0))
            hz = h2(logical_z_flip_prob(0.01, m))
            if prev_hx is not None:
                assert hx <= prev_hx + 1e-12
                assert hz >= prev_hz - 1e-12
            prev_hx, prev_hz = hx, hz

    def test_depolarizing_rate_is_basis_invariant(self):
        ch = PauliChannel(0.81, 0.19 / 3, 0.19 / 3, 0.19 / 3)
        for m in (2, 3, 5):
            rates = [cat_rate(ch, CatCodeSpec(m, basis)) for basis in Basis]
            assert max(rates) - min(rates) <= 1e-12

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            CatCodeSpec(0)

    @pytest.mark.parametrize(
        "args,field",
        [((2.5,), "length m"), ((3.0,), "length m"), ((float("nan"),), "length m"),
         ((3, "X"), "basis")],
    )
    def test_bad_field_rejected_when_built(self, args, field):
        # Unchecked, these specs build and fail later: a float length deep in
        # the rate kernel, a string basis at the basis-slot lookup.
        with pytest.raises(ValueError, match=f"cat code {field} must be"):
            CatCodeSpec(*args)
        assert CatCodeSpec(np.int64(3)).m == 3
