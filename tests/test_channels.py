import math

import pytest

from catcodes import (
    Basis,
    CatCodeSpec,
    ChannelFamily,
    ConcatSpec,
    InvalidDistributionError,
    NoSolutionError,
    PauliChannel,
    cat_rate,
    concat_rate,
    entropy4,
    evaluate_family,
    hashing_rate,
    make_family,
)
from catcodes.channels import BASIS_SLOTS, family_probs
from conftest import random_channels


def h2(p: float) -> float:
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


class TestEntropy:
    def test_deterministic(self):
        assert entropy4((1, 0, 0, 0)) == 0.0

    def test_uniform(self):
        assert entropy4((0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0, abs=1e-15)

    def test_against_high_precision_evaluation(self):
        # frozen from a 50-digit mpmath evaluation of -sum d log2 d
        assert entropy4((0.7, 0.1, 0.1, 0.1)) == pytest.approx(1.3567796494470395, abs=1e-12)

    def test_rejects_negative_component(self):
        with pytest.raises(InvalidDistributionError):
            entropy4((1.1, -0.1, 0.0, 0.0))
        with pytest.raises(InvalidDistributionError):
            entropy4((math.nan, 0.0, 0.0, 1.0))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            entropy4((0.5, 0.2, 0.2, 0.2))

    def test_clamps_tiny_negative(self):
        assert entropy4((1.0 + 5e-13, -5e-13, 0.0, 0.0)) == 0.0


class TestPauliChannel:
    def test_clamps_roundoff(self):
        ch = PauliChannel(1.0 + 5e-13, -5e-13, 0.0, 0.0)
        assert ch.p_x == 0.0

    def test_rejects_real_negative(self):
        with pytest.raises(InvalidDistributionError):
            PauliChannel(1.1, -0.1, 0.0, 0.0)
        with pytest.raises(InvalidDistributionError):
            PauliChannel(math.nan, 0.0, 0.0, 0.0)

    def test_int_components_give_the_rates_of_float_components(self):
        # Ints used to reach the kernel as an int64 array, which no float log fits.
        ints, floats = PauliChannel(0, 1, 0, 0), PauliChannel(0.0, 1.0, 0.0, 0.0)
        assert all(type(p) is float for p in ints.probs)
        for rate in (
            lambda ch: cat_rate(ch, CatCodeSpec(3)),
            lambda ch: concat_rate(ch, ConcatSpec(CatCodeSpec(2), CatCodeSpec(3))),
            hashing_rate,
        ):
            assert rate(ints).hex() == rate(floats).hex()

    def test_q_marginals(self):
        ch = PauliChannel(0.9, 0.05, 0.02, 0.03)
        assert ch.q_x == pytest.approx(0.07)
        assert ch.q_z == pytest.approx(0.05)


class TestHashingRate:
    def test_noiseless(self):
        assert hashing_rate(PauliChannel(1, 0, 0, 0)) == 1.0

    @pytest.mark.parametrize("p", [0.05 * k for k in range(1, 10)])
    def test_two_pauli_closed_form(self, p):
        ch = evaluate_family(make_family("two_pauli"), p)
        assert hashing_rate(ch) == pytest.approx(1 - h2(p) - p, abs=1e-12)

    def test_two_pauli_zero_crossing(self):
        # bisection on 1 - H2(p) - p, frozen from a 50-digit run: 0.2270921952...
        fam = make_family("two_pauli")
        assert abs(_bisect_hashing(fam) - 0.2271) < 1e-3
        assert _bisect_hashing(fam) == pytest.approx(0.2270921952, abs=1e-6)

    def test_depolarizing_zero_crossing(self):
        # frozen from the same high-precision bisection: 0.1892896249...
        fam = make_family("depolarizing")
        assert abs(_bisect_hashing(fam) - 0.1893) < 1e-3
        assert _bisect_hashing(fam) == pytest.approx(0.1892896249, abs=1e-6)

    def test_depolarizing_rate_decreasing(self):
        fam = make_family("depolarizing")
        rates = [hashing_rate(evaluate_family(fam, p)) for p in [0.75 * k / 40 for k in range(41)]]
        assert all(a > b for a, b in zip(rates, rates[1:]))


def _bisect_hashing(fam, lo=0.05, hi=0.7):
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if hashing_rate(evaluate_family(fam, mid)) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFamilies:
    def test_two_pauli_definition(self):
        ch = evaluate_family(make_family("two_pauli"), 0.2)
        assert ch.probs == pytest.approx((0.8, 0.1, 0.0, 0.1), abs=1e-15)

    @pytest.mark.parametrize(
        "fam",
        [
            make_family("depolarizing"),
            make_family("two_pauli"),
            make_family("independent_xz_ratio", {"ratio": 9}),
            make_family("custom_ray", {"ex": 1, "ey": 2, "ez": 3}),
        ],
    )
    def test_zero_noise_is_noiseless(self, fam):
        assert evaluate_family(fam, 0.0).probs == (1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.29, 0.5])
    def test_independent_ratio_residuals(self, p):
        ch = evaluate_family(make_family("independent_xz_ratio", {"ratio": 9}), p)
        q_x, q_z = ch.q_x, ch.q_z
        assert q_x == pytest.approx(9 * q_z, abs=1e-12)
        assert q_x + q_z - q_x * q_z == pytest.approx(p, abs=1e-12)
        # independence structure
        assert ch.p_y == pytest.approx(q_x * q_z, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 10, 26, 27, 40, 52, 53])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_independent_ratio_near_one_at_full_noise(self, k, sign):
        # At ratio ~ 1 and p ~ 1, (1 + ratio)^2 - 4 ratio p cancels; the
        # channel must still be a valid distribution.
        ratio = 1.0 + sign * 2.0**-k
        for p in (1.0, 1.0 - 1e-16):
            ch = evaluate_family(make_family("independent_xz_ratio", {"ratio": ratio}), p)
            assert min(ch.probs) >= 0.0
            assert ch.q_x + ch.q_z - ch.q_x * ch.q_z == pytest.approx(p, abs=1e-12)

    def test_out_of_range_p(self):
        with pytest.raises(NoSolutionError):
            evaluate_family(make_family("depolarizing"), 1.5)
        with pytest.raises(NoSolutionError):
            evaluate_family(make_family("two_pauli"), -0.1)
        with pytest.raises(NoSolutionError):
            evaluate_family(make_family("depolarizing"), math.nan)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_family("amplitude_damping")

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("independent_xz_ratio", {}),
            ("independent_xz_ratio", {"ratio": -1.0}),
            ("independent_xz_ratio", {"ratio": math.nan}),
            ("independent_xz_ratio", {"ratio": math.inf}),
            ("custom_ray", {}),
            ("custom_ray", {"ex": -0.1, "ez": 1.0}),
            ("custom_ray", {"ex": math.nan}),
            ("custom_ray", {"ez": math.inf}),
            ("depolarizing", {"p": 0.1}),
        ],
    )
    def test_invalid_parameters(self, kind, params):
        with pytest.raises(ValueError):
            make_family(kind, params)


FAMILIES = [
    make_family("depolarizing"),
    make_family("two_pauli"),
    make_family("independent_xz_ratio", {"ratio": 9.0}),
    make_family("independent_xz_ratio", {"ratio": 1.0 + 2.0**-40}),
    make_family("custom_ray", {"ex": 1.0, "ez": 2.0}),
]


class TestFamilyProbs:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    def test_rows_are_evaluate_family_bit_for_bit(self, family):
        grid = [0.0, 1.0, -5e-13, 1.0 + 5e-13, 1e-300, 0.1, 0.1892896249, 0.5, 1.0 - 1e-16]
        rows = family_probs(family, grid)
        assert rows.shape == (len(grid), 4)
        for p, row in zip(grid, rows.tolist()):
            assert [x.hex() for x in row] == [x.hex() for x in evaluate_family(family, p).probs]
        assert family_probs(family, []).shape == (0, 4)

    @pytest.mark.parametrize(
        "family",
        FAMILIES + [
            # Directions make_family rejects: a negative component, and a sum of 2.
            ChannelFamily("custom_ray", (("ex", -1.0), ("ey", 0.0), ("ez", 2.0))),
            ChannelFamily("custom_ray", (("ex", 1.0), ("ey", 0.0), ("ez", 1.0))),
        ],
    )
    @pytest.mark.parametrize("p", [-1e-11, 1.0 + 1e-11, 1.5, math.nan, 0.25])
    def test_raises_what_evaluate_family_raises(self, family, p):
        try:
            evaluate_family(family, p)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                family_probs(family, [0.1, p])
            assert type(got.value) is type(exc)
        else:
            assert family_probs(family, [0.1, p]).shape == (2, 4)


def relabelled(probs: tuple, basis: Basis) -> tuple:
    """The slots (I, X, Y, Z) of a code in `basis`, read from probs by `BASIS_SLOTS`."""
    return tuple(probs[i] for i in BASIS_SLOTS[basis])


class TestBasisSlots:
    def test_z_is_identity(self):
        assert BASIS_SLOTS[Basis.Z] == (0, 1, 2, 3)

    def test_x_swaps_x_and_z(self):
        assert relabelled((0.9, 0.05, 0.02, 0.03), Basis.X) == (0.9, 0.03, 0.02, 0.05)

    def test_y_swaps_y_and_z(self):
        assert relabelled((0.9, 0.05, 0.02, 0.03), Basis.Y) == (0.9, 0.05, 0.03, 0.02)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_involution_and_simplex(self, basis):
        for ch in random_channels(7, 10):
            assert relabelled(relabelled(ch.probs, basis), basis) == ch.probs
            assert sum(PauliChannel(*relabelled(ch.probs, basis)).probs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_depolarizing_rate_basis_invariant(self, m):
        ch = evaluate_family(make_family("depolarizing"), 0.19)
        rates = [cat_rate(ch, CatCodeSpec(m, b)) for b in Basis]
        assert max(rates) - min(rates) < 1e-12
