"""Tests for induced ensembles and two-level concatenated rates."""

import pytest

from catcodes import (
    Basis,
    CatCodeSpec,
    CompositionLimitError,
    ConcatSpec,
    PauliChannel,
    cat_rate,
    concat_rate,
    evaluate_family,
    induced_ensemble,
    make_family,
)
from catcodes import _kernel, code_rates
from catcodes.concat import MAX_CELLS, MAX_COMPOSITIONS
from catcodes.oracle import (
    enumerate_joint,
    oracle_concat_rate,
    oracle_concat_rate_physical,
)

from conftest import EDGE_CHANNELS


DEPOL_19 = evaluate_family(make_family("depolarizing"), 0.19)


class TestInducedEnsemble:
    def test_length_one_is_bare_channel(self, channels20):
        for ch in channels20[:5]:
            for basis in Basis:
                ens = induced_ensemble(ch, CatCodeSpec(1, basis))
                assert len(ens) == 1
                weight, induced = ens[0]
                assert weight == pytest.approx(1.0, abs=1e-14)
                for got, want in zip(induced.probs, ch.probs):
                    assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_weights_normalized(self, m, channels20):
        for ch in channels20:
            ens = induced_ensemble(ch, CatCodeSpec(m))
            assert sum(weight for weight, _ in ens) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_enumeration(self, m, channels20):
        for ch in channels20[:6]:
            ens = induced_ensemble(ch, CatCodeSpec(m))
            table = enumerate_joint([ch] * m, Basis.Z)
            marginals = table.syndrome_marginals()
            for (weight, induced), r in zip(ens, range(m)):
                syndrome = tuple(1 if i < r else 0 for i in range(m - 1))
                per_syndrome = marginals[syndrome]
                count = sum(1 for s in marginals if sum(s) == r)
                assert weight == pytest.approx(count * per_syndrome, abs=1e-10)
                want = table.conditional_channel(syndrome)
                for g, w in zip(induced.probs, want.probs):
                    assert g == pytest.approx(w, abs=1e-10)

    def test_zero_weight_classes_flagged_not_dropped(self):
        ch = PauliChannel(0.9, 0.0, 0.0, 0.1)  # no amplitude flips
        ens = induced_ensemble(ch, CatCodeSpec(3))
        assert len(ens) == 3
        assert [weight == 0.0 for weight, _ in ens] == [False, True, True]
        assert ens[1][1].probs == ens[2][1].probs == (1.0, 0.0, 0.0, 0.0)


class TestConcatRate:
    def test_trivial_inner_reduces_to_outer_cat(self, channels20):
        for ch in channels20[:6]:
            for basis in Basis:
                spec = ConcatSpec(CatCodeSpec(1), CatCodeSpec(4, basis))
                assert concat_rate(ch, spec) == pytest.approx(
                    cat_rate(ch, CatCodeSpec(4, basis)), abs=1e-12
                )

    def test_trivial_outer_reduces_to_inner_cat(self, channels20):
        for ch in channels20[:6]:
            for basis in Basis:
                spec = ConcatSpec(CatCodeSpec(4, basis), CatCodeSpec(1))
                assert concat_rate(ch, spec) == pytest.approx(
                    cat_rate(ch, CatCodeSpec(4, basis)), abs=1e-12
                )

    @pytest.mark.parametrize(
        "inner_m,inner_b,outer_m,outer_b",
        [
            (3, Basis.Z, 3, Basis.X),
            (2, Basis.Z, 4, Basis.X),
            (2, Basis.X, 3, Basis.Z),
            (3, Basis.Y, 2, Basis.X),
        ],
    )
    def test_matches_composed_enumeration(
        self, inner_m, inner_b, outer_m, outer_b, channels20
    ):
        spec = ConcatSpec(CatCodeSpec(inner_m, inner_b), CatCodeSpec(outer_m, outer_b))
        for ch in [DEPOL_19, channels20[0], channels20[1], channels20[2]] + EDGE_CHANNELS:
            got = concat_rate(ch, spec)
            want = oracle_concat_rate(ch, spec.inner, spec.outer)
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "inner_m,inner_b,outer_m,outer_b",
        [
            (3, Basis.Z, 3, Basis.X),
            (2, Basis.Z, 4, Basis.X),
            (2, Basis.Y, 3, Basis.Z),
        ],
    )
    def test_matches_physical_enumeration(
        self, inner_m, inner_b, outer_m, outer_b
    ):
        # Independent first-principles check: enumerate all 4^(n*m) error
        # patterns against explicit two-level stabilizers.
        spec = ConcatSpec(CatCodeSpec(inner_m, inner_b), CatCodeSpec(outer_m, outer_b))
        ch = PauliChannel(0.82, 0.09, 0.03, 0.06)
        got = concat_rate(ch, spec)
        want = oracle_concat_rate_physical(ch, spec.inner, spec.outer)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "inner_m,outer_m", [(2, 3), (3, 5), (5, 4)]
    )
    def test_rate_bounded_by_inverse_block_size(self, inner_m, outer_m, channels20):
        spec = ConcatSpec(CatCodeSpec(inner_m), CatCodeSpec(outer_m, Basis.X))
        for ch in channels20[:8]:
            assert concat_rate(ch, spec) <= 1.0 / (inner_m * outer_m) + 1e-12

    def test_degenerate_inner_classes_handled(self):
        # Pure dephasing: every nonzero-weight syndrome class survives and
        # the rate is still defined.
        ch = PauliChannel(0.9, 0.0, 0.0, 0.1)
        spec = ConcatSpec(CatCodeSpec(3), CatCodeSpec(2, Basis.X))
        got = concat_rate(ch, spec)
        want = oracle_concat_rate(ch, spec.inner, spec.outer)
        assert got == pytest.approx(want, abs=1e-9)

    def test_long_inner_code_in_one_block_is_the_cat_code(self):
        # 1000-in-1 spreads one block over 1,000 classes: compositions of 1
        # into 1,000 parts, more than Python's default recursion limit.
        ch = evaluate_family(make_family("independent_xz_ratio", {"ratio": 100.0}), 0.002)
        got = concat_rate(ch, ConcatSpec(CatCodeSpec(1000), CatCodeSpec(1)))
        assert got == pytest.approx(cat_rate(ch, CatCodeSpec(1000)), abs=1e-12)

    def test_composition_cap_enforced(self):
        # The cap counts cells C(M + 2n - 1, 2n - 1), the work: 5-in-30 has
        # only 46,376 compositions but 211,915,132 cells.
        for spec, cells in [
            (ConcatSpec(CatCodeSpec(16), CatCodeSpec(16, Basis.X)), 1_503_232_609_098),
            (ConcatSpec(CatCodeSpec(5), CatCodeSpec(30, Basis.X)), 211_915_132),
        ]:
            with pytest.raises(CompositionLimitError, match=f"^{cells} ") as err:
                concat_rate(DEPOL_19, spec)
            assert err.value.count == cells > MAX_CELLS
        # 421-in-3 has 99,846,044 cells, under MAX_CELLS, but 12,525,171
        # compositions, each a pass of the kernel's Python loop.
        spec = ConcatSpec(CatCodeSpec(421), CatCodeSpec(3, Basis.X))
        with pytest.raises(CompositionLimitError, match="^12525171 compositions ") as err:
            concat_rate(DEPOL_19, spec)
        assert err.value.count == 12_525_171 > MAX_COMPOSITIONS == err.value.cap

    def test_cat_codes_are_capped_too(self, monkeypatch):
        # Every rate passes the caps in the kernel's rate sum, where a cat code is one class
        # over its length, m + 1 cells.  A cap of 40 cells stands in for 10^8, so a code
        # over it is refused before anything is built and nothing large is allocated.
        monkeypatch.setattr(_kernel, "MAX_CELLS", 40)
        for rates in (lambda spec: cat_rate(DEPOL_19, spec),
                      lambda spec: code_rates(make_family("depolarizing"), spec, [0.1, 0.2])):
            with pytest.raises(CompositionLimitError, match="^41 ") as err:
                rates(CatCodeSpec(40, Basis.X))
            assert (err.value.count, err.value.cap) == (41, 40)
            rates(CatCodeSpec(39))
        with pytest.raises(CompositionLimitError, match="^42 "):  # 21-in-1: C(42, 41) cells
            concat_rate(DEPOL_19, ConcatSpec(CatCodeSpec(21), CatCodeSpec(1)))
