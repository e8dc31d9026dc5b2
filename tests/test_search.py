"""Tests for threshold bisection, length scans, and the asymptotic rate estimate."""

import math

import pytest

import catcodes.search as search
from catcodes import (
    Basis,
    CatCodeSpec,
    ConcatSpec,
    NoBracketError,
    PauliChannel,
    asymptotic_rate_estimate,
    best_length_scan,
    best_threshold_scan,
    cat_rate,
    code_rate,
    evaluate_family,
    hashing_rate,
    make_family,
    rule_of_thumb_lengths,
    threshold,
)

DEPOL = make_family("depolarizing")
TWO_PAULI = make_family("two_pauli")

# Frozen zero-crossings of the hashing rate (50-digit bisection, rounded).
HASHING_ZERO_DEPOL = 0.1892896249
HASHING_ZERO_TWO_PAULI = 0.2270921952


def independent_channel(q_x: float, q_z: float) -> PauliChannel:
    return PauliChannel(
        (1.0 - q_x) * (1.0 - q_z),
        q_x * (1.0 - q_z),
        q_x * q_z,
        q_z * (1.0 - q_x),
    )


class TestThreshold:
    def test_hashing_code_reproduces_depolarizing_zero(self):
        res = threshold(DEPOL, CatCodeSpec(1), tol=1e-8)
        assert res.p_star == pytest.approx(HASHING_ZERO_DEPOL, abs=1e-7)
        lo, hi = res.bracket
        assert hi - lo <= 1e-8
        assert code_rate(DEPOL, CatCodeSpec(1), lo) > 0 >= code_rate(
            DEPOL, CatCodeSpec(1), hi
        )

    def test_hashing_code_reproduces_two_pauli_zero(self):
        res = threshold(TWO_PAULI, None, tol=1e-8)
        assert res.p_star == pytest.approx(HASHING_ZERO_TWO_PAULI, abs=1e-7)

    def test_cat_threshold_exceeds_hashing_threshold(self):
        res = threshold(DEPOL, CatCodeSpec(5), tol=1e-6)
        assert res.p_star > HASHING_ZERO_DEPOL

    def test_no_bracket_when_rate_stays_positive(self, monkeypatch):
        monkeypatch.setattr(search, "code_rate", lambda *a, **k: 1.0)
        monkeypatch.setattr(search, "code_rates", lambda family, code, ps, **k: [1.0] * len(ps))
        with pytest.raises(NoBracketError):
            threshold(DEPOL, CatCodeSpec(1), tol=1e-6)

    def test_no_bracket_when_rate_negative_at_start(self, monkeypatch):
        monkeypatch.setattr(search, "code_rates", lambda family, code, ps: [-1.0] * len(ps))
        with pytest.raises(NoBracketError, match="p = 0"):
            threshold(DEPOL, CatCodeSpec(1), tol=1e-6)

    def test_result_records_evaluations_and_code(self):
        res = threshold(DEPOL, CatCodeSpec(2), tol=1e-5)
        assert res.evaluations > 0
        assert res.code == CatCodeSpec(2)
        assert res.family == DEPOL
        assert res.warning is None


class TestCodeRate:
    def test_none_code_is_hashing(self):
        for p in (0.05, 0.15, 0.2):
            assert code_rate(DEPOL, None, p) == pytest.approx(
                hashing_rate(evaluate_family(DEPOL, p)), abs=1e-14
            )

    def test_concat_code_accepted(self):
        spec = ConcatSpec(CatCodeSpec(2), CatCodeSpec(2, Basis.X))
        got = code_rate(DEPOL, spec, 0.1)
        assert math.isfinite(got)


class TestBestLengthScan:
    def test_vanishing_noise_prefers_hashing(self):
        rows, best_m = best_length_scan(DEPOL, 0.001, Basis.Z, range(1, 11))
        assert best_m == 1
        assert [row.m for row in rows] == list(range(1, 11))
        assert rows[0].rate == pytest.approx(
            hashing_rate(evaluate_family(DEPOL, 0.001)), abs=1e-14
        )

    def test_moderate_depolarizing_noise_prefers_longer_code(self):
        _rows, best_m = best_length_scan(DEPOL, 0.189, Basis.Z, range(1, 9))
        assert best_m > 1

    def test_threshold_scan_optimum_tracks_inverse_phase_rate(self):
        # Almost-bitflip family through (q_x, q_z) = (0.3, 0.01): the
        # length with the best zero-rate threshold is within a factor of
        # two of 1/q_z evaluated at the hashing threshold (~91).
        fam = make_family("independent_xz_ratio", {"ratio": 30.0})
        p_hash = threshold(fam, None, tol=1e-6).p_star
        q_z_at = evaluate_family(fam, p_hash).q_z
        rows, best_m = best_threshold_scan(
            fam, Basis.Z, range(2, 201, 7), tol=1e-6
        )
        assert 1 / q_z_at == pytest.approx(91.4, abs=1.0)
        assert (1 / q_z_at) / 2 <= best_m <= 2 / q_z_at
        assert max(r.threshold for r in rows if r.threshold is not None) > p_hash


class TestTwoPauliFutility:
    @pytest.mark.parametrize("p", [0.22, 0.2271])
    def test_no_cat_code_beats_hashing_where_it_is_positive(self, p):
        # No repetition code achieves a positive rate where hashing is
        # non-positive, and none beats hashing where hashing is positive.
        ch = evaluate_family(TWO_PAULI, p)
        ceiling = max(hashing_rate(ch), 0.0)
        for m in range(2, 31):
            for basis in Basis:
                assert cat_rate(ch, CatCodeSpec(m, basis)) <= ceiling + 1e-10


class TestAsymptoticEstimate:
    def test_closed_form_values(self):
        for q_z in (1e-3, 1e-2):
            want = 2 * q_z * math.log(1 / q_z) / math.log(math.log(1 / q_z))
            assert asymptotic_rate_estimate(q_z) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("q_z", [0.0, -0.1, 1 / math.e, 0.5])
    def test_domain_errors(self, q_z):
        with pytest.raises(ValueError):
            asymptotic_rate_estimate(q_z)

    def test_factor_of_three_agreement_near_hashing_point(self):
        # Almost-bitflip channel q_x = 0.3, q_z = 1e-2 (hashing rate 0.038):
        # the best cat rate agrees with the asymptotic guide within 3x.
        ch = independent_channel(0.3, 0.01)
        best = max(cat_rate(ch, CatCodeSpec(m)) for m in range(1, 61))
        estimate = asymptotic_rate_estimate(0.01)
        assert estimate / 3 <= best <= estimate * 3


class TestRuleOfThumb:
    def test_reports_both_estimates(self):
        ch = independent_channel(0.25, 0.028)
        m_qz, m_pz = rule_of_thumb_lengths(ch.q_z, ch.p_z)
        assert m_qz == pytest.approx(1 / ch.q_z, abs=1e-9)
        assert m_pz == pytest.approx(1 / ch.p_z, abs=1e-9)
        assert m_pz > m_qz
