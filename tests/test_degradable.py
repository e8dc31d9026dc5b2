"""Tests for the degradability decision pipeline on small channels."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catcodes import (
    Basis,
    CatCodeSpec,
    ChannelMatrixRep,
    ConcatSpec,
    KrausSet,
    PauliChannel,
    antidegradable,
    cat_rate,
    choi_of_map,
    complementary,
    concat_rate,
    degradability_verdict,
    evaluate_family,
    hashing_rate,
    kraus_from_pauli,
    make_family,
    natural_rep,
    solve_degrading,
)
from catcodes.degradable import MalformedMapError
from catcodes.oracle import oracle_cat_rate
from catcodes.search import PRE_SCAN_POINTS

TWO_PAULI = make_family("two_pauli")
IDENTITY = PauliChannel(1.0, 0.0, 0.0, 0.0)  # the noiseless channel

# Environment relabeling between the complement's Kraus-index basis
# (identity, X, Z for a two-Pauli channel) and the basis used by the
# reference matrices below (X, Z, identity).
ENV_PERM = (1, 2, 0)


def reference_natural_rep(p: float) -> np.ndarray:
    """4x4 matrix of the two-Pauli channel on matrix units."""
    return np.array(
        [
            [1 - p / 2, 0, 0, p / 2],
            [0, 1 - 3 * p / 2, p / 2, 0],
            [0, p / 2, 1 - 3 * p / 2, 0],
            [p / 2, 0, 0, 1 - p / 2],
        ]
    )


def reference_complement_rep(p: float) -> np.ndarray:
    """9x4 matrix (transposed action) of the complement in X, Z, identity
    environment order, as a map from 2x2 matrix units to 3x3 matrix units."""
    a = math.sqrt(p * (1 - p) / 2)
    out = np.zeros((4, 9))
    out[0] = [p / 2, 0, 0, 0, p / 2, a, 0, a, 1 - p]
    out[1] = [0, -p / 2, a, p / 2, 0, 0, a, 0, 0]
    out[2] = [0, p / 2, a, -p / 2, 0, 0, a, 0, 0]
    out[3] = [p / 2, 0, 0, 0, p / 2, -a, 0, -a, 1 - p]
    return out


def reference_degrading_map(p: float) -> np.ndarray:
    """Degrading map for the two-Pauli channel in the same environment
    order, from the closed forms beta = sqrt(p/(2-2p)), gamma = p/(2-4p)."""
    b = math.sqrt(p / (2 - 2 * p))
    g = p / (2 - 4 * p)
    out = np.zeros((4, 9))
    out[0] = [p / 2, 0, 0, 0, p / 2, b, 0, b, 1 - p]
    out[1] = [0, -g, b, g, 0, 0, b, 0, 0]
    out[2] = [0, g, b, -g, 0, 0, b, 0, 0]
    out[3] = [p / 2, 0, 0, 0, p / 2, -b, 0, -b, 1 - p]
    return out


def amplitude_damping(gamma: float) -> KrausSet:
    """Kraus set |0><0| + sqrt(1 - gamma) |1><1| and sqrt(gamma) |0><1|."""
    return KrausSet.from_matrices(
        [[[1, 0], [0, math.sqrt(1 - gamma)]], [[0, math.sqrt(gamma)], [0, 0]]]
    )


def env_reordered(matrix: np.ndarray) -> np.ndarray:
    """Reorder 9-dim (3x3 matrix-unit) indices from Kraus order to the
    reference order used above."""
    cols = [ENV_PERM[i // 3] * 3 + ENV_PERM[i % 3] for i in range(9)]
    out = np.asarray(matrix)
    if out.shape[-1] == 9:
        out = out[..., cols]
    if out.shape[0] == 9:
        out = out[cols, :]
    return out


class TestKrausFromPauli:
    def test_operator_counts(self):
        assert len(kraus_from_pauli(IDENTITY).ops) == 1
        assert len(kraus_from_pauli(evaluate_family(TWO_PAULI, 0.2)).ops) == 3
        full = PauliChannel(0.25, 0.25, 0.25, 0.25)
        assert len(kraus_from_pauli(full).ops) == 4

    def test_trace_preservation(self, channels20):
        for ch in channels20:
            k = kraus_from_pauli(ch)
            assert k.trace_preservation_residual() <= 1e-14


class TestFromMatrices:
    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="needs at least one operator"):
            KrausSet.from_matrices([])

    @pytest.mark.parametrize("second", [np.eye(3), np.zeros((2, 3)), np.zeros((2, 2, 2))])
    def test_mismatched_shapes_rejected(self, second):
        with pytest.raises(ValueError, match="must share one shape"):
            KrausSet.from_matrices([np.eye(2), second])

    @pytest.mark.parametrize("ops", [np.eye(2), np.zeros((1, 1, 2, 2))])
    def test_operators_that_are_not_a_stack_of_matrices_rejected(self, ops):
        with pytest.raises(ValueError, match="must share one shape"):
            KrausSet.from_matrices(ops)

    def test_not_trace_preserving_rejected(self):
        with pytest.raises(ValueError, match="not trace preserving"):
            KrausSet.from_matrices([np.eye(2), np.eye(2)])

    def test_operators_are_one_stacked_array(self):
        k = amplitude_damping(0.3)
        assert k.ops.shape == (2, 2, 2) and (k.dim_out, k.dim_in) == (2, 2)
        assert complementary(k).ops.shape == (2, 2, 2)


class TestNaturalRep:
    def test_identity_channel_is_identity_matrix(self):
        rep = natural_rep(kraus_from_pauli(IDENTITY))
        np.testing.assert_allclose(rep.matrix, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.25, 0.5, 0.8])
    def test_two_pauli_matches_reference(self, p):
        rep = natural_rep(kraus_from_pauli(evaluate_family(TWO_PAULI, p)))
        np.testing.assert_allclose(rep.matrix, reference_natural_rep(p), atol=1e-12)

    def test_equals_a_running_sum_over_the_operators_bit_for_bit(self, channels20):
        sets = [kraus_from_pauli(ch) for ch in channels20]
        sets += [amplitude_damping(g) for g in (0.0, 0.1, 0.45, 0.7, 1.0)]
        for k in sets + [complementary(k) for k in sets]:
            running = np.zeros((k.dim_in**2, k.dim_out**2), dtype=complex)
            for op in k.ops:
                running += np.einsum("ki,lj->ijkl", op, op.conj()).reshape(running.shape)
            assert natural_rep(k).matrix.tobytes() == running.tobytes()

    def test_reconstructs_kraus_action(self, channels20):
        rng = np.random.default_rng(20260826)
        for ch in channels20[:4]:
            k = kraus_from_pauli(ch)
            rep = natural_rep(k)
            for _ in range(10):
                rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                np.testing.assert_allclose(
                    rep.apply(rho), k.apply(rho), atol=1e-12
                )


class TestComplementary:
    def test_single_kraus_gives_constant_map(self):
        comp = complementary(kraus_from_pauli(IDENTITY))
        rng = np.random.default_rng(7)
        for _ in range(5):
            rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            np.testing.assert_allclose(
                comp.apply(rho), np.trace(rho) * np.ones((1, 1)), atol=1e-12
            )

    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_two_pauli_matches_reference(self, p):
        comp = complementary(kraus_from_pauli(evaluate_family(TWO_PAULI, p)))
        rep = env_reordered(natural_rep(comp).matrix)
        np.testing.assert_allclose(rep, reference_complement_rep(p), atol=1e-12)

    def test_alpha_entry_at_half(self):
        comp = complementary(kraus_from_pauli(evaluate_family(TWO_PAULI, 0.5)))
        rep = env_reordered(natural_rep(comp).matrix)
        assert rep[0, 5] == pytest.approx(math.sqrt(0.5 * 0.5 / 2), abs=1e-12)
        assert rep[0, 5] == pytest.approx(0.3536, abs=5e-5)

    def test_complement_preserves_trace(self, channels20):
        for ch in channels20[:8]:
            comp = complementary(kraus_from_pauli(ch))
            assert comp.trace_preservation_residual() <= 1e-10


class TestSolveDegrading:
    def test_identity_channel_returns_complement(self):
        k = kraus_from_pauli(IDENTITY)
        n = natural_rep(k)
        nc = natural_rep(complementary(k))
        d, residual = solve_degrading(n, nc)
        assert residual <= 1e-12
        np.testing.assert_allclose(d.matrix, nc.matrix, atol=1e-12)

    def test_planted_solution_recovered(self):
        rng = np.random.default_rng(20260826)
        for _ in range(20):
            n_mat = rng.normal(size=(4, 4))
            n_mat += 4 * np.eye(4)  # keep it comfortably invertible
            d0 = rng.normal(size=(4, 9))
            n = ChannelMatrixRep(n_mat, 2, 2)
            nc = ChannelMatrixRep(n_mat @ d0, 2, 3)
            d, residual = solve_degrading(n, nc)
            assert residual <= 1e-10
            np.testing.assert_allclose(d.matrix, d0, atol=1e-10)

    def test_two_pauli_quarter_matches_closed_forms(self):
        k = kraus_from_pauli(evaluate_family(TWO_PAULI, 0.25))
        d, residual = solve_degrading(natural_rep(k), natural_rep(complementary(k)))
        assert residual <= 1e-10
        assert math.sqrt(0.25 / (2 - 2 * 0.25)) == pytest.approx(
            math.sqrt(1 / 6), abs=1e-15
        )
        assert 0.25 / (2 - 4 * 0.25) == pytest.approx(0.25, abs=1e-15)
        np.testing.assert_allclose(
            env_reordered(d.matrix), reference_degrading_map(0.25), atol=1e-10
        )

    def test_dimension_mismatch_rejected(self):
        n = ChannelMatrixRep(np.eye(4), 2, 2)
        bad = ChannelMatrixRep(np.eye(3), 0, 0)
        with pytest.raises(ValueError):
            solve_degrading(n, bad)


class TestChoi:
    def test_identity_map_is_unnormalized_bell_projector(self):
        choi = choi_of_map(natural_rep(kraus_from_pauli(IDENTITY)))
        eigs = np.sort(np.linalg.eigvalsh(choi))
        np.testing.assert_allclose(eigs, [0, 0, 0, 2], atol=1e-12)

    def test_cptp_maps_have_psd_choi(self, channels20):
        for ch in channels20:
            choi = choi_of_map(natural_rep(kraus_from_pauli(ch)))
            assert np.linalg.eigvalsh(choi).min() >= -1e-10

    def test_map_that_breaks_hermiticity_rejected(self):
        with pytest.raises(MalformedMapError, match="not Hermiticity preserving"):
            choi_of_map(ChannelMatrixRep(1j * np.eye(4), 2, 2))

    def test_two_pauli_quarter_subblock(self):
        k = kraus_from_pauli(evaluate_family(TWO_PAULI, 0.25))
        d, _ = solve_degrading(natural_rep(k), natural_rep(complementary(k)))
        choi = choi_of_map(d)
        gamma = 0.25
        hits = np.argwhere(np.isclose(choi.real, -gamma, atol=1e-10))
        assert len(hits) > 0
        i, j = hits[0]
        block = choi[np.ix_([i, j], [i, j])].real
        np.testing.assert_allclose(
            block, [[0.125, -0.25], [-0.25, 0.125]], atol=1e-10
        )
        assert np.linalg.eigvalsh(choi).min() == pytest.approx(-0.125, abs=1e-9)


class TestVerdict:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_two_pauli_not_degradable(self, p):
        verdict = degradability_verdict(
            kraus_from_pauli(evaluate_family(TWO_PAULI, p))
        )
        assert verdict.status == "not_degradable"
        assert verdict.min_choi_eigenvalue < -1e-3
        # At p = 1/2 the natural rep is singular and the degrading equation
        # is infeasible; elsewhere the unique solved map has a tiny residual.
        if p != 0.5:
            assert verdict.residual <= 1e-8

    @pytest.mark.parametrize("p_z", [0.05, 0.1, 0.3, 0.5])
    def test_dephasing_degradable(self, p_z):
        ch = PauliChannel(1 - p_z, 0.0, 0.0, p_z)
        verdict = degradability_verdict(kraus_from_pauli(ch))
        assert verdict.status == "degradable"
        assert verdict.min_choi_eigenvalue >= -1e-8

    def test_noiseless_degradable(self):
        assert degradability_verdict(kraus_from_pauli(IDENTITY)).status == "degradable"

    # Amplitude damping is degradable for gamma <= 1/2 and antidegradable,
    # so not degradable, above (Giovannetti & Fazio, PRA 71, 032314, 2005).
    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.45])
    def test_amplitude_damping_below_half_degradable(self, gamma):
        assert degradability_verdict(amplitude_damping(gamma)).status == "degradable"

    @pytest.mark.parametrize("gamma", [0.55, 0.7, 0.9])
    def test_amplitude_damping_above_half_not_degradable(self, gamma):
        assert degradability_verdict(amplitude_damping(gamma)).status == "not_degradable"

    def test_replacement_channel_with_singular_n_not_degradable(self):
        # N(rho) = tr(rho) |0><0| has rank one, so cond(N) is infinite; the
        # condition test must not divide by N's zero singular values.
        k = KrausSet.from_matrices([[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
        assert np.linalg.matrix_rank(natural_rep(k).matrix) == 1
        assert degradability_verdict(k).status == "not_degradable"

    def test_erasure_is_not_certified_not_degradable(self):
        # Qubit erasure at eps <= 1/2 is degradable, but its N is 4 x 9: full row
        # rank, so N D = N^C has an affine family of solutions, and the
        # least-squares member is not PSD.
        eps = 0.25
        keep, erase = math.sqrt(1 - eps), math.sqrt(eps)
        k = KrausSet.from_matrices(
            [[[keep, 0], [0, keep], [0, 0]], [[0, 0], [0, 0], [erase, 0]], [[0, 0], [0, 0], [0, erase]]]
        )
        verdict = degradability_verdict(k)
        assert verdict.residual <= 1e-12 and verdict.min_choi_eigenvalue < -1e-3
        assert verdict.status == "inconclusive"
        assert verdict.note.startswith("N D = N^C has no unique solution")
        # A witness: reset the qubit to the environment's |0> with probability
        # (1 - 2 eps) / (1 - eps), else shift it into slots 1 and 2; map the
        # erasure flag |2> to |0>.
        a = (1 - 2 * eps) / (1 - eps)
        shift = np.zeros((3, 3))
        shift[1, 0] = shift[2, 1] = math.sqrt(1 - a)
        reset0, reset1, flag = np.zeros((3, 3, 3))
        reset0[0, 0] = reset1[0, 1] = math.sqrt(a)
        flag[0, 2] = 1.0
        witness = natural_rep(KrausSet.from_matrices([reset0, reset1, shift, flag]))
        n, nc = natural_rep(k), natural_rep(complementary(k))
        assert n.matrix.shape == (4, 9)
        assert np.linalg.norm(n.matrix @ witness.matrix - nc.matrix) <= 1e-12
        assert np.linalg.eigvalsh(choi_of_map(witness)).min() >= -1e-12

    def test_record_is_json_serializable(self):
        import json

        verdict = degradability_verdict(
            kraus_from_pauli(evaluate_family(TWO_PAULI, 0.25))
        )
        record = verdict.to_record()
        text = json.dumps(record)
        assert "not_degradable" in text


# Pauli channels from four nonnegative weights, normalized.
PAULI_CHANNELS = (
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
    .filter(lambda w: sum(w) > 0.0)
    .map(lambda w: PauliChannel(*(x / sum(w) for x in w)))
)


def assert_rates_not_positive(chs):
    """Hashing, cat m = 2..12 in the Z and X bases, and 3-in-5 all have rate
    <= 0 on every channel of `chs`; cat rates for m <= 6 match brute force."""
    assert all(hashing_rate(ch) <= 0.0 for ch in chs)
    for basis in (Basis.Z, Basis.X):
        for m in range(2, 13):
            rates = [cat_rate(ch, CatCodeSpec(m, basis)) for ch in chs]
            assert max(rates) <= 0.0
            if m <= 6:
                for ch, rate in zip(chs, rates):
                    assert rate == pytest.approx(oracle_cat_rate([ch] * m, basis), abs=1e-10)
    spec = ConcatSpec(CatCodeSpec(3), CatCodeSpec(5, Basis.X))
    assert max(concat_rate(ch, spec) for ch in chs) <= 0.0


class TestAntidegradable:
    """The closed-form symmetric-extension cutoff behind the threshold pre-scan."""

    @pytest.mark.parametrize("kind,boundary", [("depolarizing", 0.25), ("two_pauli", 1 / 3)])
    def test_boundary_is_not_certified_and_just_past_it_is(self, kind, boundary):
        fam = make_family(kind)
        assert not antidegradable(evaluate_family(fam, boundary - 1e-6))
        assert not antidegradable(evaluate_family(fam, boundary))
        assert antidegradable(evaluate_family(fam, boundary + 1e-6))

    @settings(max_examples=200, deadline=None)
    @given(PAULI_CHANNELS)
    def test_entanglement_breaking_channels_are_certified(self, ch):
        assume(max(ch.probs) <= 0.5 - 1e-6)
        assert antidegradable(ch)

    @settings(max_examples=40, deadline=None)
    @given(PAULI_CHANNELS)
    def test_no_code_has_positive_rate_on_certified_channels(self, ch):
        assume(antidegradable(ch))
        assert_rates_not_positive([ch])

    @pytest.mark.parametrize(
        "fam",
        [
            make_family("depolarizing"),
            TWO_PAULI,
            make_family("independent_xz_ratio", {"ratio": 9.0}),
            make_family("custom_ray", {"ex": 1.0, "ez": 2.0}),
        ],
        ids=lambda fam: fam.kind,
    )
    def test_no_code_has_positive_rate_on_certified_grid_points(self, fam):
        grid = [(i + 1) / PRE_SCAN_POINTS for i in range(PRE_SCAN_POINTS)]
        chs = [evaluate_family(fam, p) for p in grid]
        certified = [ch for ch in chs if antidegradable(ch)]
        assert len(certified) >= 30
        assert_rates_not_positive(certified)
