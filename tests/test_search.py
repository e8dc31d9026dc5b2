"""Tests for threshold bisection, length scans, and the asymptotic rate estimate."""

import math

import pytest

import catcodes.search as search
from catcodes.concat import _concat_signs as concat_signs
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
    code_rates,
    evaluate_family,
    hashing_rate,
    make_family,
    rule_of_thumb_lengths,
    threshold,
)

DEPOL = make_family("depolarizing")
TWO_PAULI = make_family("two_pauli")
NINE_TO_ONE = make_family("independent_xz_ratio", {"ratio": 9.0})
DEPHASING = make_family("custom_ray", {"ez": 1.0})
BIT_FLIP = make_family("custom_ray", {"ex": 1.0})

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


def plain_threshold(family, code, tol, rate=None):
    """(p_star, bracket, warning) of the plain search: p = 0 and 64 pre-scan
    points, every one evaluated, then bisection one point at a time.  `rate`,
    if given, is a function of p that stands in for the code's rate."""
    grid = [(i + 1) / 64 for i in range(64)]
    if rate is None:
        at_zero, *values = code_rates(family, code, [0.0] + grid)
    else:
        at_zero, *values = [rate(p) for p in [0.0] + grid]
    assert at_zero > 0.0
    crossings = []
    prev_p, prev_v = 0.0, 1.0
    for p, v in zip(grid, values):
        if prev_v > 0.0 >= v:
            crossings.append((prev_p, p))
        prev_p, prev_v = p, v
    warning = None
    if len(crossings) > 1:
        warning = f"{len(crossings)} sign changes on the coarse grid; using the largest"
    lo, hi = crossings[-1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (code_rate(family, code, mid) if rate is None else rate(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi), warning


def counted_threshold(monkeypatch, family, code, tol):
    """`threshold`, its batch sizes, from `code_rates` and from the certified pre-scan
    (`concat._concat_signs`), and the number of points whose signs that pre-scan certified."""
    batch_sizes, certified = [], []

    def counted(family, code, ps):
        batch_sizes.append(len(ps))
        return code_rates(family, code, ps)

    def signed(probs, code):
        rates, signs, complete = concat_signs(probs, code)
        batch_sizes.append(len(rates))
        certified.append(int(signs.sum()))
        return rates, signs, complete

    monkeypatch.setattr(search, "code_rates", counted)
    monkeypatch.setattr(search, "_concat_signs", signed)
    return threshold(family, code, tol=tol), batch_sizes, sum(certified)


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
        # Pure dephasing: no pre-scan point is certified antidegradable, so
        # every point is evaluated (on depolarizing, p > 1/4 counts as <= 0).
        monkeypatch.setattr(search, "code_rates", lambda family, code, ps: [1.0] * len(ps))
        with pytest.raises(NoBracketError):
            threshold(DEPHASING, CatCodeSpec(1), tol=1e-6)

    def test_no_bracket_when_rate_negative_at_start(self, monkeypatch):
        monkeypatch.setattr(search, "code_rates", lambda family, code, ps: [-1.0] * len(ps))
        with pytest.raises(NoBracketError, match="p = 0"):
            threshold(DEPOL, CatCodeSpec(1), tol=1e-6)

    def test_result_records_evaluations_and_code(self):
        res = threshold(DEPOL, CatCodeSpec(2), tol=1e-5)
        assert res.evaluations > 0
        assert res.warning is None

    def test_multiple_crossings_refine_the_largest_with_a_warning(self, monkeypatch):
        # Crosses zero downward at 0.1 and at 0.24, positive on (0.17, 0.24).
        def rates(family, code, ps):
            return [-(p - 0.1) * (p - 0.17) * (p - 0.24) for p in ps]

        monkeypatch.setattr(search, "code_rates", rates)
        res = threshold(DEPOL, CatCodeSpec(1), tol=1e-6)
        assert res.warning.startswith("2 sign changes")
        assert abs(res.p_star - 0.24) <= 1e-6

    @pytest.mark.dispatch
    @pytest.mark.parametrize(
        "family,code,tol",
        [
            (DEPOL, None, 1e-6),
            (DEPOL, CatCodeSpec(5), 1e-6),
            (DEPOL, ConcatSpec(CatCodeSpec(5), CatCodeSpec(5, Basis.X)), 1e-6),
            (DEPOL, ConcatSpec(CatCodeSpec(3), CatCodeSpec(19, Basis.X)), 1e-5),
            (NINE_TO_ONE, CatCodeSpec(1), 1e-8),
            (NINE_TO_ONE, CatCodeSpec(33), 1e-8),
            (NINE_TO_ONE, CatCodeSpec(40), 1e-8),
            (TWO_PAULI, CatCodeSpec(5), 1e-6),
            (DEPHASING, None, 1e-6),
            (DEPHASING, CatCodeSpec(5, Basis.X), 1e-6),
        ],
        ids=[
            "depol-hashing", "depol-5cat", "depol-5in5", "depol-3in19",
            "9to1-m1", "9to1-m33", "9to1-m40", "two_pauli-5cat",
            "dephasing-hashing", "dephasing-5cat_x",
        ],
    )
    def test_same_result_as_plain_prescan_and_bisection(self, family, code, tol, monkeypatch):
        want = plain_threshold(family, code, tol)
        res, batch_sizes, certified = counted_threshold(monkeypatch, family, code, tol)
        assert (res.p_star, res.bracket, res.warning) == want
        assert res.evaluations + res.certified == sum(batch_sizes)
        assert res.batches == len(batch_sizes)
        assert res.skipped == search.PRE_SCAN_POINTS + 1 - batch_sizes[0]
        # Only a concatenated code past the gate takes the certified pre-scan (3-in-19 here).
        large = isinstance(code, ConcatSpec) and code.outer.m == 19
        assert res.certified <= certified and (res.certified > 0) == large

    @staticmethod
    def stub_threshold(monkeypatch, family, rate, tol):
        """`threshold` with `rate` as every code's rate; returns the result
        and the batches sent to `code_rates`."""
        batches = []

        def stub(family, code, ps):
            batches.append(list(ps))
            return [rate(p) for p in ps]

        monkeypatch.setattr(search, "code_rates", stub)
        return threshold(family, None, tol=tol), batches

    def test_wrong_prediction_leaves_result_and_batch_count_unchanged(self, monkeypatch):
        # Crosses zero at c and flattens at -1e-4 just past it: interpolating
        # through the flat side predicts a crossing near the bracket's upper
        # end, far right of c.
        c = 0.3001

        def rate(p):
            return max(c - p, -1e-4)

        walked = []
        want = plain_threshold(DEPHASING, None, 1e-9, rate=lambda p: walked.append(p) or rate(p))
        levels = len(walked) - 65
        res, batches = self.stub_threshold(monkeypatch, DEPHASING, rate, 1e-9)
        assert (res.p_star, res.bracket, res.warning) == want
        assert res.batches <= 1 + math.ceil(levels / search.BISECTION_LEVELS_PER_BATCH)
        assert res.evaluations == sum(map(len, batches))
        # The first batch follows the wrong path from the pre-scan bracket of
        # width 2**-6 down to width 2**-18, one midpoint per level: every point
        # on it lies right of c.
        first = batches[1]
        assert len(first) == 12 and min(first) > c

    def test_predictions_on_the_wrong_side_keep_the_stated_batch_bound(self, monkeypatch):
        # Every prediction lies in the half of the bracket away from c, so each
        # path goes wrong at its first midpoint and walks one level, and the
        # batch after it evaluates full levels: the worst case of the bound
        # in `threshold`'s docstring.
        c = 0.3001

        def rate(p):
            return c - p

        def wrong_side(known, lo, hi):
            mid = 0.5 * (lo + hi)
            return 0.5 * (lo + mid) if c > mid else 0.5 * (mid + hi)

        walked = []
        want = plain_threshold(DEPHASING, None, 1e-9, rate=lambda p: walked.append(p) or rate(p))
        levels = len(walked) - 65
        monkeypatch.setattr(search, "_predicted_crossing", wrong_side)
        res, batches = self.stub_threshold(monkeypatch, DEPHASING, rate, 1e-9)
        assert (res.p_star, res.bracket, res.warning) == want
        assert res.evaluations == sum(map(len, batches))
        full_levels = search.BISECTION_LEVELS_PER_BATCH
        assert res.batches <= 1 + 2 * math.ceil(levels / (full_levels + 1))
        # The 7 points of 3 full levels, then a path through every remaining
        # level: tol lies above its floor, (2**-10)**3.
        assert [len(b) for b in batches[2:4]] == [7, levels - 4]

    @pytest.mark.parametrize(
        "family, code",
        [(BIT_FLIP, CatCodeSpec(5, Basis.X)),
         (DEPHASING, ConcatSpec(CatCodeSpec(2), CatCodeSpec(3, Basis.X)))],
        ids=["bitflip-5cat_x", "dephasing-2in3_x"],
    )
    def test_rounding_noise_costs_no_more_than_full_levels(self, family, code, monkeypatch):
        # Below p = 1/2 both rates fall to rounding noise, 0.0 or about 1e-17,
        # long before tol 1e-12, so a path that runs on into the noise goes
        # wrong deep down; predicted paths must cost no more than full levels.
        res = threshold(family, code, tol=1e-12)
        monkeypatch.setattr(search, "_predicted_crossing", lambda known, lo, hi: None)
        full = threshold(family, code, tol=1e-12)
        assert (res.p_star, res.bracket) == (full.p_star, full.bracket)
        assert res.evaluations <= full.evaluations and res.batches <= full.batches

    def test_exact_zero_at_a_walked_midpoint(self, monkeypatch):
        # Pre-scan bracket (19/64, 20/64); its midpoint 39/128 is a float and
        # the rate there is exactly 0.0, so bisection takes it as hi.
        c = 39 / 128

        def rate(p):
            return c - p

        want = plain_threshold(DEPHASING, None, 1e-6, rate=rate)
        res, batches = self.stub_threshold(monkeypatch, DEPHASING, rate, 1e-6)
        assert (res.p_star, res.bracket, res.warning) == want
        assert res.bracket[1] == c
        assert rate(c) == 0.0 and c in batches[1]
        assert res.evaluations == sum(map(len, batches))
        # From then on hi has rate 0.0, every prediction is hi itself and is
        # rejected, so each batch is at most the 7 midpoints of 3 levels.
        assert all(len(b) <= 7 for b in batches[2:])

    def test_certified_upper_end_falls_back_to_the_plain_batch(self, monkeypatch):
        # On depolarizing noise 17/64 is the first pre-scan point certified
        # antidegradable; with the crossing below it, the bracket's upper end
        # has no rate to predict from, so the first batch is the 7 midpoints
        # of 3 bisection levels and nothing else.
        c = 0.26

        def rate(p):
            return c - p

        want = plain_threshold(DEPOL, None, 1e-6, rate=rate)
        res, batches = self.stub_threshold(monkeypatch, DEPOL, rate, 1e-6)
        assert (res.p_star, res.bracket, res.warning) == want
        assert 17 / 64 not in batches[0]
        lo, hi = 16 / 64, 17 / 64
        eighths = [lo + (hi - lo) * k / 8 for k in range(1, 8)]
        assert sorted(batches[1]) == pytest.approx(eighths, rel=0, abs=1e-15)

    def test_tolerance_below_float_spacing_stops_at_adjacent_floats(self):
        # No float lies strictly between the final bracket ends, so bisection
        # stops there instead of splitting the bracket forever.
        res = threshold(DEPOL, CatCodeSpec(3), tol=1e-300)
        lo, hi = res.bracket
        assert math.nextafter(lo, 1.0) == hi
        assert code_rate(DEPOL, CatCodeSpec(3), lo) > 0.0 >= code_rate(DEPOL, CatCodeSpec(3), hi)

    def test_hashing_on_dephasing_gains_no_batches_and_wastes_no_points(self):
        # The rate touches zero at p = 1/2 with zero slope: rate(1/2) = 0.0,
        # so every prediction is the bracket's upper end and none is used.
        res = threshold(DEPHASING, None, tol=1e-6)
        assert (res.batches, res.evaluations) == (6, 96)


    @pytest.mark.dispatch
    @pytest.mark.parametrize("tol", [1e-5, 1e-6])
    @pytest.mark.parametrize(
        "family,n,big_m",
        [(DEPOL, 4, 12), (DEPOL, 3, 20), (NINE_TO_ONE, 3, 19), (NINE_TO_ONE, 2, 61),
         (TWO_PAULI, 3, 19), (TWO_PAULI, 5, 9)],
        ids=["depol-4in12", "depol-3in20", "9to1-3in19", "9to1-2in61", "two_pauli-3in19", "two_pauli-5in9"],
    )
    def test_certified_pre_scan_keeps_the_plain_result(self, family, n, big_m, tol, monkeypatch):
        # Partial rates stand for the certified pre-scan points the search reads only the signs
        # of; the signs, and so the bracket, are the full rates'.
        code = ConcatSpec(CatCodeSpec(n), CatCodeSpec(big_m, Basis.X))
        assert search._counts(code)[1] >= search.CERTIFIED_PRE_SCAN_CELLS
        want = plain_threshold(family, code, tol)
        res, batch_sizes, certified = counted_threshold(monkeypatch, family, code, tol)
        assert (res.p_star, res.bracket, res.warning) == want
        assert 0 < res.certified <= certified <= batch_sizes[0]
        assert res.evaluations + res.certified == sum(batch_sizes)
        assert res.batches == len(batch_sizes)
        # The search reads full rates wherever it reads a value, so it evaluates the points of
        # a full pre-scan, in as many batches.
        monkeypatch.setattr(search, "CERTIFIED_PRE_SCAN_CELLS", math.inf)
        plain = threshold(family, code, tol=tol)
        assert (res.evaluations + res.certified, res.batches) == (plain.evaluations, plain.batches)

    @pytest.mark.dispatch
    def test_certified_pre_scan_completes_the_point_before_a_skipped_one(self, monkeypatch):
        # With the grid points from 12/64 on counted as antidegradable, 3-in-19's crossing runs
        # from 11/64, the last pre-scan point, whose sign is certified, to a skipped one.
        # Refinement may read the rates at 10/64 and 11/64, so those two are completed to their
        # full rates, and the search takes a full pre-scan's path.
        code = ConcatSpec(CatCodeSpec(3), CatCodeSpec(19, Basis.X))
        monkeypatch.setattr(search, "_certified", lambda family: tuple(p >= 12 / 64 for p in search._PRE_SCAN_GRID))
        ps = [0.0] + [i / 64 for i in range(1, 12)]
        rates, certified = search._pre_scan(DEPOL, code, ps)
        assert certified == len(ps) - 2
        assert [x.hex() for x in rates[-2:]] == [x.hex() for x in code_rates(DEPOL, code, ps[-2:])]
        res = threshold(DEPOL, code, tol=1e-6)
        monkeypatch.setattr(search, "CERTIFIED_PRE_SCAN_CELLS", math.inf)
        plain = threshold(DEPOL, code, tol=1e-6)
        assert (res.p_star, res.bracket, res.warning) == (plain.p_star, plain.bracket, plain.warning)
        assert (res.evaluations + res.certified, res.batches) == (plain.evaluations, plain.batches)

    def test_a_code_below_the_gate_evaluates_its_whole_pre_scan(self, monkeypatch):
        code = ConcatSpec(CatCodeSpec(5), CatCodeSpec(5, Basis.X))
        assert search._counts(code)[1] < search.CERTIFIED_PRE_SCAN_CELLS
        res, batch_sizes, certified = counted_threshold(monkeypatch, DEPOL, code, 1e-6)
        assert (res.certified, certified) == (0, 0)
        assert res.evaluations == sum(batch_sizes)


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

    def test_empty_length_range_rejected(self):
        with pytest.raises(ValueError, match="m_range is empty"):
            best_length_scan(DEPOL, 0.1, Basis.Z, [])

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

    def test_length_scan_equals_rate_by_rate(self):
        rows, best_m = best_length_scan(NINE_TO_ONE, 0.05, Basis.Y, range(1, 41))
        want = [code_rate(NINE_TO_ONE, CatCodeSpec(m, Basis.Y), 0.05) for m in range(1, 41)]
        assert [row.rate.hex() for row in rows] == [rate.hex() for rate in want]
        assert best_m == 1 + max(range(40), key=lambda i: (want[i], -i))


def interpolated(known, lo, hi, p) -> float:
    """The inverse quadratic interpolation of `_predicted_crossing` through lo, hi and p."""
    f_lo, f_hi, f = known[lo], known[hi], known[p]
    return (lo * (f_hi / (f_lo - f_hi)) * (f / (f_lo - f)) + hi * (f_lo / (f_hi - f_lo)) * (f / (f_hi - f))
            + p * (f_lo / (f - f_lo)) * (f_hi / (f - f_hi)))


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("lo, hi, left, right, first", [
    # the pre-scan bracket (17/64, 18/64) between two pre-scan points, one on each side
    (17 / 64, 18 / 64, 16 / 64, 19 / 64, None),
    # refined brackets whose nearest points are a pre-scan point and a later midpoint
    (16.25 / 64, 16.5 / 64, 16 / 64, 16.75 / 64, 16 / 64),
    (16.5 / 64, 16.75 / 64, 16.25 / 64, 17 / 64, 17 / 64),
])
def test_the_nearest_point_outside_ties_go_to_the_one_evaluated_first(lo, hi, left, right, first, order):
    # `_predicted_crossing` interpolates through the evaluated point nearest outside the bracket;
    # at equal distance it takes the one evaluated first, as `min` over `known` does.  The
    # distances are exact dyadic fractions, so the two points tie.
    assert lo - left == right - hi
    rates = {lo: 0.3, hi: -0.1, left: 0.55, right: -0.4, 15 / 64: 0.7, 20 / 64: -0.6}
    assert interpolated(rates, lo, hi, left) != interpolated(rates, lo, hi, right)
    assert all(lo < interpolated(rates, lo, hi, p) < hi for p in (left, right))
    points = sorted(rates, reverse=order == "descending")
    if first is not None:  # the pre-scan points first, in either order, then the midpoints
        later = [p for p in (lo, hi, left, right) if p != first and p * 64 % 1]
        points = [p for p in points if p not in later] + later
    known = {p: rates[p] for p in points}
    want = first if first is not None else (left if order == "ascending" else right)
    assert next(p for p in known if p in (left, right)) == want
    assert search._predicted_crossing(known, lo, hi) == interpolated(known, lo, hi, want)


def test_the_nearest_point_outside_is_min_over_the_evaluated_points(monkeypatch):
    # Every prediction of the threshold searches of a scan interpolates through the point that
    # `min` over `known` in evaluation order takes: the smallest distance, ties to the first
    # evaluated.
    predicted, calls = search._predicted_crossing, []

    def recorded(known, lo, hi):
        calls.append((dict(known), lo, hi, predicted(known, lo, hi)))
        return calls[-1][-1]

    monkeypatch.setattr(search, "_predicted_crossing", recorded)
    best_threshold_scan(NINE_TO_ONE, Basis.Z, range(1, 41), tol=1e-12)
    assert len(calls) > 80
    for known, lo, hi, x in calls:
        p = min((p for p in known if not lo <= p <= hi), key=lambda p: max(lo - p, p - hi))
        f = known[p]
        if f not in (known[lo], known[hi]) and lo < interpolated(known, lo, hi, p) < hi:
            assert x == interpolated(known, lo, hi, p)


def threshold_fields(result) -> tuple:
    return (result.p_star.hex(), tuple(x.hex() for x in result.bracket), result.evaluations,
            result.skipped, result.batches, result.warning)


# Six families in which cat codes cross zero once, several times or never (dephasing in the
# X and Y bases), so that some lengths raise.
LOCKSTEP_FAMILIES = [DEPOL, TWO_PAULI, NINE_TO_ONE, make_family("independent_xz_ratio", {"ratio": 1.0}),
                     DEPHASING, make_family("custom_ray", {"ex": 1.0, "ey": 0.5, "ez": 0.2})]


@pytest.mark.dispatch
@pytest.mark.parametrize("tol", [1e-8, 1e-5])
@pytest.mark.parametrize("basis", list(Basis))
@pytest.mark.parametrize("family", LOCKSTEP_FAMILIES, ids=lambda f: f"{f.kind}{dict(f.params)}")
def test_lockstep_scan_equals_length_by_length_thresholds(family, basis, tol):
    # The lockstep advances the searches of lengths 1..40 together, one kernel pass per round
    # with padded batches; each result must be `threshold`'s for that length alone, field for
    # field, and where lengths raise the scan must raise the shortest one's error.
    specs = [CatCodeSpec(m, basis) for m in range(1, 41)]
    want, error = [], None
    for spec in specs:
        try:
            want.append(threshold(family, spec, tol))
        except NoBracketError as raised:
            error = raised
            break
    got = search._thresholds(family, specs[:len(want)], tol) if want else []
    assert [threshold_fields(r) for r in got] == [threshold_fields(r) for r in want]
    if error is None:
        rows, best_m = best_threshold_scan(family, basis, range(40, 0, -1), tol)
        assert [(row.m, row.threshold.hex()) for row in rows] == [(s.m, r.p_star.hex()) for s, r in zip(specs, want)]
        assert best_m == 1 + max(range(40), key=lambda i: (want[i].p_star, -i))
    else:
        with pytest.raises(type(error)) as raised:
            best_threshold_scan(family, basis, range(1, 41), tol)
        assert str(raised.value) == str(error)


def test_lockstep_scan_raises_the_shortest_failing_length_error(monkeypatch):
    # Length 5 fails after its first batch and length 3 after its last, rounds later; the scan
    # raises what length after length would raise: length 3's error.
    search_of, lengths = search._search, iter(range(1, 6))

    def searches(family, tol):
        m = next(lengths)  # searches start in increasing length
        if m == 5:
            yield [0.5]
            raise NoBracketError("length 5")
        result = yield from search_of(family, tol)
        if m == 3:
            raise NoBracketError("length 3")
        return result

    monkeypatch.setattr(search, "_search", searches)
    with pytest.raises(NoBracketError, match="length 3"):
        best_threshold_scan(DEPOL, Basis.Z, range(1, 6), tol=1e-3)


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
