import csv
import hashlib
import itertools
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handguard import data_path
from handguard.analysis import (
    AnovaResult,
    ConfusionMatrix,
    MissingPattern,
    PATTERN_ORDER,
    WristSide,
    confusion_from_trials,
    f_sf,
    one_way_anova,
    per_participant_rates,
    paired_t_bonferroni,
    read_trials_csv,
    recognition_ranking,
    recognition_rates,
    regularized_incomplete_beta,
    rm_anova,
    t_two_sided_p,
)
from handguard.haptics import PatternId


# --- independent oracle: I_x(a, b) by adaptive Gauss-Legendre quadrature ----

def betainc_quadrature(a, b, x, panels=200):
    # substitute t = u^(1/a): the t^(a-1) endpoint singularity cancels and
    # the integrand becomes (1/a) * (1 - u^(1/a))^(b-1) over u in [0, x^a]
    if x <= 0:
        return 0.0
    if x > 0.5:
        return 1.0 - betainc_quadrature(b, a, 1.0 - x, panels)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    ln_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = 0.0
    edges = np.linspace(0.0, x**a, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        u = mid + half * nodes
        t = np.clip(u ** (1.0 / a), 1e-300, 1.0 - 1e-16)
        ln_f = ln_norm - math.log(a) + (b - 1.0) * np.log1p(-t)
        total += half * float(weights @ np.exp(ln_f))
    return total


class TestIncompleteBeta:
    @pytest.mark.parametrize("a,b,x", [
        (0.5, 0.5, 0.3),
        (2.0, 3.0, 0.6),
        (5.0, 0.5, 0.9),
        (50.0, 4.5, 0.95),
        (4.5, 50.0, 0.05),
        (1.0, 1.0, 0.42),
    ])
    def test_matches_quadrature_oracle(self, a, b, x):
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            betainc_quadrature(a, b, x), abs=1e-6
        )

    def test_uniform_case_exact(self):
        # a = b = 1 is the uniform distribution: I_x = x
        assert regularized_incomplete_beta(1.0, 1.0, 0.37) == pytest.approx(0.37, abs=1e-12)

    def test_symmetry(self):
        assert regularized_incomplete_beta(2.0, 5.0, 0.3) == pytest.approx(
            1.0 - regularized_incomplete_beta(5.0, 2.0, 0.7), abs=1e-12
        )

    def test_bounds_and_validation(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    @pytest.mark.parametrize("a,b,x", [(1.0, 1.0, math.nan), (math.nan, 1.0, 0.5),
                                       (1.0, math.nan, 0.5)])
    def test_nan_fails_the_domain_checks(self, a, b, x):
        # nan used to pass both checks and run the continued fraction to its
        # iteration limit, then raise ArithmeticError
        with pytest.raises(ValueError, match="must be"):
            regularized_incomplete_beta(a, b, x)


class TestDistributions:
    def test_f_sf_reference_value(self):
        # F = 5.78 with (9, 100) dof gives p about 2e-6
        p = f_sf(5.78, 9, 100)
        assert p == pytest.approx(1.91e-6, rel=0.01)

    def test_f_sf_matches_quadrature(self):
        # P(F >= f) = I_{d2/(d2+d1 f)}(d2/2, d1/2)
        f, d1, d2 = 3.2, 4, 20
        x = d2 / (d2 + d1 * f)
        assert f_sf(f, d1, d2) == pytest.approx(
            betainc_quadrature(d2 / 2.0, d1 / 2.0, x), abs=1e-6
        )

    def test_t_one_dof_is_cauchy(self):
        # closed form: P(|T| >= |t|) = 1 - 2 arctan(|t|)/pi
        for t in (-3.0, -0.5, 0.7, 2.0):
            assert t_two_sided_p(t, 1) == pytest.approx(
                1.0 - 2.0 * math.atan(abs(t)) / math.pi, abs=1e-10
            )

    def test_t_two_sided_matches_tails(self):
        # 1 minus the density integrated over [-t, t] by Gauss-Legendre
        t, df = 2.1, 9
        nodes, weights = np.polynomial.legendre.leggauss(64)
        x = t * (nodes + 1.0) / 2.0
        density = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) \
            / math.sqrt(df * math.pi) * (1.0 + x * x / df) ** (-(df + 1) / 2)
        expected = 1.0 - 2.0 * (t / 2.0) * float(weights @ density)
        assert t_two_sided_p(t, df) == pytest.approx(expected, abs=1e-12)


def beta_t_two_sided_p(t, df):
    """The two-sided t tail written straight as I_x(df/2, 1/2) at x = df/(df + t^2):
    the reference that the F(1, df) form must match bit for bit."""
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


@settings(max_examples=500, deadline=None)
@given(t=st.floats(allow_nan=False, allow_infinity=False), df=st.integers(1, 200))
@example(t=0.0, df=1)
@example(t=-0.0, df=7)
@example(t=5e-324, df=3)
@example(t=-1e-300, df=200)
@example(t=1e-300, df=9)
@example(t=1e300, df=1)
@example(t=-1e300, df=200)
def test_t_tail_is_the_f_tail_bit_for_bit(t, df):
    assert t_two_sided_p(t, df).hex() == beta_t_two_sided_p(t, df).hex()


class TestOneWayAnova:
    def test_hand_computed_oracle(self):
        # groups {1,2,3}, {2,3,4}, {3,4,5}: SS_between = 6, SS_within = 6,
        # F = (6/2)/(6/6) = 3, p = (1 + 2F/6)^(-3) = 0.125 exactly
        r = one_way_anova([[1, 2, 3], [2, 3, 4], [3, 4, 5]])
        assert r.f_statistic == pytest.approx(3.0, abs=1e-12)
        assert (r.df_between, r.df_within) == (2, 6)
        assert r.p_value == pytest.approx(0.125, abs=1e-9)
        assert not r.degenerate

    def test_shift_and_scale_invariance_of_f(self):
        rng = np.random.default_rng(2)
        groups = [rng.normal(i, 1.0, size=8) for i in range(4)]
        base = one_way_anova(groups)
        moved = one_way_anova([3.0 * g + 11.0 for g in groups])
        assert moved.f_statistic == pytest.approx(base.f_statistic, rel=1e-9)
        assert moved.p_value == pytest.approx(base.p_value, rel=1e-9)

    def test_identical_groups_give_f_zero(self):
        r = one_way_anova([[1.0, 2.0], [1.0, 2.0]])
        assert r.f_statistic == 0.0
        assert r.p_value == 1.0

    def test_zero_within_variance_flagged(self):
        r = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
        assert r.degenerate
        assert r.p_value == 0.0
        assert math.isinf(r.f_statistic)

    def test_rejects_single_group(self):
        with pytest.raises(ValueError):
            one_way_anova([[1, 2, 3]])


class TestRmAnova:
    def test_hand_computed_oracle(self):
        # subjects x conditions [[1,2,3],[2,4,6],[3,3,3]]:
        # SS_cond = 6, SS_subj = 6, SS_error = 4
        # F = (6/2)/(4/4) = 3, df (2, 4), p = (1 + 2*3/4)^(-2) = 0.16 exactly
        r = rm_anova([[1, 2, 3], [2, 4, 6], [3, 3, 3]])
        assert r.f_statistic == pytest.approx(3.0, abs=1e-12)
        assert (r.df_between, r.df_within) == (2, 4)
        assert r.p_value == pytest.approx(0.16, abs=1e-9)

    def test_df_shape_for_reference_layout(self):
        # 11 participants x 10 patterns: (k-1, (n-1)(k-1)) = (9, 90)
        rng = np.random.default_rng(3)
        r = rm_anova(rng.uniform(0, 1, size=(11, 10)))
        assert (r.df_between, r.df_within) == (9, 90)

    def test_subject_offsets_removed(self):
        # adding a constant per subject must not change F
        rng = np.random.default_rng(4)
        base = rng.uniform(size=(6, 4))
        shifted = base + rng.normal(0, 5, size=(6, 1))
        a, b = rm_anova(base), rm_anova(shifted)
        assert b.f_statistic == pytest.approx(a.f_statistic, rel=1e-9)

    def test_constant_conditions_give_f_zero(self):
        r = rm_anova([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0]])
        assert r.f_statistic == 0.0
        assert r.p_value == 1.0

    def test_rejects_tiny_table(self):
        with pytest.raises(ValueError):
            rm_anova([[1.0, 2.0]])


@pytest.mark.parametrize("anova, table, want", [
    # no error variance, no effect (one-way); the effect case is above
    (one_way_anova, [[1.0, 1.0], [1.0, 1.0]], AnovaResult(0.0, 1, 2, 1.0)),
    # no error variance with an effect (repeated measures): the conditions
    # and the subjects are additive, so the error sum of squares is exactly 0
    (rm_anova, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
     AnovaResult(math.inf, 1, 2, 0.0, degenerate=True)),
])
def test_zero_error_variance(anova, table, want):
    assert anova(table) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("test", ["one_way_anova", "rm_anova", "paired_t_bonferroni"])
def test_non_finite_observation_is_rejected(test, bad):
    table = np.arange(12.0).reshape(4, 3) ** 1.5
    table[2, 1] = bad
    run = {
        "one_way_anova": lambda: one_way_anova(list(table.T)),
        "rm_anova": lambda: rm_anova(table),
        "paired_t_bonferroni": lambda: paired_t_bonferroni(
            dict(enumerate(table.T.tolist())), [(0, 2), (1, 2)]),
    }[test]
    with pytest.raises(ValueError, match="^observations must be finite$"):
        run()


@pytest.mark.parametrize("run", [
    lambda: one_way_anova([[1e308, -1e308], [1e308, 1e308]]),
    lambda: rm_anova([[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]]),
    # only the within sum of squares overflows: F would read 0 and p 1
    lambda: rm_anova([[1e308, -1e308], [-1e308, 1e308]]),
    lambda: paired_t_bonferroni({"a": [1e308, -1e308, 1e308], "b": [-1e308, 1e308, 0.0]},
                                [("a", "b")]),
], ids=["one_way_anova", "rm_anova", "rm_anova within", "paired_t_bonferroni"])
def test_overflowing_observations_are_rejected(run):
    # finite observations whose differences or squares overflow float64
    # raise before any p-value, and without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^observations overflow float64: sums of squares "
                                             "are not finite$"):
            run()


class TestPairedT:
    def test_sum_formula_oracle(self):
        # diffs 1,2,3: mean 2, sd 1, t = 2*sqrt(3), df 2
        a = {"x": [3.0, 5.0, 7.0], "y": [2.0, 3.0, 4.0]}
        (r,) = paired_t_bonferroni(a, [("x", "y")])
        assert r.t_statistic == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert r.raw_p == pytest.approx(t_two_sided_p(2.0 * math.sqrt(3.0), 2), abs=1e-12)
        assert r.corrected_p == r.raw_p  # single comparison, no inflation

    def test_bonferroni_multiplies_and_caps(self):
        samples = {k: list(np.random.default_rng(ord(k)).normal(size=6))
                   for k in "abcdefghij"}
        pairs = [(x, y) for i, x in enumerate("abcdefghij")
                 for y in "abcdefghij"[i + 1:]]
        assert len(pairs) == 45
        results = paired_t_bonferroni(samples, pairs)
        for r in results:
            assert r.corrected_p == min(1.0, r.raw_p * 45)

    def test_zero_diff_is_null(self):
        (r,) = paired_t_bonferroni({"x": [1.0, 2.0], "y": [1.0, 2.0]}, [("x", "y")])
        assert r.t_statistic == 0.0 and r.raw_p == 1.0 and not r.significant

    def test_constant_nonzero_diff_flagged(self):
        (r,) = paired_t_bonferroni({"x": [2.0, 3.0], "y": [1.0, 2.0]}, [("x", "y")])
        assert r.degenerate and r.raw_p == 0.0

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            paired_t_bonferroni({"x": [1.0, 2.0], "y": [1.0]}, [("x", "y")])


def reference_paired_t_bonferroni(samples, pairs):
    """The per-pair loop that the stacked paired_t_bonferroni replaced."""
    pairs = list(pairs)
    m = len(pairs)
    results = []
    for first, second in pairs:
        a = np.asarray(samples[first], dtype=float)
        b = np.asarray(samples[second], dtype=float)
        if len(a) != len(b) or len(a) < 2:
            raise ValueError(f"pair ({first}, {second}): need equal-length lists >= 2")
        diff = a - b
        n = len(diff)
        mean = diff.mean()
        sd = diff.std(ddof=1)
        degenerate = False
        if sd == 0:
            if mean == 0:
                t_stat, raw_p = 0.0, 1.0
            else:
                t_stat = math.inf if mean > 0 else -math.inf
                raw_p = 0.0
                degenerate = True
        else:
            t_stat = mean / (sd / math.sqrt(n))
            raw_p = t_two_sided_p(t_stat, n - 1)
        corrected = min(1.0, raw_p * m)
        results.append((first, second, t_stat, raw_p, corrected, bool(corrected < 0.05),
                        degenerate))
    return results


def assert_same_t_tests(samples, pairs):
    got = [(*r.pair, r.t_statistic, r.raw_p, r.corrected_p, r.significant, r.degenerate)
           for r in paired_t_bonferroni(samples, pairs)]
    assert got == reference_paired_t_bonferroni(samples, pairs)


class TestStackedPairedT:
    """paired_t_bonferroni against the per-pair reference, compared with ==."""

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_studies(self, seed, tmp_path):
        path = write_trials(tmp_path / "trials.csv", study_lines(seed))
        pairs = list(itertools.combinations(PATTERN_ORDER, 2))
        assert len(pairs) == 45
        for side in WristSide:
            table = per_participant_rates(*read_trials_csv(path, side))
            assert_same_t_tests(dict(zip(PATTERN_ORDER, table.T.tolist())), pairs)

    def test_zero_sd_pairs(self):
        # dyadic rates, so that a - c is exactly 0.25 in every row
        samples = {"a": [0.5, 0.75, 1.0], "b": [0.5, 0.75, 1.0], "c": [0.25, 0.5, 0.75],
                   "d": [0.125, 0.25, 0.625]}
        pairs = [("a", "b"), ("a", "c"), ("c", "a"), ("a", "d")]
        assert_same_t_tests(samples, pairs)
        results = paired_t_bonferroni(samples, pairs)
        assert [r.degenerate for r in results] == [False, True, True, False]
        assert [r.t_statistic for r in results[:3]] == [0.0, math.inf, -math.inf]

    def test_pairs_of_different_lengths_in_one_call(self):
        rng = np.random.default_rng(11)
        samples = {f"s{n}{k}": rng.uniform(size=n).tolist() for n in (2, 5, 9) for k in "xyz"}
        pairs = [(f"s{n}{a}", f"s{n}{b}") for a, b in ("xy", "zx", "yz") for n in (9, 2, 5)]
        assert_same_t_tests(samples, pairs)

    def test_no_pairs(self):
        assert paired_t_bonferroni({"x": [1.0, 2.0]}, []) == []
        assert_same_t_tests({}, [])


@dataclass(frozen=True)
class TrialRecord:
    participant_id: int
    wrist_side: WristSide
    actual: PatternId
    perceived: PatternId


def reference_trial_counts(path, side):
    """The per-record reader and count loop that read_trials_csv replaced
    (tolerant token parse only, which accepts every exact token too)."""
    trials = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [c.strip().lower() for c in header] != ["participant", "side", "actual", "perceived"]:
            raise ValueError("expected header participant,side,actual,perceived")
        for i, row in enumerate(reader, start=2):
            try:
                pid = row[0].strip()
                if not (pid.isascii() and pid.isdigit()):
                    raise ValueError("participant id must be ASCII digits")
                trials.append(TrialRecord(
                    participant_id=int(pid),
                    wrist_side=WristSide(row[1].strip().lower()),
                    actual=PatternId.parse(row[2]),
                    perceived=PatternId.parse(row[3]),
                ))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"row {i}: {exc}") from exc
    mine = [t for t in trials if t.wrist_side is side]
    participants = sorted({t.participant_id for t in mine})
    row = {pid: i for i, pid in enumerate(participants)}
    counts = np.zeros((len(participants), 10, 10))
    for t in mine:
        counts[row[t.participant_id], PATTERN_ORDER.index(str(t.actual)),
               PATTERN_ORDER.index(str(t.perceived))] += 1
    return participants, counts


def trial_lines(trials):
    return [f"{t.participant_id},{t.wrist_side.value},{t.actual},{t.perceived}\n"
            for t in trials]


def write_trials(path, lines, newline="\n"):
    text = "participant,side,actual,perceived\n" + "".join(lines)
    path.write_bytes(text.replace("\n", newline).encode())
    return path


def trial_counts(tmp_path, trials, side):
    """read_trials_csv on the trials written as CSV."""
    return read_trials_csv(write_trials(tmp_path / "trials.csv", trial_lines(trials)), side)


def assert_same_counts(path, side):
    participants, counts = read_trials_csv(path, side)
    want_participants, want_counts = reference_trial_counts(path, side)
    assert participants == want_participants
    assert counts.dtype == np.float64 and counts.shape == want_counts.shape
    assert np.array_equal(counts, want_counts)


class TestConfusionFromTrials:
    @staticmethod
    def trials_identity(n_per=5):
        out = []
        for p in PATTERN_ORDER:
            for i in range(n_per):
                out.append(TrialRecord(i, WristSide.VOLAR,
                                       PatternId.parse(p), PatternId.parse(p)))
        return out

    def test_identity_trials(self, tmp_path):
        _, counts = trial_counts(tmp_path, self.trials_identity(), WristSide.VOLAR)
        m = confusion_from_trials(counts)
        assert np.allclose(m.values, np.eye(10))
        diag, mean = recognition_rates(m)
        assert mean == 1.0

    def test_everything_perceived_as_first_pattern(self, tmp_path):
        trials = [
            TrialRecord(0, WristSide.VOLAR, PatternId.parse(p), PatternId.parse("1H"))
            for p in PATTERN_ORDER
        ]
        m = confusion_from_trials(trial_counts(tmp_path, trials, WristSide.VOLAR)[1])
        assert np.allclose(m.values[:, 0], 1.0)
        assert np.allclose(m.values[:, 1:], 0.0)

    def test_side_filter(self, tmp_path):
        _, counts = trial_counts(tmp_path, self.trials_identity(), WristSide.DORSAL)
        with pytest.raises(MissingPattern):
            confusion_from_trials(counts)

    def test_sampled_rates_converge(self, tmp_path):
        # draw perceived labels from a known confusion row and check the
        # estimate is consistent within sampling error
        rng = np.random.default_rng(9)
        true_rate = 0.8
        trials = []
        for p in PATTERN_ORDER:
            for i in range(2000):
                if rng.random() < true_rate:
                    perceived = p
                else:
                    others = [q for q in PATTERN_ORDER if q != p]
                    perceived = others[rng.integers(9)]
                trials.append(TrialRecord(i, WristSide.VOLAR,
                                          PatternId.parse(p), PatternId.parse(perceived)))
        m = confusion_from_trials(trial_counts(tmp_path, trials, WristSide.VOLAR)[1])
        diag, mean = recognition_rates(m)
        assert abs(mean - true_rate) < 0.02


def reference_per_participant_rates(trials, side):
    """The per-trial triple loop that per_participant_rates replaced."""
    participants = sorted({t.participant_id for t in trials if t.wrist_side is side})
    table = np.zeros((len(participants), len(PATTERN_ORDER)))
    for i, pid in enumerate(participants):
        for j, pattern in enumerate(PATTERN_ORDER):
            mine = [
                t for t in trials
                if t.participant_id == pid and t.wrist_side is side
                and str(t.actual) == pattern
            ]
            if not mine:
                raise MissingPattern(
                    f"participant {pid} has no trials for pattern {pattern}"
                )
            table[i, j] = sum(1 for t in mine if str(t.perceived) == pattern) / len(mine)
    return table


class TestPerParticipantRates:
    @staticmethod
    def random_trials(rng, participants=(3, 11, 7), reps=4):
        trials = []
        for side in WristSide:
            for pid in participants:
                for p in PATTERN_ORDER:
                    for _ in range(int(rng.integers(1, reps + 1))):
                        perceived = p if rng.random() < 0.7 else PATTERN_ORDER[rng.integers(10)]
                        trials.append(TrialRecord(pid, side, PatternId.parse(p),
                                                  PatternId.parse(perceived)))
        return [trials[i] for i in rng.permutation(len(trials))]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_exactly(self, seed, tmp_path):
        trials = self.random_trials(np.random.default_rng(seed))
        for side in WristSide:
            got = per_participant_rates(*trial_counts(tmp_path, trials, side))
            assert got.shape == (3, 10)
            assert np.array_equal(got, reference_per_participant_rates(trials, side))

    def test_missing_pattern_names_participant(self, tmp_path):
        trials = self.random_trials(np.random.default_rng(0))
        trials = [t for t in trials
                  if not (t.participant_id == 7 and str(t.actual) == "3L")]
        participants, counts = trial_counts(tmp_path, trials, WristSide.VOLAR)
        with pytest.raises(MissingPattern, match="participant 7 has no trials for pattern 3L"):
            per_participant_rates(participants, counts)


class TestBundledMatrices:
    CHECKSUMS = {
        "confusion_volar.csv":
            "2746e44107c1f0682d5686f3a2e9099aa83c632f9ddf54d23d62bcdb47a933af",
        "confusion_dorsal.csv":
            "15c34417bd5faa3e0314e6fa05d9edb08861a149d1c20c2d65e468eab9d9dfd5",
    }

    @pytest.mark.parametrize("name,expected_mean", [
        ("confusion_volar.csv", 0.756),
        ("confusion_dorsal.csv", 0.709),
    ])
    def test_mean_recognition_rates(self, name, expected_mean):
        m = ConfusionMatrix.from_csv(data_path(name))
        _, mean = recognition_rates(m)
        assert mean == pytest.approx(expected_mean, abs=0.005)

    def test_ranking_is_by_rate_then_pattern_order(self):
        m = ConfusionMatrix.from_csv(data_path("confusion_volar.csv"))
        ranked = recognition_ranking(m)
        rates, _ = recognition_rates(m)
        assert sorted(ranked) == sorted(zip(PATTERN_ORDER, rates.tolist()))
        order = [(-rate, PATTERN_ORDER.index(pattern)) for pattern, rate in ranked]
        assert order == sorted(order)
        tied = ConfusionMatrix(np.full((10, 10), 0.1))
        assert recognition_ranking(tied) == [(p, 0.1) for p in PATTERN_ORDER]

    def test_rows_are_stochastic_within_rounding(self):
        for name in self.CHECKSUMS:
            m = ConfusionMatrix.from_csv(data_path(name))
            assert np.all(np.abs(m.values.sum(axis=1) - 1.0) <= 0.02)

    def test_checksums_pin_the_data(self):
        for name, expected in self.CHECKSUMS.items():
            digest = hashlib.sha256(data_path(name).read_bytes()).hexdigest()
            assert digest == expected, f"{name} changed"

    def test_round_trip_csv(self, tmp_path):
        m = ConfusionMatrix.from_csv(data_path("confusion_volar.csv"))
        out = tmp_path / "m.csv"
        out.write_text("pattern," + ",".join(PATTERN_ORDER) + "\n" + "".join(
            f"{label}," + ",".join(f"{v:.2f}" for v in row) + "\n"
            for label, row in zip(PATTERN_ORDER, m.values)
        ))
        again = ConfusionMatrix.from_csv(out)
        assert np.allclose(again.values, m.values, atol=5e-3)


FIELD_LIMIT_MESSAGE = f"field larger than field limit ({csv.field_size_limit()})"


class TestConfusionMatrix:
    @pytest.mark.parametrize("edit", ["short", "long"])
    def test_from_csv_names_a_row_of_the_wrong_length(self, tmp_path, edit):
        lines = data_path("confusion_volar.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] if edit == "short" else lines[3] + ",0.00"
        path = tmp_path / "m.csv"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match=r"^row 4: expected 10 values$"):
            ConfusionMatrix.from_csv(path)

    def test_from_csv_names_the_row_of_an_entry_that_is_not_a_number(self, tmp_path):
        lines = data_path("confusion_volar.csv").read_text().splitlines()
        assert lines[4].startswith("2L,")
        lines[4] = "2L,abc," + lines[4].split(",", 2)[2]
        path = tmp_path / "m.csv"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError,
                           match=r"^row 5: could not convert string to float: 'abc'$"):
            ConfusionMatrix.from_csv(path)

    def test_from_csv_names_the_row_of_an_oversized_field(self, tmp_path):
        lines = data_path("confusion_volar.csv").read_text().splitlines()
        lines[4] = "2L," + "0" * (csv.field_size_limit() + 1)
        path = tmp_path / "m.csv"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match=f"^row 5: {re.escape(FIELD_LIMIT_MESSAGE)}$"):
            ConfusionMatrix.from_csv(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.01, 1.01])
    def test_rejects_entries_outside_the_unit_interval(self, bad):
        values = np.eye(10)
        values[0, 0] = bad
        with pytest.raises(ValueError, match=r"entries must be numbers in \[0, 1\]"):
            ConfusionMatrix(values)


class TestTrialsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(
            "participant,side,actual,perceived\n"
            "1,volar,1H,1H\n"
            "2,dorsal,3L,4L\n"
        )
        participants, counts = read_trials_csv(path, WristSide.VOLAR)
        assert participants == [1]
        assert counts[0, PATTERN_ORDER.index("1H"), PATTERN_ORDER.index("1H")] == 1
        assert counts.sum() == 1
        participants, counts = read_trials_csv(path, WristSide.DORSAL)
        assert participants == [2]
        assert counts[0, PATTERN_ORDER.index("3L"), PATTERN_ORDER.index("4L")] == 1
        assert counts.sum() == 1

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("participant,side,actual,perceived\n1,volar,9Z,1H\n")
        with pytest.raises(ValueError, match="row 2"):
            read_trials_csv(path, WristSide.VOLAR)

    def test_case_and_padding_tolerated(self, tmp_path):
        path = tmp_path / "trials.csv"
        good = "participant,side,actual,perceived\n1, Volar ,1h, 3l \n2,DORSAL,5H,5H\n"
        path.write_text(good)
        plain = write_trials(tmp_path / "plain.csv", ["1,volar,1H,3L\n", "2,dorsal,5H,5H\n"])
        for side in WristSide:
            participants, counts = read_trials_csv(path, side)
            want_participants, want_counts = read_trials_csv(plain, side)
            assert participants == want_participants
            assert np.array_equal(counts, want_counts)
        for bad, message in (("3,volar,1H, 9z\n", "row 4: unknown pattern id '9Z'"),
                             ("3,palm,1H,1H\n", "row 4: 'palm' is not a valid WristSide")):
            path.write_text(good + bad)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read_trials_csv(path, WristSide.VOLAR)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(ValueError, match="header"):
            read_trials_csv(path, WristSide.VOLAR)


def study_lines(seed, participants=20, reps=10):
    """A generated study's data lines in random order: both sides, ten
    trials per participant and pattern, mostly recognized correctly."""
    rng = np.random.default_rng(seed)
    trials = []
    for side in WristSide:
        for pid in range(1, participants + 1):
            for p in PATTERN_ORDER:
                for _ in range(reps):
                    hit = rng.random() < 0.75
                    perceived = p if hit else PATTERN_ORDER[rng.integers(10)]
                    trials.append(TrialRecord(pid, side, PatternId.parse(p),
                                              PatternId.parse(perceived)))
    return trial_lines(trials[i] for i in rng.permutation(len(trials)))


def padded(line):
    pid, side, actual, perceived = line.rstrip("\n").split(",")
    return f" {pid},{side.upper()} ,{actual.lower()}, {perceived} ,extra\n"


class TestCountedReader:
    """read_trials_csv against the per-record reference, exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_studies(self, seed, tmp_path):
        path = write_trials(tmp_path / "trials.csv", study_lines(seed))
        for side in WristSide:
            assert_same_counts(path, side)

    def test_duplicated_lines(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = study_lines(5, participants=3, reps=2)
        lines = [line for line in lines for _ in range(int(rng.integers(1, 6)))]
        path = write_trials(tmp_path / "trials.csv", [lines[i] for i in rng.permutation(len(lines))])
        for side in WristSide:
            assert_same_counts(path, side)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings(self, newline, tmp_path):
        path = write_trials(tmp_path / "trials.csv", study_lines(6, participants=4), newline)
        for side in WristSide:
            assert_same_counts(path, side)

    def test_no_trailing_newline(self, tmp_path):
        lines = study_lines(7, participants=4)
        path = write_trials(tmp_path / "trials.csv", lines + [lines[0].rstrip("\n")])
        for side in WristSide:
            assert_same_counts(path, side)

    def test_padded_participant_is_the_same_participant(self, tmp_path):
        path = write_trials(tmp_path / "trials.csv", [
            "1,volar,1H,1H\n", " 1,volar,1H,1H\n", "1 ,volar,1H,2L\n",
        ])
        assert_same_counts(path, WristSide.VOLAR)
        participants, counts = read_trials_csv(path, WristSide.VOLAR)
        assert participants == [1]
        assert counts[0, 0, 0] == 2 and counts.sum() == 3

    def test_ids_an_array_could_mangle(self, tmp_path):
        # past 2**63 an id no longer fits an intp; 007, 7 and " 7" are one id
        big = "1234567890123456789012345"
        path = write_trials(tmp_path / "trials.csv", [
            f"{big},volar,1H,1H\n", "007,volar,1H,2L\n", "7,volar,2L,2L\n",
            " 7,volar,1H,1H\n", f"{big},dorsal,3L,3L\n", f"{big},volar,1H,1H\n",
        ])
        for side in WristSide:
            assert_same_counts(path, side)
        participants, counts = read_trials_csv(path, WristSide.VOLAR)
        assert participants == [7, int(big)] and type(participants[1]) is int
        assert counts[1, 0, 0] == 2 and counts[0].sum() == 3

    @pytest.mark.parametrize("pid", ["1_0", "+3", "-3", "\u0663", "1.5", "3e0", "", " "])
    def test_participant_id_must_be_ascii_digits(self, pid, tmp_path):
        # int() reads 1_0 as 10 and +3 or the Arabic-Indic digit three as 3
        path = write_trials(tmp_path / "trials.csv", [
            "10,volar,1H,1H\n", "3,dorsal,1H,1H\n", f"{pid},volar,1H,1H\n", "x,volar,1H,1H\n",
        ])
        for side in WristSide:
            with pytest.raises(ValueError,
                               match="^row 4: participant id must be ASCII digits$"):
                read_trials_csv(path, side)

    def test_tolerant_tokens(self, tmp_path):
        rng = np.random.default_rng(8)
        lines = [padded(line) if rng.random() < 0.5 else line
                 for line in study_lines(8, participants=4)]
        path = write_trials(tmp_path / "trials.csv", lines)
        for side in WristSide:
            assert_same_counts(path, side)

    def test_quoted_fields_within_a_line(self, tmp_path):
        path = write_trials(tmp_path / "trials.csv", ['"1",volar,"1H",1H\n', "1,volar,1H,1H\n"])
        assert_same_counts(path, WristSide.VOLAR)

    def test_no_rows_on_the_side(self, tmp_path):
        path = write_trials(tmp_path / "trials.csv", ["1,volar,1H,1H\n"])
        participants, counts = read_trials_csv(path, WristSide.DORSAL)
        assert participants == [] and counts.shape == (0, 10, 10)
        assert counts.dtype == np.float64

    BAD_FILES = {
        "other side": ["1,volar,1H,1H\n", "1,dorsal,1H,9Z\n"],
        "first of two": ["1,volar,1H,1H\n", "1,volar,1H,1H\n", "2,palm,1H,1H\n",
                         "1,volar,1H,1H\n", "x,volar,1H,1H\n", "2,palm,1H,1H\n"],
        "repeat of a later bad line first": ["2,volar,1H,1Q\n", "1,volar,1H,1H\n",
                                             "2,volar,1H,1Q\n", "3,volar,5Z,1H\n"],
        "header text as data": ["1,volar,1H,1H\n", "participant,side,actual,perceived\n"],
        "bad participant": ["1.5,volar,1H,1H\n"],
    }

    @pytest.mark.parametrize("name", BAD_FILES)
    def test_first_bad_row_named_as_before(self, name, tmp_path):
        path = write_trials(tmp_path / "trials.csv", self.BAD_FILES[name])
        with pytest.raises(ValueError) as want:
            reference_trial_counts(path, WristSide.VOLAR)
        for side in WristSide:
            with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
                read_trials_csv(path, side)

    def test_two_bad_rows_name_the_first(self, tmp_path):
        path = write_trials(tmp_path / "trials.csv", self.BAD_FILES["first of two"])
        with pytest.raises(ValueError, match="^row 4: 'palm' is not a valid WristSide$"):
            read_trials_csv(path, WristSide.DORSAL)

    @pytest.mark.parametrize("short", ["\n", "1,volar,1H\n", "7\n"])
    def test_short_row_names_the_fields(self, short, tmp_path):
        path = write_trials(tmp_path / "trials.csv", ["1,volar,1H,1H\n", short, "1,volar,1H,1H\n"])
        message = "row 3: expected 4 fields participant,side,actual,perceived"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_trials_csv(path, WristSide.VOLAR)

    def test_quoted_field_past_its_line_is_a_bad_row(self, tmp_path):
        path = write_trials(tmp_path / "trials.csv",
                            ["1,volar,1H,1H\n", '1,volar,"1H\n', '",1H\n', "1,volar,1H,1H\n"])
        message = "row 3: quoted field runs past the end of the line"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_trials_csv(path, WristSide.VOLAR)

    def test_oversized_field_is_a_bad_row(self, tmp_path):
        # the row is the file's line, past the repeats of an earlier line
        big = "1" * (csv.field_size_limit() + 1)
        path = write_trials(tmp_path / "trials.csv",
                            ["1,volar,1H,1H\n", "1,volar,1H,1H\n", f"{big},volar,1H,1H\n"])
        for side in WristSide:
            with pytest.raises(ValueError, match=f"^row 4: {re.escape(FIELD_LIMIT_MESSAGE)}$"):
                read_trials_csv(path, side)

    def test_oversized_header_field_is_row_1(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("participant,side,actual," + "p" * (csv.field_size_limit() + 1)
                        + "\n1,volar,1H,1H\n")
        with pytest.raises(ValueError, match=f"^row 1: {re.escape(FIELD_LIMIT_MESSAGE)}$"):
            read_trials_csv(path, WristSide.VOLAR)
