"""Confusion-matrix construction and the pattern-recognition statistics.

Implements recognition rates, one-way (between groups) ANOVA, single-factor
repeated-measures ANOVA, and paired t-tests with one-step Bonferroni
correction.  p-values come from a self-contained regularized incomplete
beta evaluated by Lentz's continued fraction (no scipy dependency), through
one tail, `f_sf`: the two-sided t tail with df dof is the F(1, df) tail at
t**2.  Both ANOVAs end in one F test, `_f_test`, which holds the rule for
a table with no error variance (F = inf, p = 0 and `degenerate` when there
is an effect; F = 0, p = 1 when there is none); each passes its own error
floor.  The paired t-tests stack their differences into one (pairs x n)
array and take every mean and sd along its rows; only the t tail is
evaluated pair by pair.

`read_trials_csv` counts a trials file's identical lines, splits the
distinct ones into fields in one csv pass, checks each distinct
participant, side and pattern token once, and builds the counts from the
token tables with array operations.  When a check fails, the distinct lines
are checked again row by row, by the same per-field checks, to name the
first bad row.
The three tests reject non-finite observations, and the incomplete beta
rejects a nan argument.
"""

from __future__ import annotations

import collections
import csv
import math
from dataclasses import dataclass

import numpy as np

from .haptics import ALL_PATTERNS, PatternId, WristSide

# Canonical row/column order of the 10x10 perception matrix.
PATTERN_ORDER = tuple(str(p) for p in ALL_PATTERNS)
_PATTERN_INDEX = {p: i for i, p in enumerate(PATTERN_ORDER)}

ROW_SUM_TOL = 0.02  # tolerates matrices rounded to 2 decimals

_BETACF_MAX_ITER = 500
_BETACF_EPS = 1e-12


class MissingPattern(ValueError):
    """Some actual pattern has no trials for the requested side."""


_SIDES = {side.value: side for side in WristSide}


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic actual x perceived matrix in PATTERN_ORDER."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (10, 10):
            raise ValueError("confusion matrix must be 10x10")
        if not np.all((v >= 0) & (v <= 1)):  # also nan
            raise ValueError("entries must be numbers in [0, 1]")
        sums = v.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}; got {sums}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_csv(cls, path) -> "ConfusionMatrix":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = [c.strip() for c in rows[0][1:]] if rows else []
        if tuple(header) != PATTERN_ORDER:
            raise ValueError(f"header must list patterns in order {PATTERN_ORDER}")
        values = []
        for i, row in enumerate(rows[1:], start=2):
            label = row[0].strip() if row else ""
            if len(values) == len(PATTERN_ORDER) or label != PATTERN_ORDER[len(values)]:
                raise ValueError(f"row {i}: unexpected pattern label {label!r}")
            if len(row) != len(PATTERN_ORDER) + 1:
                raise ValueError(f"row {i}: expected {len(PATTERN_ORDER)} values")
            try:
                values.append([float(c) for c in row[1:]])
            except ValueError as exc:
                raise ValueError(f"row {i}: {exc}") from None
        return cls(np.array(values))


@dataclass(frozen=True)
class AnovaResult:
    f_statistic: float
    df_between: int
    df_within: int
    p_value: float
    degenerate: bool = False

    def __post_init__(self):
        if self.f_statistic < 0:
            raise ValueError("F must be >= 0")
        if self.df_between < 1 or self.df_within < 1:
            raise ValueError("degrees of freedom must be >= 1")


@dataclass(frozen=True)
class PairwiseResult:
    pair: tuple
    t_statistic: float
    raw_p: float
    corrected_p: float
    significant: bool
    degenerate: bool = False


# --- regularized incomplete beta and the F and t tails --------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    # written so that nan fails them
    if not (a > 0 and b > 0):
        raise ValueError("a and b must be positive")
    if not 0 <= x <= 1:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(f: float, df1: int, df2: int) -> float:
    """P(F >= f) for the F distribution with (df1, df2) dof."""
    if f <= 0:
        return 1.0
    x = df2 / (df2 + df1 * f)
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


def t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df dof: the F(1, df) tail at t**2."""
    return f_sf(t * t, 1, df)


# --- confusion matrices ----------------------------------------------------


def confusion_from_trials(counts) -> ConfusionMatrix:
    """Row-normalized actual x perceived counts summed over participants."""
    counts = counts.sum(axis=0)
    row_totals = counts.sum(axis=1)
    missing = [PATTERN_ORDER[i] for i in range(10) if row_totals[i] == 0]
    if missing:
        raise MissingPattern(f"no trials for actual patterns {missing}")
    return ConfusionMatrix(counts / row_totals[:, None])


def per_participant_rates(participants, counts) -> np.ndarray:
    """participant x pattern recognition fractions, participants in id order."""
    totals = counts.sum(axis=2)
    missing = np.argwhere(totals == 0)
    if missing.size:
        i, j = missing[0]
        raise MissingPattern(
            f"participant {participants[i]} has no trials for pattern {PATTERN_ORDER[j]}"
        )
    return np.diagonal(counts, axis1=1, axis2=2) / totals


def recognition_rates(m: ConfusionMatrix) -> tuple:
    """(per-pattern diagonal rates, their mean)."""
    diag = np.diag(m.values).copy()
    return diag, float(diag.mean())


def recognition_ranking(m: ConfusionMatrix) -> list:
    """(pattern, rate) pairs, highest recognition rate first; ties keep
    PATTERN_ORDER."""
    return sorted(zip(PATTERN_ORDER, np.diag(m.values).tolist()), key=lambda pr: -pr[1])


def _participant(token: str) -> int:
    pid = token.strip()
    # int() alone would also take signs, underscores and non-ASCII digits
    if not (pid.isascii() and pid.isdigit()):
        raise ValueError("participant id must be ASCII digits")
    return int(pid)


def _side(token: str) -> WristSide:
    return _SIDES.get(token) or WristSide(token.strip().lower())


def _pattern_index(token: str) -> int:
    # exact tokens come from the lookup table; anything else takes the
    # tolerant parse, which also raises the error for a bad token
    i = _PATTERN_INDEX.get(token)
    return _PATTERN_INDEX[str(PatternId.parse(token))] if i is None else i


# the checks of a row's four fields, in the order a bad row reports them
_FIELDS = (_participant, _side, _pattern_index, _pattern_index)


def _parse_trial(row: list) -> tuple:
    """(participant id, wrist side, actual index, perceived index) of one row."""
    if len(row) < 4:
        raise ValueError("expected 4 fields participant,side,actual,perceived")
    return tuple(check(token) for check, token in zip(_FIELDS, row))


def _fields(lines) -> list | None:
    """Per field of the distinct lines, (the checked value of each distinct
    token, each row's index into those values); None when some row is bad."""
    try:
        rows = list(csv.reader(lines))
        # as many columns as the shortest row has fields
        columns = list(zip(*rows)) if rows else [()] * 4
        if len(rows) != len(lines) or len(columns) < 4:
            return None
        fields = []
        for check, column in zip(_FIELDS, columns):
            index = {token: i for i, token in enumerate(dict.fromkeys(column))}
            fields.append(([check(token) for token in index],
                           np.fromiter(map(index.__getitem__, column), np.intp, len(column))))
        return fields
    except (ValueError, csv.Error):
        return None


def _first_row(fh, line: str) -> int:
    """Row number (header = 1) of the first data line equal to `line`."""
    fh.seek(0)
    fh.readline()
    return next(i for i, text in enumerate(fh, start=2) if text == line)


def _raise_first_bad_row(fh, lines) -> None:
    """Raise `row i: ...` for the first bad row among the distinct lines."""
    records = csv.reader(lines)
    # keys keep first-occurrence order, so the first bad key holds the
    # first bad row; a record must not run on into the next key
    for k, (line, row) in enumerate(zip(lines, records), start=1):
        try:
            if records.line_num != k:
                raise ValueError("quoted field runs past the end of the line")
            _parse_trial(row)
        except ValueError as exc:
            raise ValueError(f"row {_first_row(fh, line)}: {exc}") from exc


def read_trials_csv(path, side: WristSide) -> tuple:
    """(sorted participant ids, participant x actual x perceived counts) for
    one side of a `participant,side,actual,perceived` trials file.

    Identical lines are counted and split into fields once, and each
    distinct token of a field is checked once, so a study's many repeated
    trials cost one count each.  Rows of both sides are checked; a bad row
    raises `row i: ...` for the first one in the file.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if [c.strip().lower() for c in header] != ["participant", "side", "actual", "perceived"]:
            raise ValueError("expected header participant,side,actual,perceived")
        lines = collections.Counter(fh)
        fields = _fields(lines)
        if fields is None:
            _raise_first_bad_row(fh, lines)
    (ids, pid_of), (sides, side_of), (actuals, actual_of), (perceived, perceived_of) = fields
    mine = np.array([s is side for s in sides], dtype=bool)[side_of]
    # ids stay Python ints: a token's row is its id's rank among this side's ids
    participants = sorted({ids[i] for i in np.unique(pid_of[mine]).tolist()})
    rank = {pid: i for i, pid in enumerate(participants)}
    row_of = np.array([rank.get(pid, 0) for pid in ids], dtype=np.intp)  # 0: not on this side
    cells = (100 * row_of[pid_of] + 10 * np.array(actuals, dtype=np.intp)[actual_of]
             + np.array(perceived, dtype=np.intp)[perceived_of])[mine]
    counts = np.bincount(
        cells,
        weights=np.fromiter(lines.values(), float, len(lines))[mine],
        minlength=100 * len(participants),
    ).astype(float, copy=False)  # bincount of no rows is an int array
    return participants, counts.reshape(len(participants), 10, 10)


# --- ANOVA and paired t ----------------------------------------------------


def _f_test(ss_effect, df_effect: int, ss_error, df_error: int, error_floor: float) -> AnovaResult:
    """F test of an effect against its error term; `ss_error <= error_floor`
    is no error variance (see the module docstring)."""
    if ss_error <= error_floor:
        if ss_effect > 0:
            return AnovaResult(math.inf, df_effect, df_error, 0.0, degenerate=True)
        return AnovaResult(0.0, df_effect, df_error, 1.0)
    f = (ss_effect / df_effect) / (ss_error / df_error)
    return AnovaResult(f, df_effect, df_error, f_sf(f, df_effect, df_error))


def _require_finite_sums(*sums) -> None:
    """Finite observations can still overflow float64 in their differences
    and squares; the p-value is not taken from an inf or nan."""
    if not all(map(math.isfinite, sums)):
        raise ValueError("observations overflow float64: sums of squares are not finite")


def one_way_anova(groups) -> AnovaResult:
    """Between/within decomposition over independent groups."""
    groups = [np.asarray(g, dtype=float) for g in groups]
    if len(groups) < 2 or any(len(g) < 2 for g in groups):
        raise ValueError("need >= 2 groups with >= 2 observations each")
    if not all(np.isfinite(g).all() for g in groups):
        raise ValueError("observations must be finite")
    k = len(groups)
    n_total = sum(len(g) for g in groups)
    with np.errstate(over="ignore", invalid="ignore"):
        grand = sum(g.sum() for g in groups) / n_total
        ss_between = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
        ss_within = sum(((g - g.mean()) ** 2).sum() for g in groups)
    _require_finite_sums(ss_between, ss_within)
    return _f_test(ss_between, k - 1, ss_within, n_total - k, error_floor=0.0)


def rm_anova(table) -> AnovaResult:
    """Single-factor repeated-measures ANOVA on a participants x conditions table."""
    data = np.asarray(table, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] < 2:
        raise ValueError("need a complete table with >= 2 participants and conditions")
    if not np.isfinite(data).all():
        raise ValueError("observations must be finite")
    n, k = data.shape
    with np.errstate(over="ignore", invalid="ignore"):
        grand = data.mean()
        condition_means = data.mean(axis=0)
        subject_means = data.mean(axis=1)
        ss_condition = n * ((condition_means - grand) ** 2).sum()
        ss_within = ((data - condition_means) ** 2).sum()
        ss_subject = k * ((subject_means - grand) ** 2).sum()
    _require_finite_sums(ss_condition, ss_within, ss_subject)
    ss_error = ss_within - ss_subject
    return _f_test(ss_condition, k - 1, ss_error, (n - 1) * (k - 1), error_floor=1e-300)


def paired_t_bonferroni(samples: dict, pairs) -> list:
    """Two-sided paired t-tests with one-step Bonferroni over all requested pairs.

    The pairs' differences are stacked, one (pairs x n) array per sample
    length n, and each mean and sd is taken along its row; only the t tail
    is evaluated pair by pair."""
    pairs = list(pairs)
    m = len(pairs)
    by_length = {}
    for i, (first, second) in enumerate(pairs):
        n = len(samples[first])
        if len(samples[second]) != n or n < 2:
            raise ValueError(f"pair ({first}, {second}): need equal-length lists >= 2")
        by_length.setdefault(n, []).append(i)
    stats = [None] * m
    for n, members in by_length.items():
        row = {}  # each sample once, as a row of `values`
        for i in members:
            for name in pairs[i]:
                row.setdefault(name, len(row))
        values = np.array([samples[name] for name in row], dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("observations must be finite")
        first, second = zip(*(pairs[i] for i in members))
        with np.errstate(over="ignore", invalid="ignore"):
            diff = values[[row[name] for name in first]] - values[[row[name] for name in second]]
            means, sds = diff.mean(axis=1).tolist(), diff.std(axis=1, ddof=1).tolist()
        _require_finite_sums(*means, *sds)
        for i, mean, sd in zip(members, means, sds):
            stats[i] = (n, mean, sd)
    results = []
    for (first, second), (n, mean, sd) in zip(pairs, stats):
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
        results.append(PairwiseResult(
            pair=(first, second),
            t_statistic=t_stat,
            raw_p=raw_p,
            corrected_p=corrected,
            significant=bool(corrected < 0.05),
            degenerate=degenerate,
        ))
    return results
