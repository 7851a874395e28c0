import pytest

from handguard.haptics import (
    ALL_PATTERNS,
    PatternId,
    Shape,
    Speed,
    pattern_frequency,
    render_pattern,
)


def pid(text):
    return PatternId.parse(text)


class TestPatternId:
    def test_text_round_trip(self):
        for p in ALL_PATTERNS:
            assert PatternId.parse(str(p)) == p

    @pytest.mark.parametrize("bad", ["9X", "0H", "6L", "1", "HH", "1h2"])
    def test_parse_rejects_unknown(self, bad):
        with pytest.raises(ValueError):
            PatternId.parse(bad)

    def test_parse_is_case_insensitive(self):
        assert pid("3l") == PatternId(Shape.CENTER_OUT, Speed.LOW)


class TestRenderPattern:
    def test_right_to_left_high(self):
        tl = render_pattern(pid("1H"))
        assert len(tl.events) == 5
        assert [e.start for e in tl.events] == [0.0, 0.1, 0.2, 0.3, 0.4]
        assert [e.motor_index for e in tl.events] == [1, 2, 3, 4, 5]
        assert tl.total_duration == pytest.approx(0.5)

    def test_center_out_low(self):
        tl = render_pattern(pid("3L"))
        starts = sorted({e.start for e in tl.events})
        assert starts == [0.0, 0.2, 0.4]
        assert tl.total_duration == pytest.approx(0.6)
        first_step = [e.motor_index for e in tl.events if e.start == 0.0]
        assert first_step == [3]

    def test_all_together_high(self):
        tl = render_pattern(pid("5H"))
        assert all(e.start == 0.0 for e in tl.events)
        assert tl.total_duration == pytest.approx(0.1)

    def test_every_motor_exactly_once(self):
        for p in ALL_PATTERNS:
            motors = sorted(e.motor_index for e in render_pattern(p).events)
            assert motors == [1, 2, 3, 4, 5]

    def test_mirror_symmetry_shape2_is_relabeled_shape1(self):
        for speed in "HL":
            one = render_pattern(pid(f"1{speed}"))
            two = render_pattern(pid(f"2{speed}"))
            mirrored = sorted(
                (e.start, 6 - e.motor_index, e.duration) for e in one.events
            )
            actual = sorted((e.start, e.motor_index, e.duration) for e in two.events)
            assert mirrored == actual

    def test_temporal_reversal_shape4_reverses_shape3(self):
        for speed in "HL":
            three = render_pattern(pid(f"3{speed}"))
            four = render_pattern(pid(f"4{speed}"))
            steps3 = {}
            for e in three.events:
                steps3.setdefault(e.start, set()).add(e.motor_index)
            steps4 = {}
            for e in four.events:
                steps4.setdefault(e.start, set()).add(e.motor_index)
            order3 = [steps3[s] for s in sorted(steps3)]
            order4 = [steps4[s] for s in sorted(steps4)]
            assert order4 == list(reversed(order3))


class TestFrequencies:
    # stated rates: 2 Hz patterns 1-2 high, 3.3 Hz patterns 3-4 high,
    # 10 Hz pattern 5 high; 1, 1.67, 5 Hz at low speed
    EXPECTED = {
        "1H": 2.0, "2H": 2.0, "3H": 10 / 3, "4H": 10 / 3, "5H": 10.0,
        "1L": 1.0, "2L": 1.0, "3L": 5 / 3, "4L": 5 / 3, "5L": 5.0,
    }

    def test_full_table_exact(self):
        for text, expected in self.EXPECTED.items():
            assert pattern_frequency(pid(text)) == expected

