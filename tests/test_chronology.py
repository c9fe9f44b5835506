import pytest
from hypothesis import given, strategies as st

from consentry.chronology import StepInterval, advance, format_step, parse_step
from consentry.core import Ledger
from consentry.errors import IntervalError


def test_advance_is_successor():
    assert advance(1) == 2
    assert advance(advance(1)) == 3


def test_advance_rejects_nonpositive():
    with pytest.raises(IntervalError):
        advance(0)


def test_advance_by_a_gap_is_one_call():
    assert advance(1, 5) == 6
    assert advance(3, 1) == advance(3)


@pytest.mark.parametrize("count", [0, -1])
def test_advance_never_goes_back(count):
    with pytest.raises(IntervalError):
        advance(4, count)


@pytest.mark.parametrize("step, count", [
    (1.5, 1), (1, 1.5), (True, 1), (1, True), (1, False), (1, "2"), ("1", 1), (None, 1),
])
def test_advance_counts_in_ints_only(step, count):
    with pytest.raises(IntervalError):
        advance(step, count)


@pytest.mark.parametrize("count", [1.5, True, "2", None])
def test_the_ledger_clock_moves_by_whole_steps_only(count):
    led = Ledger()
    with pytest.raises(IntervalError):
        led.advance(count)
    assert led.now == 1


def test_step_token_round_trip():
    assert format_step(4) == "T4"
    assert parse_step("T4") == 4


@given(st.integers(min_value=1, max_value=10**9))
def test_format_parse_identity(step):
    assert parse_step(format_step(step)) == step


@pytest.mark.parametrize("bad", ["T0", "T", "4", "Tx", "T-1", " T4", "T4 "])
def test_parse_step_rejects_malformed(bad):
    with pytest.raises(IntervalError):
        parse_step(bad)


def test_single_step_interval_contains_only_its_step():
    interval = StepInterval(1, 2)
    assert 1 in interval
    assert 2 not in interval
    assert 0 not in interval
    assert list(range(*interval)) == [1]


def test_interval_examples():
    assert 4 in StepInterval(4, 5)
    assert 5 not in StepInterval(4, 5)
    assert list(range(*StepInterval(4, 5))) == [4]


@pytest.mark.parametrize("bounds", [
    (1.5, 3), (1, 3.0), (True,), (1, True), (False, 2), ("2",), (1, "3"), (None,),
])
def test_interval_bounds_are_ints_only(bounds):
    with pytest.raises(IntervalError, match="interval bounds must be whole steps"):
        StepInterval(*bounds)


def test_open_interval_contains_everything_from_start():
    interval = StepInterval(3)
    assert 3 in interval
    assert 10**9 in interval
    assert 2 not in interval
    assert interval.end is None


def test_degenerate_intervals_rejected():
    with pytest.raises(IntervalError):
        StepInterval(2, 2)
    with pytest.raises(IntervalError):
        StepInterval(3, 2)
    with pytest.raises(IntervalError):
        StepInterval(0, 4)
    with pytest.raises(IntervalError):
        StepInterval(0)
    with pytest.raises(IntervalError):
        StepInterval(-3, 2)


@pytest.mark.parametrize("end", [2, 3])
def test_an_empty_interval_is_refused_with_its_bounds(end):
    with pytest.raises(IntervalError) as err:
        StepInterval(3, end)
    assert str(err.value) == f"empty interval [T3, T{end})"


def test_single_constructor():
    assert StepInterval.single(7) == StepInterval(7, 8)


def test_rendering():
    assert str(StepInterval(1, 4)) == "[T1, T4)"
    assert str(StepInterval(3)) == "[T3, ...)"


@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=64))
def test_membership_agrees_with_enumeration(start, extra):
    # Decidable membership must match explicit enumeration on small bounds.
    end = start + extra
    interval = StepInterval(start, end)
    enumerated = set(range(*interval))
    for step in range(1, 70):
        assert (step in interval) == (step in enumerated)


def test_parse_step_beyond_the_int_digit_limit(int_digit_limit):
    token = "T" + "9" * 5000
    if int_digit_limit:
        with pytest.raises(IntervalError):
            parse_step(token)
    else:
        assert parse_step(token) == 10**5000 - 1


def test_in_tests_steps_not_fields():
    # StepInterval is a tuple (start, end); `in` must not test its fields.
    interval = StepInterval(5, 7)
    assert 5 in interval
    assert 6 in interval
    assert 7 not in interval
    assert 10**6 in StepInterval(5)
