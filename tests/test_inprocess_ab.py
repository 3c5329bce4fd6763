"""The reading that ``tests/inprocess_ab.py`` prints over several seeds."""

from inprocess_ab import reading


def test_reading_gives_the_range_of_the_medians_and_the_counts_above_1():
    # medians 1.02, 0.95 (the mean of the middle two) and 1.0, which is not
    # above 1; the rounds above 1 are 1.02, 1.1, 1.2 and 1.01
    ratios_by_seed = [[0.9, 1.02, 1.1], [0.9, 0.94, 0.96, 1.2], [1.0, 0.99, 1.01]]
    assert reading(ratios_by_seed) == "medians 0.950–1.020; above 1: 1 of 3 medians, 4 of 10 rounds"
    assert reading([[1.5]]) == "medians 1.500–1.500; above 1: 1 of 1 medians, 1 of 1 rounds"
