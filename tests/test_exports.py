"""The package's export list."""

import leibnizalg


def test_all_is_sorted_unique_and_resolves():
    names = leibnizalg.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(leibnizalg, n)] == []
