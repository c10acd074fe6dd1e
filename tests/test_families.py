import pytest

from hline.families import (
    FamilySpec,
    tailed_cycles_of_total_order,
    make_cycle,
    make_chorded_cycle,
    make_tailed_cycle,
    make_path,
    make_spider,
    parse_family_spec,
)
from hline.graph import (
    canonical_code,
    circumference,
    girth,
    is_connected,
    is_isomorphic,
    Graph,
)

from conftest import brute_isomorphic


def test_cycle_and_path_basics():
    assert make_cycle(3).size == 3
    assert make_path(1).order == 1 and make_path(1).size == 0
    c6 = make_cycle(6)
    assert all(c6.degree(v) == 2 for v in range(6))


def test_parameter_range_errors():
    for bad in (lambda: make_cycle(2), lambda: make_path(0), lambda: make_tailed_cycle(0, 4),
                lambda: make_tailed_cycle(1, 2), lambda: make_chorded_cycle(3), lambda: make_spider(0, 1, 1)):
        with pytest.raises(ValueError):
            bad()


def test_tailed_cycle_layout():
    g = make_tailed_cycle(2, 4)
    assert g.order == 6 and g.size == 6
    assert g.has_edge(0, 4) and g.has_edge(4, 5)
    assert make_tailed_cycle(1, 3).order == 4
    assert circumference(make_tailed_cycle(3, 5)) == 5


def test_tailed_cycle_is_connected_unicyclic():
    for r in range(1, 4):
        for m in range(3, 6):
            g = make_tailed_cycle(r, m)
            assert is_connected(g) and g.size == g.order
            assert circumference(g) == m


def test_chorded_cycle():
    assert brute_isomorphic(
        make_chorded_cycle(4), Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    )
    for m in range(4, 9):
        g = make_chorded_cycle(m)
        assert girth(g) == 3
        assert sorted(g.degree(v) for v in range(g.order)).count(3) == 2
    assert make_chorded_cycle(7).size == 8


def test_spider():
    assert is_isomorphic(make_spider(1, 1, 1), Graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert make_spider(3, 3, 2).order == 9
    assert sorted(make_spider(2, 1, 1).degree(v) for v in range(5)) == [1, 1, 1, 2, 3]


def test_tailed_cycles_of_total_order():
    five = tailed_cycles_of_total_order(5)
    assert len(five) == 2
    assert any(is_isomorphic(g, make_tailed_cycle(1, 4)) for g in five)
    assert any(is_isomorphic(g, make_tailed_cycle(2, 3)) for g in five)
    four = tailed_cycles_of_total_order(4)
    assert len(four) == 1 and is_isomorphic(four[0], make_tailed_cycle(1, 3))
    seven = tailed_cycles_of_total_order(7)
    assert all(g.order == 7 and g.size == 7 for g in seven)
    codes = {canonical_code(g) for g in seven}
    assert len(codes) == len(seven)


def test_spec_parsing_round_trip():
    for text, expected in [
        ("C6", make_cycle(6)),
        ("P4", make_path(4)),
        ("G(r=2,m=4)", make_tailed_cycle(2, 4)),
        ("F7", make_chorded_cycle(7)),
        ("CL(3,3,2)", make_spider(3, 3, 2)),
    ]:
        spec = parse_family_spec(text)
        assert spec.build() == expected
        assert spec.render() == text
        assert parse_family_spec(spec.render()) == spec


def test_spec_parsing_tolerates_spaces():
    assert parse_family_spec("CL(3, 3, 2)") == FamilySpec("spider", (3, 3, 2))


def test_spec_parse_errors():
    for bad in ("", "X9", "G(2,4)", "CL(3,3)", "C", "F",):
        with pytest.raises(ValueError):
            parse_family_spec(bad)


def test_unknown_family_kind_is_rejected():
    with pytest.raises(ValueError):
        FamilySpec("bogus", ()).build()
