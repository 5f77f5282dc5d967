from cozero.groupbfs import component_roots, members, sweep

# Six vertices in three label groups: {0, 1} ~ {2} form one component, and
# the group {3, 4, 5} has no neighbours, so its vertices are isolated.
GROUPS = [(0b000011, 0b000100), (0b000100, 0b000011), (0b111000, 0)]
GROUP_OF = [0, 0, 1, 2, 2, 2]


def test_sweep_yields_each_level_in_order():
    assert list(sweep(GROUPS, GROUP_OF, range(6))) == [
        (0, 1, 0b100),
        (0, 2, 0b010),
        (1, 1, 0b100),
        (1, 2, 0b001),
        (2, 1, 0b011),
    ]


def test_sweep_counts_element_components():
    # One component per root, the lowest vertex not reached yet; sweep draws
    # the next root only after the previous root's levels are consumed.
    unreached = (1 << 6) - 1
    roots = []

    def lowest_unreached():
        nonlocal unreached
        while unreached:
            low = unreached & -unreached
            unreached ^= low
            roots.append(low.bit_length() - 1)
            yield roots[-1]

    for _, _, frontier in sweep(GROUPS, GROUP_OF, lowest_unreached()):
        unreached &= ~frontier
    assert roots == [0, 3, 4, 5]  # four components


def test_component_roots_are_lowest_vertices():
    assert component_roots(GROUPS, GROUP_OF, 6) == [0, 3, 4, 5]
    assert component_roots([(0b1, 0b10), (0b10, 0b1)], [0, 1], 2) == [0]
    assert component_roots([], [], 0) == []


def test_members_lists_set_bits_ascending():
    assert list(members(0)) == []
    assert list(members(0b101001)) == [0, 3, 5]
    assert list(members(1 << 200 | 2)) == [1, 200]
