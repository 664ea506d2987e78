"""Tests for the variable-width FIFO (incl. property-based)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rac.fifo import FIFO
from repro.sim.errors import ConfigurationError, FIFOError
from repro.sim.kernel import Simulator


def settled(fifo):
    """Commit staged pushes (what a clock edge does)."""
    fifo.commit()
    return fifo


def test_push_visible_only_after_commit():
    fifo = FIFO("f")
    fifo.push(7)
    assert fifo.empty
    fifo.commit()
    assert not fifo.empty
    assert fifo.pop() == 7


def test_fifo_ordering():
    fifo = FIFO("f")
    fifo.push_many([1, 2, 3])
    fifo.commit()
    assert fifo.pop_many(3) == [1, 2, 3]


def test_push_full_raises():
    fifo = FIFO("f", depth=2)
    fifo.push_many([1, 2])
    with pytest.raises(FIFOError):
        fifo.push(3)


def test_pop_empty_raises():
    fifo = FIFO("f")
    with pytest.raises(FIFOError):
        fifo.pop()
    with pytest.raises(FIFOError):
        fifo.peek()


def test_value_width_checked():
    fifo = FIFO("f", width_push=16, width_pop=16)
    with pytest.raises(FIFOError):
        fifo.push(1 << 16)
    with pytest.raises(FIFOError):
        fifo.push(-1)


def test_serialize_32_to_96():
    fifo = FIFO("f", width_push=32, width_pop=96, depth=4)
    fifo.push_many([0x11111111, 0x22222222, 0x33333333])
    fifo.commit()
    assert fifo.occupancy == 1
    wide = fifo.pop()
    assert wide == (0x33333333 << 64) | (0x22222222 << 32) | 0x11111111


def test_deserialize_96_to_32():
    fifo = FIFO("f", width_push=96, width_pop=32, depth=8)
    fifo.push((0xCC << 64) | (0xBB << 32) | 0xAA)
    fifo.commit()
    assert fifo.pop_many(3) == [0xAA, 0xBB, 0xCC]


def test_partial_wide_word_not_poppable():
    fifo = FIFO("f", width_push=32, width_pop=96, depth=4)
    fifo.push_many([1, 2])
    fifo.commit()
    assert fifo.occupancy == 0
    fifo.push(3)
    fifo.commit()
    assert fifo.occupancy == 1


def test_capacity_in_pop_words():
    fifo = FIFO("f", width_push=32, width_pop=96, depth=2)
    # capacity = 2 pop-words = 6 push words
    assert fifo.free_push_words == 6
    fifo.push_many([0] * 6)
    assert fifo.full
    with pytest.raises(FIFOError):
        fifo.push(0)


def test_peek_does_not_consume():
    fifo = FIFO("f")
    fifo.push(9)
    fifo.commit()
    assert fifo.peek() == 9
    assert fifo.occupancy == 1
    assert fifo.pop() == 9


def test_bad_geometry_rejected():
    with pytest.raises(ConfigurationError):
        FIFO("f", width_push=4)
    with pytest.raises(ConfigurationError):
        FIFO("f", width_pop=2048)
    with pytest.raises(ConfigurationError):
        FIFO("f", depth=0)


def test_reset_empties():
    fifo = FIFO("f")
    fifo.push_many([1, 2])
    fifo.commit()
    fifo.reset()
    assert fifo.empty
    assert fifo.free_push_words == fifo.depth


def test_stats_and_high_water():
    fifo = FIFO("f", depth=8)
    fifo.push_many([1, 2, 3])
    fifo.commit()
    fifo.pop()
    assert fifo.stats["pushes"] == 3
    assert fifo.stats["pops"] == 1
    assert fifo.stats["max_occupancy_atoms"] == 3


def test_storage_bits():
    assert FIFO("f", 32, 32, depth=64).storage_bits == 64 * 32
    assert FIFO("f", 32, 96, depth=4).storage_bits == 4 * 96


@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=60))
def test_conservation_and_order_same_width(values):
    fifo = FIFO("f", depth=64)
    fifo.push_many(values)
    fifo.commit()
    assert fifo.drain() == values


@given(
    st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=30),
    st.sampled_from([(32, 64), (32, 96), (64, 32), (96, 32), (16, 32)]),
)
@settings(max_examples=50)
def test_width_conversion_conserves_bits(values, widths):
    width_push, width_pop = widths
    fifo = FIFO("f", width_push, width_pop, depth=128)
    mask = (1 << width_push) - 1
    values = [v & mask for v in values]
    fifo.push_many(values)
    fifo.commit()
    popped = fifo.drain()
    # reconstruct the bit stream both ways (little-endian atoms)
    def to_bits(words, width):
        total = 0
        for index, word in enumerate(words):
            total |= word << (index * width)
        return total

    n_bits_out = len(popped) * width_pop
    in_bits = to_bits(values, width_push)
    out_bits = to_bits(popped, width_pop)
    assert out_bits == in_bits & ((1 << n_bits_out) - 1)


@given(st.data())
@settings(max_examples=50)
def test_random_push_pop_interleaving_is_fifo(data):
    fifo = FIFO("f", depth=16)
    reference = []
    pushed = popped = 0
    for _ in range(40):
        action = data.draw(st.sampled_from(["push", "pop", "commit"]))
        if action == "push" and fifo.can_push():
            fifo.push(pushed)
            reference.append(pushed)
            pushed += 1
        elif action == "pop" and fifo.can_pop():
            value = fifo.pop()
            assert value == popped  # strict FIFO order
            popped += 1
        elif action == "commit":
            fifo.commit()
    # total conservation
    fifo.commit()
    remaining = fifo.drain()
    assert remaining == list(range(popped, pushed))


def test_push_many_stages_the_valid_prefix_then_names_the_malformed_word():
    fifo = FIFO("f", width_push=16, width_pop=16, depth=8)
    with pytest.raises(FIFOError, match="0x10000"):
        fifo.push_many([1, 2, 1 << 16, 4])
    assert fifo.stats["pushes"] == 2
    fifo.commit()
    assert fifo.drain() == [1, 2]


def test_malformed_word_inside_the_fitting_part_wins_over_full():
    fifo = FIFO("f", width_push=16, width_pop=16, depth=2)
    with pytest.raises(FIFOError, match="does not fit"):
        fifo.push_many([1, -1, 3])
    fifo.commit()
    assert fifo.drain() == [1]
    # past the part that fits, "full" is what the caller hears
    fifo.push_many([5, 6])
    with pytest.raises(FIFOError, match="full"):
        fifo.push_many([1 << 16])


def test_push_on_a_full_fifo_raises_full():
    fifo = FIFO("f", depth=1)
    fifo.push(1)
    with pytest.raises(FIFOError, match="push to full FIFO f"):
        fifo.push(2)
    assert fifo.stats["pushes"] == 1


def test_pop_many_short_consumes_counts_then_raises():
    fifo = FIFO("f", depth=8)
    fifo.push_many([1, 2, 3])
    fifo.commit()
    with pytest.raises(FIFOError, match="pop from empty FIFO f"):
        fifo.pop_many(5)
    assert fifo.empty
    assert fifo.stats["pops"] == 3
    fifo.push(4)
    fifo.commit()
    assert fifo.pop() == 4


# -- the maintained levels ----------------------------------------------------
#
# ``occupancy``, ``occupancy_atoms`` and ``free_push_words`` are fields
# that the FIFO keeps current as its contents change; after any mix of
# port calls they must equal what the raw storage says.

LEVEL_WIDTHS = [(32, 32), (32, 96), (96, 32), (8, 32)]


def _recomputed_levels(fifo):
    atoms = len(fifo._atoms) - fifo._head
    used = atoms + len(fifo._staged)
    return (atoms // fifo._pop_ratio, atoms,
            (fifo._capacity_atoms - used) // fifo._push_ratio)


def _levels(fifo):
    return fifo.occupancy, fifo.occupancy_atoms, fifo.free_push_words


@given(st.data())
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("widths", LEVEL_WIDTHS,
                         ids=[f"{p}to{q}" for p, q in LEVEL_WIDTHS])
@pytest.mark.parametrize("faulty", [False, True], ids=["plain", "faulty"])
def test_maintained_levels_equal_recomputed_levels(widths, faulty, data):
    """After any sequence of ``push_many`` (short, overfull or with a
    malformed word), ``pop_many`` (short or overlong), ``commit`` and
    ``reset`` -- through a ``FaultyFIFO``'s per-word push path, too --
    the level fields equal the levels recomputed from the storage."""
    from repro.faults import FaultEvent, FaultKind, FaultPlan
    from repro.faults.injectors import FaultyFIFO

    width_push, width_pop = widths
    depth = data.draw(st.sampled_from([1, 4, 16, 64]))
    if faulty:
        events = data.draw(st.lists(st.builds(
            FaultEvent,
            kind=st.sampled_from([FaultKind.DROP_WORD, FaultKind.DUP_WORD,
                                  FaultKind.BIT_FLIP]),
            site=st.just("fifo.in0"), index=st.integers(0, 40),
            bit=st.integers(0, 95)), max_size=6))
        fifo = FaultyFIFO("ocp.fin0", plan=FaultPlan(events=events),
                          width_push=width_push, width_pop=width_pop,
                          depth=depth)
    else:
        fifo = FIFO("f", width_push=width_push, width_pop=width_pop,
                    depth=depth)
    word = st.integers(0, (1 << width_push) - 1)
    assert _levels(fifo) == _recomputed_levels(fifo)
    for _ in range(data.draw(st.integers(1, 80))):
        action = data.draw(st.sampled_from(
            ["push", "push", "pop", "pop", "commit", "commit", "reset"]))
        if action == "push":
            values = data.draw(st.lists(word, max_size=2 * depth + 2))
            if values and data.draw(st.booleans()):
                values[data.draw(st.integers(0, len(values) - 1))] = \
                    1 << width_push
            try:
                fifo.push_many(values)
            except FIFOError:
                pass
        elif action == "pop":
            try:
                fifo.pop_many(data.draw(st.integers(0, 2 * depth + 2)))
            except FIFOError:
                pass
        elif action == "commit":
            fifo.commit()
        else:
            fifo.reset()
        assert _levels(fifo) == _recomputed_levels(fifo), action
