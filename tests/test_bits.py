"""The mask helpers in ``_bits`` read a mask one byte at a time through a
table of each byte's set bits; each must equal its literal one-bit-at-a-time
definition, on empty masks, masks with all-zero bytes, bits at and past the
64-bit boundary, and random permutations of up to 200 elements."""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from gencayley import alpha_context, build_graph, build_group, inversion_automorphism, is_perfect_code
from gencayley._bits import bits, element_mask, elems, perm_mask
from gencayley.graphs import validate_subset
from oracles import mask_of


def bits_reference(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def perm_mask_reference(perm, mask):
    image = 0
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            image |= 1 << perm[i]
    return image


# the empty mask, single bits around each byte and word boundary, masks
# whose set bits are separated by all-zero bytes, and full bytes
EDGE_MASKS = [
    0,
    1,
    1 << 7,
    1 << 8,
    1 << 63,
    1 << 64,
    1 << 65,
    1 << 127,
    1 << 128,
    1 << 199,
    1 | 1 << 40,
    1 << 63 | 1 << 64,
    (1 << 63) - 1,
    (1 << 64) - 1,
    (1 << 200) - 1,
    0xFF << 8 | 0xFF << 64,
    1 | 1 << 199,
    int("10000001" * 25, 2),
]


def random_masks(rng, n, count):
    """Random masks of n bits, dense and sparse, some with zero bytes."""
    out = [rng.getrandbits(n) for _ in range(count)]
    for _ in range(count):
        out.append(mask_of(rng.sample(range(n), rng.randint(1, min(3, n)))))
    return out


@pytest.mark.parametrize("mask", EDGE_MASKS, ids=hex)
def test_bits_and_elems_match_the_definition_on_edge_masks(mask):
    assert bits(mask) == bits_reference(mask)
    assert elems(mask) == tuple(bits_reference(mask))
    assert mask_of(bits(mask)) == mask


def test_bits_and_elems_match_the_definition_on_random_masks():
    rng = random.Random(2024)
    masks = 0
    for n in (1, 7, 8, 9, 63, 64, 65, 128, 200):
        for mask in random_masks(rng, n, 50):
            assert bits(mask) == bits_reference(mask), hex(mask)
            assert elems(mask) == tuple(bits_reference(mask)), hex(mask)
            masks += 1
    assert masks == 9 * 100


def test_perm_mask_matches_the_definition():
    rng = random.Random(7)
    cases = 0
    for n in (1, 2, 8, 9, 24, 63, 64, 65, 100, 129, 200):
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            masks = [m for m in EDGE_MASKS if m < 1 << n] + random_masks(rng, n, 10)
            for mask in masks:
                assert perm_mask(perm, mask) == perm_mask_reference(perm, mask), (n, hex(mask))
                cases += 1
    assert cases > 4_000


def test_perm_mask_reads_the_index_array_as_given():
    # a tuple or a list, and the identity leaves every mask unchanged
    for mask in EDGE_MASKS:
        assert perm_mask(tuple(range(200)), mask) == mask
    # the reversal of 0..199 maps bit i to bit 199 - i
    reverse = list(range(199, -1, -1))
    assert perm_mask(reverse, 1 | 1 << 64) == 1 << 199 | 1 << 135
    assert perm_mask(reverse, 0) == 0


def test_element_mask_matches_the_definition():
    rng = random.Random(11)
    for n in (1, 8, 64, 65, 200):
        for _ in range(50):
            items = [rng.randrange(n) for _ in range(rng.randint(0, n))]
            assert element_mask(n, items) == mask_of(items)
    assert element_mask(200, []) == 0
    assert element_mask(200, [63, 64, 199]) == 1 << 63 | 1 << 64 | 1 << 199
    # a bool counts as 0 or 1
    assert element_mask(2, [True]) == 2


@pytest.mark.parametrize("item", [65, -1, 1.0, 2.5, "1", None], ids=repr)
def test_element_mask_names_the_first_item_outside_the_range(item):
    with pytest.raises(ValueError, match=f"element {item!r} is not an int in 0..64"):
        element_mask(65, [0, 64, item, 200])


# the element_mask contract on both sides of 64 bits: what it accepts, and
# every value it refuses with the one message, whether the value fails the
# x >= 0 test or the bit tuple's index
CONTRACT_ORDERS = (16, 100)


def refused_items(n):
    return [-1, -n, n, 2**70, 1.0, 0.5, math.nan, "1", None, Decimal(1), Fraction(1)]


def perfect_matching(n):
    """GC(Z_n, {1}, inversion): g ~ 1 - g, so the evens are a perfect code,
    as are the odds, and {0, n-1} is not."""
    z = build_group(f"cyclic:{n}")
    ctx = alpha_context(z, inversion_automorphism(z)[0])
    return build_graph(validate_subset(ctx, [1]))


@pytest.mark.parametrize("n", CONTRACT_ORDERS)
def test_element_mask_accepts_ints_and_bools_in_range(n):
    top = 1 << n - 1
    assert element_mask(n, [0, n - 1]) == 1 | top
    assert element_mask(n, [True, False]) == 0b11
    assert element_mask(n, [n - 1, 3, n - 1]) == top | 1 << 3  # a repeat is OR-ed once
    assert element_mask(n, (x for x in (2, 0))) == 0b101
    graph = perfect_matching(n)
    assert is_perfect_code(graph, range(0, n, 2))
    assert is_perfect_code(graph, [False, *range(2, n, 2), 0])
    assert is_perfect_code(graph, (x for x in [True, *range(3, n, 2)]))
    assert not is_perfect_code(graph, [0, n - 1])


@pytest.mark.parametrize(
    "n, item", [(n, x) for n in CONTRACT_ORDERS for x in refused_items(n)], ids=repr
)
def test_element_mask_refuses_the_same_values_end_to_end(n, item):
    message = re.escape(f"element {item!r} is not an int in 0..{n - 1}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        element_mask(n, [0, n - 1, item, n + 1])  # the first refused item is named
    with pytest.raises(ValueError, match=f"^{message}$"):
        is_perfect_code(perfect_matching(n), [0, item])
