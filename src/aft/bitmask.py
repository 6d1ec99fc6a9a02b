"""Elements of a powerset as int bitmasks, and sets of elements as int
bitsets over those masks, inside the operations that loop over many of them.

Bit i of a mask stands for the i-th atom of the universe in sorted order, and
bit m of a bitset for the element whose mask is m. ``Dependencies.image`` and
``bounds`` take and return frozensets, and ``PowersetLattice`` builds the
codec the first time an operator's dependencies or convex iteration need it.
``aft.convex`` iterates bitsets, built from ``Dependencies.image_masks`` and
closed by ``Codec.close``, and returns each iterate as a ``MaskSet``: a
read-only set that keeps the bitset and its codec, equals the frozenset of
its members and decodes them only when iterated or compared. The CLI lists a
MaskSet's members with ``MaskSet.sorted_members``, from the masks and the
codec's byte tables, without decoding them.
"""

from __future__ import annotations

from collections.abc import Set
from functools import cached_property
from itertools import compress
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class Codec:
    """The bitmask of each element of the powerset of ``universe``, and back;
    ``atoms`` lists the universe in bit order."""

    def __init__(self, universe: Iterable):
        self.atoms = sorted(universe)
        self.bit = {a: 1 << i for i, a in enumerate(self.atoms)}.__getitem__

    @cached_property
    def _chunks(self) -> list[list[tuple]]:
        """For each byte of a mask, the tuple of atoms that each of its 256
        values stands for."""
        chunks = []
        for start in range(0, max(len(self.atoms), 1), 8):
            table = [()]
            for a in self.atoms[start:start + 8]:
                table += [t + (a,) for t in table]
            chunks.append(table)
        return chunks

    def mask(self, x: frozenset) -> int:
        return sum(map(self.bit, x))

    def decode(self, mask: int) -> frozenset:
        atoms = ()
        for table in self._chunks:
            if not mask:
                break
            atoms += table[mask & 255]
            mask >>= 8
        return frozenset(atoms)

    @cached_property
    def _shifts(self) -> list[tuple[int, int, int]]:
        """For each atom i, the shift 2**i and the bitsets of the masks
        without bit i and of those with it."""
        full = (1 << (1 << len(self.atoms))) - 1
        shifts = []
        for i in range(len(self.atoms)):
            step = 1 << i
            clear = full // ((1 << 2 * step) - 1) * ((1 << step) - 1)
            shifts.append((step, clear, full ^ clear))
        return shifts

    def close(self, masks: int) -> int:
        """The hull of a bitset of masks: its closure upwards, adding each
        atom to the masks without it by a shift, met with its closure
        downwards, removing each atom from the masks with it. One pass over
        the atoms suffices, as closing under one atom keeps the closure
        under the atoms before it. About 2 * |U| operations on ints of
        2**|U| bits."""
        up = down = masks
        for step, clear, has in self._shifts:
            up |= (up & clear) << step
            down |= (down & has) >> step
        return up & down


# maps the digits of ``bin`` to the bytes 0 and 1, which ``compress`` reads
# as false and true
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def select(items: Sequence, bitset: int) -> Iterator:
    """The items at the positions of the bits set in ``bitset``."""
    return compress(items, bin(bitset)[:1:-1].encode().translate(_DIGITS))


def bitset(positions: Iterable[int], size: int) -> int:
    """The int of ``size`` bits with the bits at ``positions`` set, read
    from a string of binary digits: a sum of ``1 << m`` would build an int
    of up to ``size`` bits for each position."""
    digits = bytearray(b"0") * size
    for m in positions:
        digits[m] = 49  # "1"
    digits.reverse()
    return int(digits, 2)


class MaskSet(Set):
    """A read-only set of elements of a powerset: bit m of ``bits`` stands
    for the element whose mask in ``codec`` is m. It equals, and hashes as,
    the frozenset of its members, and decodes them only when iterated,
    compared or hashed; ``sorted_members`` lists them in order without
    decoding them."""

    __slots__ = ("codec", "bits")

    def __init__(self, codec: Codec, bits: int):
        self.codec = codec
        self.bits = bits

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[frozenset]:
        return map(self.codec.decode, select(range(self.bits.bit_length()), self.bits))

    def __contains__(self, x) -> bool:
        if not isinstance(x, frozenset):
            return False
        try:
            return self.bits >> self.codec.mask(x) & 1 == 1
        except KeyError:  # an atom outside the universe
            return False

    # the members are decoded once and compared as a frozenset, which is
    # faster than the element-wise methods of Set; its < and > call these

    def __le__(self, other) -> bool:
        return frozenset(self) <= other

    def __ge__(self, other) -> bool:
        return frozenset(self) >= other

    def __eq__(self, other) -> bool:
        return frozenset(self) == other

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __repr__(self) -> str:
        return f"MaskSet({set(self)!r})"

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        # what the set operators of Set return
        return frozenset(it)

    def sorted_members(self) -> list[tuple]:
        """Each member as the tuple of its atoms in sorted order, in the order
        of ``sorted(sorted(m) for m in self)``, from the codec's byte tables.

        Bit i stands for the i-th atom, so that order is the order of each
        mask's bit positions read upwards, the preorder of the tree in which
        a set's children add one atom above its highest. A nonempty mask
        with bits i_1 < ... < i_k of n has rank 2**n + k - R - 2**(n-1-i_k)
        there, where R has bit n-1-i for each bit i of the mask, and the
        empty mask rank 0. Each byte of a mask adds its share of that rank,
        and the highest nonzero byte its share of the last term too, so the
        masks of one block of 256, which share every byte but the lowest,
        take their ranks from one table of 256 entries. The masks are sorted
        as one list of ints, the rank above the mask's n bits."""
        codec, n = self.codec, len(self.codec.atoms)
        if n <= 8:  # at most 256 members, which sort as tuples faster
            return sorted(select(codec._chunks[0], self.bits))
        chunks = codec._chunks
        tables = [_rank_shares(n, start) for start in range(0, n, 8)]
        low = [[share << n | byte for byte, share in enumerate(shares)] for shares in tables[0]]
        keys: list[int] = []
        tails: list[tuple] = []  # the atoms of each block's bytes above the lowest
        data = self.bits.to_bytes((1 << n) >> 3, "little")
        for block in range(len(data) >> 5):
            base, tail, rest = 1 << n, (), block
            for (shares, top_shares), table in zip(tables[1:], chunks[1:]):
                if rest:
                    byte = rest & 255
                    rest >>= 8
                    base += (shares if rest else top_shares)[byte]
                    tail += table[byte]
            tails.append(tail)
            bits = int.from_bytes(data[block << 5:(block + 1) << 5], "little")
            if bits:
                lows = low[0] if block else low[1]
                keys += map((base << n | block << 8).__add__, select(lows, bits))
        keys.sort()
        first, masks = chunks[0], (1 << n) - 1
        return [first[k & 255] + tails[(k & masks) >> 8] for k in keys]


def _rank_shares(n: int, start: int) -> tuple[list[int], list[int]]:
    """For each value of the byte of masks of n bits that begins at bit
    ``start``, its share of ``MaskSet.sorted_members``'s rank less 2**n:
    1 - 2**(n-1-i) for each bit i; and that share when the byte holds the
    highest bit, less 2**(n-1-i) for that bit i, the empty byte -2**n."""
    shares, top_shares = [0], [-(1 << n)]
    for i in range(start, min(start + 8, n)):
        weight = 1 << (n - 1 - i)
        added = [share + 1 - weight for share in shares]
        top_shares += [share - weight for share in added]
        shares += added
    return shares, top_shares


class _ConditionTable(dict):
    """Every atom's condition by the bitmask of its parents' assignment,
    evaluated the first time it is looked up. The key of atom i at mask m
    is m | i << n, n being the number of atoms, so one table serves them
    all."""

    __slots__ = ("_atoms", "_condition", "_decode")

    def __missing__(self, key: int) -> bool:
        atoms = self._atoms
        n = len(atoms)
        holds = self[key] = self._condition(atoms[key >> n], self._decode(key & ((1 << n) - 1)))
        return holds


class Dependencies:
    """How an operator on a powerset decides each atom of an image.

    ``parents`` maps every atom p to the atoms on which p's membership
    depends, and ``condition(p, z)`` tells whether p is in the image of any
    element whose atoms among ``parents[p]`` are exactly those of z. The
    conditions are tabulated as they are asked, keyed by p and the bitmask
    of z ∩ parents[p], so a condition is evaluated at most once per
    assignment to the atom's parents.
    """

    def __init__(self, codec: Codec, parents: Mapping, condition: Callable):
        self.parents = parents
        self.condition = condition
        self._bit = bit = codec.bit
        atoms = codec.atoms
        self._table = table = _ConditionTable()
        table._atoms, table._condition, table._decode = atoms, condition, codec.decode
        n = len(atoms)
        self._rows = [(p, sum(map(bit, parents[p])), i << n) for i, p in enumerate(atoms)]

    def image(self, z: frozenset) -> frozenset:
        """The atoms whose condition holds at z."""
        zmask = sum(map(self._bit, z))
        table = self._table
        return frozenset([p for p, pmask, key in self._rows if table[zmask & pmask | key]])

    def image_masks(self) -> list[int]:
        """The mask of the image of every mask, in mask order. The image of
        a mask is that of the mask without its highest atom with only that
        atom's children, the atoms of which it is a parent, decided again."""
        table, rows = self._table, self._rows
        images = [sum(1 << j for j, (_, _, key) in enumerate(rows) if table[key])]
        for i in range(len(rows)):
            # images holds the images of the masks below bit, those of the
            # atoms below i; the masks bit + k, which add atom i to k, follow
            bit = 1 << i
            block = images
            for j, (_, pmask, key) in enumerate(rows):
                if pmask & bit:
                    child, other = 1 << j, ~(1 << j)
                    block = [
                        image | child if table[m & pmask | key] else image & other
                        for m, image in enumerate(block, bit)
                    ]
            images = images + block
        return images

    def bounds(self, lower: frozenset, upper: frozenset) -> tuple[frozenset, frozenset]:
        """The meet and the join of the images of the elements between lower
        and upper, for lower below upper: p is in the meet when its condition
        holds on every assignment to the parents the pair leaves open, and in
        the join when it holds on one. Each atom stops at the first
        assignment that disagrees with an earlier one."""
        bit, table = self._bit, self._table
        lo = sum(map(bit, lower))
        free = sum(map(bit, upper)) & ~lo
        meet, join = [], []
        for p, pmask, key in self._rows:
            fixed = lo & pmask | key
            open_ = free & pmask
            sub = open_
            seen = 0  # 1 once the condition held, 2 once it failed
            while True:
                seen |= 1 if table[fixed | sub] else 2
                if seen == 3 or not sub:
                    break
                sub = (sub - 1) & open_
            if seen == 1:
                meet.append(p)
            if seen & 1:
                join.append(p)
        return frozenset(meet), frozenset(join)
