"""Elements of a powerset as int bitmasks, and sets of elements as int
bitsets over those masks, inside the operations that loop over many of them.

Bit i of a mask stands for the i-th atom of the universe in sorted order, and
bit m of a bitset for the element whose mask is m. ``Codec.hull`` and
``Dependencies.image``/``bounds`` take and return frozensets, and
``PowersetLattice`` builds the codec the first time one of them is needed.
Only ``aft.convex`` keeps masks outside this module: it iterates bitsets,
built from ``Dependencies.image_masks`` and closed by ``Codec.close``, and
turns each iterate back into frozensets once.
"""

from __future__ import annotations

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
        for start in range(0, len(self.atoms), 8):
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

    @staticmethod
    def hull(members: Iterable[frozenset]) -> frozenset:
        """Smallest convex superset of the members: ``close`` in the codec of
        the atoms in the members' join but not in their meet, the only atoms
        on which elements of the hull differ, so that the bitsets grow with
        those atoms rather than with the universe."""
        members = list(members)
        if not members:
            return frozenset()
        meet = frozenset.intersection(*members)
        free = Codec(frozenset.union(*members) - meet)
        closed = free.close(sum({1 << free.mask(x - meet) for x in members}))
        return frozenset(meet | free.decode(m) for m in select(range(closed.bit_length()), closed))


# maps the digits of ``bin`` to the bytes 0 and 1, which ``compress`` reads
# as false and true
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def select(items: Sequence, bitset: int) -> Iterator:
    """The items at the positions of the bits set in ``bitset``."""
    return compress(items, bin(bitset)[:1:-1].encode().translate(_DIGITS))


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
