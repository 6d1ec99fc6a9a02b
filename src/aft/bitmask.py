"""Elements of a powerset as int bitmasks, inside the operations that loop
over many of them.

Bit i of a mask stands for the i-th atom of the universe in sorted order. No
mask leaves this module: ``Codec.hull`` and ``Dependencies`` take and return
frozensets, and ``PowersetLattice`` builds the codec the first time one of
them is needed.
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Callable, Iterable, Mapping


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

    def hull(self, members: Iterable[frozenset]) -> frozenset:
        """Smallest convex superset of the members, the cover closure of
        ``Lattice.hull`` taken one atom at a time: for each atom in the
        members' join but not their meet, the masks reached so far are closed
        upwards by adding it and downwards by removing it. Only the hull's
        elements that are not members are turned back into frozensets."""
        given = {self.mask(x): x for x in members}
        if not given:
            return frozenset()
        up, down = set(given), set(given)
        free = reduce(int.__or__, up) & ~reduce(int.__and__, up)
        while free:
            bit = free & -free
            free ^= bit
            up |= {y | bit for y in up}
            down |= {y & ~bit for y in down}
        decode = self.decode
        return frozenset(given[y] if y in given else decode(y) for y in up & down)


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
