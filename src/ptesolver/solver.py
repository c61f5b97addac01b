"""Equilibrium computation by forward-induction outcome elimination.

Starting from all outcomes, each step looks only at information sets the
game is guaranteed to pass through given what survives, computes there
the payoff each deciding player can force (the maximin over live
actions), and simultaneously discards every surviving outcome paying its
player less than that guarantee. A discarded outcome is impossible: were
it known to be the result, its player would profitably deviate at a cell
that is reached no matter what. The surviving set shrinks until nothing
more can be discarded; with tie-free payoffs the fixpoint is a singleton
or empty, never larger.

The game's tree index (its preorder walk, canonical-form check and tie
flag) is built once per ``Game`` object and shared with validation;
``solve`` reads the check and compiles the walk into integer bitmasks in
payoff-rank space. Each player sorts the outcomes by their own payoff
(ties in declaration order), so bit ``r`` of one of their masks stands
for their ``r``-th worst outcome and ``first[r]`` is the first rank
paying the same.
A cell keeps the mask of outcomes below its members, and each action the
mask below the members' children under it, both in the cell player's
ranks; each player keeps a live mask of the survivors. A step is then the
paper's step in a few integer operations per cell:

- the cell is certain to be crossed iff every survivor is below it,
  ``live & ~cell_mask == 0``. Such a cell holds an ancestor of every
  survivor, so only the cells on one survivor's root path are candidates,
  and a step costs the depth of the tree, not its number of cells;
- an action's worst surviving payoff is the lowest set bit of
  ``live & action_mask``, and the maximin is the first action in cell
  order whose worst rank (through ``first``) is strictly the best;
- the survivors paying less than that guarantee are exactly the bits below
  its first rank, ``live & ((1 << first[worst]) - 1)``; their witnesses
  are ordered over these eliminated outcomes alone.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Collection, Iterable, Mapping
from fractions import Fraction
from operator import itemgetter

from .game import Game

UNIQUE = "unique"
EMPTY = "empty"
MULTIPLE_WITH_TIES = "multiple_with_ties"


class NotCanonicalError(ValueError):
    """Raised when a game violates canonical form, naming the cell."""


class SolverState:
    """Snapshot of one elimination step; read-only.

    ``maximins`` maps each reached cell to (guaranteed value, first
    maximizing action in the cell's action order); ``preempted_by`` maps
    each outcome eliminated this step to every (player, cell) witness in
    cell declaration order. ``surviving`` is a new frozenset on each
    access: the states of one ``solve`` share the order in which outcomes
    are eliminated, the fixpoint last, and a state keeps only where its
    survivors start in it, so a step stores its change, not its survivors.
    """

    __slots__ = ("step", "reached", "maximins", "preempted", "preempted_by", "_survivors", "_start")

    step: int
    reached: frozenset[str]
    maximins: Mapping[str, tuple[Fraction, str]]
    preempted: frozenset[str]
    preempted_by: Mapping[str, tuple[tuple[str, str], ...]]

    def __init__(
        self,
        step: int,
        surviving: Collection[str],
        reached: frozenset[str],
        maximins: Mapping[str, tuple[Fraction, str]],
        preempted: frozenset[str],
        preempted_by: Mapping[str, tuple[tuple[str, str], ...]],
        _start: int = 0,
    ) -> None:
        """``_start`` is for ``solve``: ``surviving`` is then its elimination order and the survivors its tail."""
        set_field = object.__setattr__
        set_field(self, "step", step)
        set_field(self, "reached", reached)
        set_field(self, "maximins", maximins)
        set_field(self, "preempted", preempted)
        set_field(self, "preempted_by", preempted_by)
        set_field(self, "_survivors", surviving)
        set_field(self, "_start", _start)

    @property
    def surviving(self) -> frozenset[str]:
        survivors = self._survivors
        return frozenset(survivors[self._start :] if self._start else survivors)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return self.step, self.surviving, self.reached, self.maximins, self.preempted, self.preempted_by

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self) -> tuple:
        return SolverState, self._fields()

    def __repr__(self) -> str:
        names = ("step", "surviving", "reached", "maximins", "preempted", "preempted_by")
        return f"SolverState({', '.join(f'{n}={v!r}' for n, v in zip(names, self._fields()))})"


SolveResult = namedtuple("SolveResult", "fixpoint steps has_ties status")


def _exact_key(value: Fraction) -> tuple[float, Fraction]:
    """A sort key that orders exactly as ``value`` does, comparing floats first.

    ``int / int`` is correctly rounded, hence monotone, so the float never
    contradicts the exact order, and values that round alike are compared
    as Fractions. A value beyond the float range takes its sign's infinity.
    """
    try:
        return value.numerator / value.denominator, value
    except OverflowError:
        return (math.inf if value > 0 else -math.inf), value


class _Ranks:
    """One player's outcomes sorted by payoff; ties keep declaration order."""

    def __init__(self, game: Game, player: str) -> None:
        utility = game.utility_map
        keyed = sorted(((_exact_key(utility[player, z]), z) for z in game.outcomes), key=itemgetter(0))
        self.outcomes = [z for _, z in keyed]
        self.rank = {z: r for r, z in enumerate(self.outcomes)}
        self.values = [key[1] for key, _ in keyed]
        self.first = list(range(len(keyed)))
        for r in range(1, len(keyed)):
            if keyed[r][0] == keyed[r - 1][0]:
                self.first[r] = self.first[r - 1]

    def mask(self, outcomes: Iterable[str]) -> int:
        result = 0
        for z in outcomes:
            result |= 1 << self.rank[z]
        return result


# A cell's outcome masks, in its player's _Ranks; actions are (action, mask) pairs in cell order.
_Cell = namedtuple("_Cell", "label player ranks mask actions")


class _Index:
    """The game compiled for one solve from its preorder walk: ranks, cell masks, action masks.

    One pass per cell player ORs each position's outcome bits into its
    parent's, children before parents, and reads that player's cells off
    the result; the per-position masks are dropped before the next player.
    """

    def __init__(self, game: Game) -> None:
        tree = game._tree
        if tree.revisited is not None:
            raise ValueError(f"{tree.revisited!r} is reached twice from the root; the game is not a tree")
        stray = game.player_map.keys() - set(game.choice_nodes)
        if stray:
            node = next(e for e in game.player_map if e in stray)
            raise ValueError(f"{node!r} has a player but is not a declared choice node")
        self.up = tree.up
        self.pos = tree.pos
        self.outcome_position = {z: i for i, z in enumerate(game.outcomes)}
        by_player: dict[str, list[tuple[int, str, tuple[str, ...]]]] = {}
        self.cells_at: dict[int, list[int]] = {}
        for i, (label, members) in enumerate(game.infosets.items()):
            if not members:
                raise ValueError(f"information set {label!r} has no members")
            by_player.setdefault(game.player_map[members[0]], []).append((i, label, members))
            for m in members:
                self.cells_at.setdefault(tree.pos[m], []).append(i)

        cells_in_order: list[_Cell | None] = [None] * len(game.infosets)
        self.ranks: dict[str, _Ranks] = {}
        successor, action_map, pos, up = game.successor_map, game.action_map, tree.pos, tree.up
        for player, cells in by_player.items():
            ranks = self.ranks[player] = _Ranks(game, player)
            masks = [0] * len(tree.order)
            for r, z in enumerate(ranks.outcomes):
                spot = pos.get(z)
                if spot is not None:
                    masks[spot] = 1 << r
            for i in range(len(masks) - 1, 0, -1):
                masks[up[i]] |= masks[i]
            for i, label, members in cells:
                actions = []
                cell_mask = 0
                for a in action_map[members[0]]:
                    mask = 0
                    for m in members:
                        mask |= masks[pos[successor[m, a]]]
                    actions.append((a, mask))
                    cell_mask |= mask
                cells_in_order[i] = _Cell(label, player, ranks, cell_mask, tuple(actions))
        self.cells: list[_Cell] = cells_in_order  # type: ignore[assignment]

    def live(self, surviving: Collection[str]) -> dict[str, int]:
        """Each cell player's mask of the surviving outcomes."""
        return {player: ranks.mask(surviving) for player, ranks in self.ranks.items()}


def _reached(index: _Index, live: Mapping[str, int]) -> list[_Cell]:
    """The cells every survivor is below, in declaration order.

    Such a cell holds an ancestor of each survivor, so only the cells on
    the root path of one survivor, the first cell player's worst, are
    tested. A survivor off the tree has no ancestors, and no cell is reached.
    """
    cells = index.cells
    if not cells:
        return []
    pool = live[cells[0].player]
    spot = index.pos.get(cells[0].ranks.outcomes[(pool & -pool).bit_length() - 1], 0)
    found: list[int] = []
    while spot > 0:
        spot = index.up[spot]
        found += index.cells_at.get(spot, ())
    found.sort()
    return [cells[i] for i in found if not live[cells[i].player] & ~cells[i].mask]


def _maximin(live: Mapping[str, int], cell: _Cell) -> tuple[int, str, int]:
    """(first rank of the guaranteed payoff, maximizing action, its mask)."""
    first = cell.ranks.first
    pool = live[cell.player]
    best: tuple[int, str, int] | None = None
    for action, mask in cell.actions:
        here = pool & mask
        if not here:
            continue
        worst = first[(here & -here).bit_length() - 1]
        if best is None or worst > best[0]:
            best = (worst, action, mask)
    if best is None:
        raise RuntimeError(f"no action at {cell.label!r} leads to a surviving outcome")
    return best


def _step(
    index: _Index, live: Mapping[str, int], cells: Iterable[_Cell]
) -> tuple[dict[str, tuple[Fraction, str]], dict[str, tuple[tuple[str, str], ...]]]:
    """Maximins at the given cells and the survivors they preempt, with witnesses."""
    maximins: dict[str, tuple[Fraction, str]] = {}
    witnesses: dict[str, list[tuple[str, str]]] = {}
    for cell in cells:
        worst, argmax, argmax_mask = _maximin(live, cell)
        maximins[cell.label] = (cell.ranks.values[worst], argmax)
        below = live[cell.player] & ((1 << worst) - 1)
        # The maximizing action cannot lead to a preempted outcome: its
        # worst surviving payoff is the guarantee itself.
        if below & argmax_mask:
            raise RuntimeError(f"preemption witness at {cell.label!r} coincides with the maximizing action")
        while below:
            low = below & -below
            z = cell.ranks.outcomes[low.bit_length() - 1]
            witnesses.setdefault(z, []).append((cell.player, cell.label))
            below ^= low
    return maximins, {z: tuple(witnesses[z]) for z in sorted(witnesses, key=index.outcome_position.__getitem__)}


def solve(game: Game) -> SolveResult:
    """Run the elimination to its fixpoint, keeping every step.

    Eliminations within a step are simultaneous: the step removes the
    union over all players and reached cells. Terminates after at most
    one step per outcome, since every non-final step removes something.
    Each step records its change; the outcomes eliminated so far form one
    list, which ends with the fixpoint and from which every step's
    ``surviving`` is read.
    """
    violation = game._tree.violation
    if violation is not None:
        cell, ancestor, node = violation
        raise NotCanonicalError(
            f"information set {cell!r} contains node {node!r} and its ancestor {ancestor!r}; "
            "canonicalize the game first"
        )
    has_ties = game._tree.has_ties
    index = _Index(game)
    live = index.live(game.outcomes)
    order: list[str] = []
    steps: list[SolverState] = []
    remaining = len(game.outcomes)
    while remaining:
        cells = _reached(index, live)
        maximins, by = _step(index, live, cells)
        reached = frozenset(cell.label for cell in cells)
        steps.append(SolverState(len(steps), order, reached, maximins, frozenset(by), by, len(order)))
        if not by:
            break
        order += by
        for player, ranks in index.ranks.items():
            live[player] &= ~ranks.mask(by)
        remaining -= len(by)
    fixpoint = frozenset(game.outcomes).difference(order)
    order += (z for z in game.outcomes if z in fixpoint)
    if len(fixpoint) == 1:
        status = UNIQUE
    elif not fixpoint:
        status = EMPTY
    else:
        status = MULTIPLE_WITH_TIES
    return SolveResult(fixpoint=fixpoint, steps=tuple(steps), has_ties=has_ties, status=status)
