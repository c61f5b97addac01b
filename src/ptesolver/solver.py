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

The game is walked once per call; the walk serves the canonical-form
check and is compiled into integer bitmasks in payoff-rank space. Each
player sorts the outcomes by their own payoff (ties in declaration
order), so bit ``r`` of one of their masks stands for their ``r``-th
worst outcome and ``first[r]`` is the first rank paying the same.
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
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Collection, Iterable, Mapping

from .game import Game, _canonical_violation, _walk, _Walk, game_has_ties

UNIQUE = "unique"
EMPTY = "empty"
MULTIPLE_WITH_TIES = "multiple_with_ties"


class NotCanonicalError(ValueError):
    """Raised when a game violates canonical form, naming the cell."""


@dataclass(frozen=True)
class SolverState:
    """Snapshot of one elimination step.

    ``maximins`` maps each reached cell to (guaranteed value, first
    maximizing action in the cell's action order); ``preempted_by`` maps
    each outcome eliminated this step to every (player, cell) witness in
    cell declaration order.
    """

    step: int
    surviving: frozenset[str]
    reached: frozenset[str]
    maximins: Mapping[str, tuple[Fraction, str]]
    preempted: frozenset[str]
    preempted_by: Mapping[str, tuple[tuple[str, str], ...]]


@dataclass(frozen=True)
class SolveResult:
    fixpoint: frozenset[str]
    steps: tuple[SolverState, ...]
    has_ties: bool
    status: str


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
        keyed = sorted(((_exact_key(game.utility(player, z)), z) for z in game.outcomes), key=itemgetter(0))
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


@dataclass(frozen=True)
class _Cell:
    """A cell's outcome masks, in its player's ranks; actions in cell order."""

    label: str
    player: str
    ranks: _Ranks
    mask: int
    actions: tuple[tuple[str, int], ...]


class _Index:
    """The game compiled for one solve from its preorder walk: ranks, cell masks, action masks."""

    def __init__(self, game: Game, walk: _Walk) -> None:
        if walk.revisited is not None:
            raise ValueError(f"{walk.revisited!r} is reached twice from the root; the game is not a tree")
        self.parent = walk.parent
        self.outcome_position = {z: i for i, z in enumerate(game.outcomes)}
        cell_players = {label: game.cell_player(label) for label in game.infosets}
        self.ranks = {player: _Ranks(game, player) for player in dict.fromkeys(cell_players.values())}
        below: dict[str, dict[str, int]] = {}
        for player, ranks in self.ranks.items():
            masks: dict[str, int] = {}
            for element in reversed(walk.order):
                if element in game.player_map:
                    mask = 0
                    for a in game.action_map[element]:
                        mask |= masks[game.successor_map[(element, a)]]
                    masks[element] = mask
                else:
                    masks[element] = 1 << ranks.rank[element]
            below[player] = masks

        self.cells: dict[str, _Cell] = {}
        self.cells_at: dict[str, list[int]] = {}
        for label, members in game.infosets.items():
            player = cell_players[label]
            masks = below[player]
            actions = tuple(
                (a, _union(masks[game.successor_map[(m, a)]] for m in members))
                for a in game.cell_actions(label)
            )
            cell_mask = _union(masks[m] for m in members)
            for m in members:
                self.cells_at.setdefault(m, []).append(len(self.cells))
            self.cells[label] = _Cell(label, player, self.ranks[player], cell_mask, actions)
        self.cell_list = list(self.cells.values())

    def live(self, surviving: Collection[str]) -> dict[str, int]:
        """Each cell player's mask of the surviving outcomes."""
        return {player: ranks.mask(surviving) for player, ranks in self.ranks.items()}


def _union(masks: Iterable[int]) -> int:
    result = 0
    for mask in masks:
        result |= mask
    return result


def _reached(index: _Index, live: Mapping[str, int]) -> list[_Cell]:
    """The cells every survivor is below, in declaration order.

    Such a cell holds an ancestor of each survivor, so only the cells on
    the root path of one survivor, the first cell player's worst, are
    tested. A survivor off the tree has no ancestors, and no cell is reached.
    """
    positions: set[int] = set()
    if index.cell_list:
        first = index.cell_list[0]
        pool = live[first.player]
        element = first.ranks.outcomes[(pool & -pool).bit_length() - 1]
        while element in index.parent:
            element = index.parent[element][0]
            positions.update(index.cells_at.get(element, ()))
    cells = [index.cell_list[i] for i in sorted(positions)]
    return [cell for cell in cells if not live[cell.player] & ~cell.mask]


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


def reached_infosets(game: Game, surviving: frozenset[str]) -> frozenset[str]:
    """Cells the play is certain to cross: every survivor sits below them."""
    if not surviving:
        raise ValueError("the surviving set must be nonempty")
    index = _Index(game, _walk(game))
    return frozenset(cell.label for cell in _reached(index, index.live(surviving)))


def maximin(game: Game, surviving: frozenset[str], cell: str) -> tuple[Fraction, str]:
    """Best guaranteed payoff for the cell's player, over live actions.

    Only actions whose subtrees still intersect the surviving set count;
    each is valued by its worst surviving payoff. Ties between actions
    break toward the cell's action declaration order.
    """
    index = _Index(game, _walk(game))
    compiled = index.cells[cell]
    worst, action, _ = _maximin(index.live(surviving), compiled)
    return compiled.ranks.values[worst], action


def preempted(game: Game, surviving: frozenset[str], reached: frozenset[str]) -> frozenset[str]:
    """Outcomes paying some player less than a reached-cell guarantee."""
    index = _Index(game, _walk(game))
    cells = [cell for cell in index.cells.values() if cell.label in reached]
    _, by = _step(index, index.live(surviving), cells)
    return frozenset(by)


def solve(game: Game) -> SolveResult:
    """Run the elimination to its fixpoint, keeping every step.

    Eliminations within a step are simultaneous: the step removes the
    union over all players and reached cells. Terminates after at most
    one step per outcome, since every non-final step removes something.
    """
    walk = _walk(game)
    violation = _canonical_violation(game, walk)
    if violation is not None:
        cell, ancestor, node = violation
        raise NotCanonicalError(
            f"information set {cell!r} contains node {node!r} and its ancestor {ancestor!r}; "
            "canonicalize the game first"
        )
    has_ties = game_has_ties(game)
    index = _Index(game, walk)
    live = index.live(game.outcomes)
    surviving = frozenset(game.outcomes)
    steps: list[SolverState] = []
    step = 0
    while surviving:
        cells = _reached(index, live)
        maximins, by = _step(index, live, cells)
        eliminated = frozenset(by)
        reached = frozenset(cell.label for cell in cells)
        steps.append(SolverState(step, surviving, reached, maximins, eliminated, by))
        if not eliminated:
            break
        surviving = surviving - eliminated
        for player, ranks in index.ranks.items():
            live[player] &= ~ranks.mask(eliminated)
        step += 1
    if len(surviving) == 1:
        status = UNIQUE
    elif not surviving:
        status = EMPTY
    else:
        status = MULTIPLE_WITH_TIES
    return SolveResult(fixpoint=surviving, steps=tuple(steps), has_ties=has_ties, status=status)
