"""Extensive-form games with imperfect information.

A game is a finite tree of choice nodes and outcomes. Each choice node
belongs to exactly one information-set cell; all nodes in a cell share a
player and an action set, and a pure strategy picks one action per cell.
Payoffs are exact rationals with ordinal meaning: the solver only ever
compares them, and ties are detected by exact equality.

Everything here is a pure function over an immutable :class:`Game`;
nothing mutates a game after construction, so games can be shared freely
across concurrent solver runs. Ancestry questions are answered from one
preorder walk of the tree, in which every subtree is a range of
positions. The walk, the canonical-form check and the tie flag make one
index, ``Game._tree``, built once per ``Game`` object on first use and
kept with it: validation reads reachability, canonical form and perfect
recall off that walk, and ``solve`` its canonical check and outcome
masks, so a command that validates and then solves walks the tree once.
``canonicalize`` reads its input's index and makes no other; the game it
returns builds its own on first use.

Loading a game costs one pass per layer: the walk visits each element
once and fills every position list as it goes, bar one backward pass for
the subtree ends, and the structural checks read each map of the game in
one loop, looking up each choice node's action set and player once.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from .exact import parse_exact

_GAME_FIELDS = "players actions choice_nodes outcomes action_map player_map successor_map utility_map infosets root"


class Game(namedtuple("Game", _GAME_FIELDS)):
    """The game tuple: players, actions, tree structure, payoffs, cells.

    ``players``, ``actions``, ``choice_nodes`` and ``outcomes`` are tuples
    of ids; ``action_map`` maps a node to its action tuple, ``player_map``
    a node to its player, ``successor_map`` a (node, action) edge to a node
    or outcome and ``utility_map`` a (player, outcome) pair to a Fraction.
    ``successor_map`` is defined exactly on ``(node, a)`` pairs with
    ``a in action_map[node]`` and must be injective (each node or outcome
    has at most one parent edge). ``infosets`` maps a cell label to the
    member nodes, in declaration order; the cells partition the choice
    nodes. ``root`` may be an outcome, in which case the game has no
    decisions at all.

    Tuples and dict insertion orders follow declaration order in the
    source document; all iteration in this package relies on that for
    deterministic output. A game is a named tuple, closed to assignment;
    its only other attribute is the cached tree index, which equality,
    ``repr`` and ``_replace`` ignore.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def utility(self, player: str, outcome: str) -> Fraction:
        return self.utility_map[(player, outcome)]

    def cell_player(self, cell: str) -> str:
        members = self.infosets[cell]
        return self.player_map[members[0]]

    @cached_property
    def _tree(self) -> _Tree:
        """This game's tree index, made on first use and kept with this object only."""
        return _Tree(self)


ValidationIssue = namedtuple("ValidationIssue", "code message ids", defaults=((),))


class ValidationReport(namedtuple("ValidationReport", "errors is_canonical has_perfect_recall has_ties")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.errors


class _Tree:
    """What every layer reads off a game's tree, derived once per ``Game``.

    The tree from the root in preorder, children in action order:
    ``order[i]`` is the element at position ``i``, ``pos`` the inverse, and
    its subtree fills positions ``i`` to ``end[i] - 1``, so ``x`` is a
    strict descendant of ``y`` iff ``pos[y] < pos[x] < end[pos[y]]``.
    ``parent`` maps all but the root to their (node, action) edge, and
    ``up[i]`` is the position of that node (-1 for the root). If the
    successor map is not a tree, the first element reached twice is
    ``revisited``. The first canonical-form ``violation`` is taken when the
    index is made; the tie flag on first use, since ``is_canonical`` and
    ``canonicalize`` never need it. The index keeps the payoff maps it
    reads, not the game, so it makes no reference cycle.

    The walk pushes each child with its edge and its parent's position,
    so ``up`` is filled as elements are placed, and ``end`` takes one
    backward pass: a subtree ends where its last child's subtree ends.
    """

    def __init__(self, game: Game) -> None:
        action_map, successor_map = game.action_map, game.successor_map
        order: list[str] = []
        pos: dict[str, int] = {}
        up: list[int] = []
        parent: dict[str, tuple[str, str]] = {}
        revisited = None
        stack: list[tuple[str, tuple[str, str] | None, int]] = [(game.root, None, -1)]
        while stack:
            element, edge, above = stack.pop()
            if element in pos:
                if revisited is None:
                    revisited = element
                continue
            here = pos[element] = len(order)
            order.append(element)
            up.append(above)
            if edge is not None:
                parent[element] = edge
            actions = action_map.get(element)
            if actions:
                for action in reversed(actions):
                    edge = (element, action)
                    child = successor_map.get(edge)
                    if child is not None:
                        stack.append((child, edge, here))
        end = list(range(1, len(order) + 1))
        for i in range(len(order) - 1, 0, -1):
            above = up[i]
            if end[above] < end[i]:
                end[above] = end[i]
        self.order, self.pos, self.end, self.up, self.parent, self.revisited = order, pos, end, up, parent, revisited
        self.violation = _canonical_violation(game, self)
        self._payoffs = game.players, game.outcomes, game.utility_map

    @cached_property
    def has_ties(self) -> bool:
        players, outcomes, utility_map = self._payoffs
        return any(
            _repeats(utility_map[player, z] for z in outcomes if (player, z) in utility_map) for player in players
        )


def _repeats(values: Iterable[Fraction]) -> bool:
    """True iff two of the exact values are equal."""
    # Fractions are normalized, so equal values have equal parts; an int
    # or a pair hashes far faster than a Fraction.
    seen: set[int | tuple[int, int]] = set()
    for value in values:
        key = value.numerator if value.denominator == 1 else (value.numerator, value.denominator)
        if key in seen:
            return True
        seen.add(key)
    return False


def _structural_issues(game: Game) -> list[ValidationIssue]:
    """Every structural violation, grouped by rule in a fixed order.

    Each map of the game is read in one loop, and each choice node's
    action set and player are looked up once. The edges a node's actions
    lack are found in the node loop but reported after the successor
    map's issues, where their rule stands.
    """
    issues: list[ValidationIssue] = []

    def err(code: str, message: str, ids: Iterable[str] = ()) -> None:
        issues.append(ValidationIssue(code, message, tuple(ids)))

    players, actions, choice_nodes, outcomes = game.players, game.actions, game.choice_nodes, game.outcomes
    action_map, player_map, successor_map, utility_map = (
        game.action_map,
        game.player_map,
        game.successor_map,
        game.utility_map,
    )
    node_set = set(choice_nodes)
    outcome_set = set(outcomes)
    if len(node_set) != len(choice_nodes) or len(outcome_set) != len(outcomes):
        err("DUPLICATE_ID", "duplicate node or outcome identifier")
    overlap = node_set & outcome_set
    if overlap:
        err("DUPLICATE_ID", "identifier used for both a node and an outcome", sorted(overlap))
    elements = node_set | outcome_set
    player_set = set(players)
    action_set = set(actions)
    if len(player_set) != len(players):
        err("DUPLICATE_PLAYER", "duplicate player identifier")
    if len(action_set) != len(actions):
        err("DUPLICATE_ACTION", "duplicate action identifier")

    if game.root not in elements:
        err("UNKNOWN_ROOT", f"root {game.root!r} is not a declared node or outcome", [game.root])

    missing_edges: list[tuple[str, str]] = []
    for node in choice_nodes:
        available = action_map.get(node)
        if available is None:
            err("MISSING_ACTIONS", f"node {node!r} has no action set", [node])
        elif not available:
            err("NO_ACTIONS", f"choice node {node!r} offers no actions", [node])
        else:
            for action in available:
                if (node, action) not in successor_map:
                    missing_edges.append((node, action))
        player = player_map.get(node)
        if player is None:
            err("MISSING_PLAYER", f"node {node!r} has no player", [node])
        elif player not in player_set:
            err("UNKNOWN_PLAYER", f"node {node!r} names unknown player {player!r}", [node])
    for node, available in action_map.items():
        if node not in node_set:
            err("UNKNOWN_NODE", f"action set declared for unknown node {node!r}", [node])
            continue
        for action in available:
            if action not in action_set:
                err("UNKNOWN_ACTION", f"node {node!r} offers undeclared action {action!r}", [node, action])
        if len(set(available)) != len(available):
            err("DUPLICATE_ACTION", f"node {node!r} lists an action twice", [node])
    for node in player_map:
        if node not in node_set:
            err("UNKNOWN_NODE", f"player declared for unknown node {node!r}", [node])

    parent_edge: dict[str, tuple[str, str]] = {}
    for edge, child in successor_map.items():
        node, action = edge
        if node not in node_set:
            err("UNKNOWN_NODE", f"successor declared at unknown node {node!r}", [node])
            continue
        if action not in action_map.get(node, ()):
            err("MOVE_NOT_AVAILABLE", f"successor at {node!r} uses unavailable action {action!r}", edge)
        if child not in elements:
            err("UNKNOWN_TARGET", f"successor of ({node!r}, {action!r}) is unknown: {child!r}", [node, action, child])
            continue
        # Distinct keys are distinct objects: the stored edge is this one iff the child was new.
        other = parent_edge.setdefault(child, edge)
        if other is not edge:
            err("DUPLICATE_SUCCESSOR", f"{child!r} is the successor of both {other!r} and {edge!r}", [child])
    for node, action in missing_edges:
        err("MISSING_SUCCESSOR", f"no successor for action {action!r} at node {node!r}", [node, action])

    # Single root, single connected component.
    if not issues:
        parentless = elements.difference(parent_edge)
        if parentless != {game.root}:
            err(
                "FOREST",
                "the tree must have exactly one root, the declared one",
                sorted(parentless.symmetric_difference({game.root})),
            )
        else:
            unreachable = elements.difference(game._tree.pos)
            if unreachable:
                err("FOREST", "nodes or outcomes unreachable from the root", sorted(unreachable))

    # Information partition.
    assigned: dict[str, str] = {}
    for label, members in game.infosets.items():
        if not members:
            err("EMPTY_INFOSET", f"information set {label!r} has no nodes", [label])
            continue
        cell_players: set[str] = set()
        action_sets: set[tuple[str, ...]] = set()
        for node in members:
            if node not in node_set:
                err("UNKNOWN_NODE", f"information set {label!r} lists unknown node {node!r}", [label, node])
                continue
            previous = assigned.get(node)
            if previous is not None:
                err("PARTITION_OVERLAP", f"node {node!r} is in cells {previous!r} and {label!r}", [node])
            assigned[node] = label
            player = player_map.get(node)
            if player is not None:
                cell_players.add(player)
            available = action_map.get(node)
            if available is not None:
                action_sets.add(available)
        if len(cell_players) > 1:
            err("INFOSET_PLAYER_MIX", f"information set {label!r} mixes players", [label])
        if len({frozenset(available) for available in action_sets}) > 1:
            err("INFOSET_ACTION_MIX", f"information set {label!r} mixes action sets", [label])
    for node in choice_nodes:
        if node not in assigned:
            err("PARTITION_MISSING", f"node {node!r} is in no information set", [node])

    for player in players:
        for outcome in outcomes:
            if (player, outcome) not in utility_map:
                err("MISSING_UTILITY", f"no payoff for player {player!r} at outcome {outcome!r}", [player, outcome])
    for player, outcome in utility_map:
        if player not in player_set or outcome not in outcome_set:
            err("UNKNOWN_UTILITY_KEY", f"payoff declared for unknown ({player!r}, {outcome!r})", [player, outcome])

    return issues


def _canonical_violation(game: Game, tree: _Tree) -> tuple[str, str, str] | None:
    """First (cell, ancestor, descendant) with both ends in one cell.

    The ancestor is the first such node in preorder, the descendant its
    first same-cell descendant in cell order. Sorted by position, a cell
    member has a same-cell descendant iff the next member is in its subtree.
    """
    pos, end = tree.pos, tree.end
    first: tuple[int, str] | None = None
    for label, members in game.infosets.items():
        spots = sorted(pos[node] for node in members if node in pos)
        for here, after in zip(spots, spots[1:]):
            if here < after < end[here]:
                if first is None or here < first[0]:
                    first = (here, label)
                break
    if first is None:
        return None
    here, label = first
    below = next(node for node in game.infosets[label] if here < pos.get(node, -1) < end[here])
    return label, tree.order[here], below


def is_canonical(game: Game) -> bool:
    """True iff no cell contains a node together with a strict descendant."""
    return game._tree.violation is None


def canonicalize(game: Game) -> Game:
    """Prune subtrees that no pure strategy can reach.

    A node in the same cell as one of its ancestors is reached only by
    strategies that have already fixed the cell's action, so it is
    replaced by its child under that action, again while that child's
    cell is fixed, and its other subtrees are dropped; the reachable
    outcome of every pure strategy profile is unchanged. One walk from
    the root does every replacement, carrying the action each cell is
    fixed to on the current path; the game's fields are then filtered by
    the kept elements in declaration order. The cost is linear in the
    size of the game, and the input's index is the only one made. A
    canonical game is returned as it is; a successor map that is not a
    tree raises ValueError.
    """
    tree = game._tree
    if tree.revisited is not None:
        raise ValueError(f"{tree.revisited!r} is reached twice from the root; the game is not a tree")
    if tree.violation is None:
        return game
    cell_of = {node: label for label, members in game.infosets.items() for node in members}
    successors = game.successor_map
    fixed: dict[str, str] = {}
    kept: set[str] = set()
    resolved: dict[tuple[str, str], str] = {}
    # Entries are (node, action, child): entering the edge fixes the node's
    # cell to the action; (node, None, None) frees it after the subtree.
    stack: list[tuple[str, str | None, str | None]] = [(game.root, None, game.root)]
    while stack:
        node, action, element = stack.pop()
        if element is None:
            del fixed[cell_of[node]]
            continue
        if action is not None:
            fixed[cell_of[node]] = action
            while cell_of.get(element) in fixed:
                element = successors[element, fixed[cell_of[element]]]
            resolved[node, action] = element
        kept.add(element)
        actions = game.action_map.get(element)
        if actions:
            stack.append((element, None, None))
            stack.extend((element, a, successors[element, a]) for a in reversed(actions))
    return Game(
        players=game.players,
        actions=game.actions,
        choice_nodes=tuple(n for n in game.choice_nodes if n in kept),
        outcomes=tuple(z for z in game.outcomes if z in kept),
        action_map={n: acts for n, acts in game.action_map.items() if n in kept},
        player_map={n: p for n, p in game.player_map.items() if n in kept},
        successor_map={edge: resolved[edge] for edge in successors if edge[0] in kept},
        utility_map={(p, z): v for (p, z), v in game.utility_map.items() if z in kept},
        infosets={
            label: survivors
            for label, members in game.infosets.items()
            if (survivors := tuple(n for n in members if n in kept))
        },
        root=game.root,
    )


def has_perfect_recall(game: Game) -> bool:
    """True iff no player can tell apart two nodes of one of their cells.

    Two nodes in a cell are indistinguishable to the deciding player only
    if the player went through the same cells taking the same actions on
    both root paths. A player who could have reached the cell with
    different own past moves would be able to distinguish, which is a
    recall failure.
    """
    tree = game._tree
    cell_of = {node: label for label, members in game.infosets.items() for node in members}
    # Each player's experience, the (cell, action) pairs of their own moves
    # on the root path, carried down as an id: equal ids, equal experiences.
    ids: dict[tuple[int, str, str], int] = {}
    experience: dict[str, dict[str, int]] = {game.root: {}}
    for element in tree.order[1:]:
        if element in game.player_map:
            node, action = tree.parent[element]
            player = game.player_map[node]
            mine = ids.setdefault((experience[node].get(player, 0), cell_of[node], action), len(ids) + 1)
            experience[element] = {**experience[node], player: mine}
    # A same-cell ancestor also fails here: the descendant's own experience
    # strictly extends the ancestor's.
    return all(
        len({experience[node].get(game.cell_player(label), 0) for node in members}) == 1
        for label, members in game.infosets.items()
    )


def validate_game(game: Game) -> ValidationReport:
    """Check every structural constraint and report all violations.

    Violations are report entries, never exceptions; the flags
    (canonical form, perfect recall, ties) are computed only when the
    structure is sound enough to make them meaningful. The game's one
    walk from the root serves the reachability check and both flags.
    """
    errors = _structural_issues(game)
    structurally_ok = not errors
    return ValidationReport(
        errors=tuple(errors),
        is_canonical=structurally_ok and game._tree.violation is None,
        has_perfect_recall=structurally_ok and has_perfect_recall(game),
        has_ties=game._tree.has_ties,
    )


def embed_normal_form(
    matrix: Mapping[tuple[str, ...], Sequence[object]],
    players: Sequence[str],
    action_lists: Sequence[Sequence[str]],
) -> Game:
    """Express a normal-form game as an extensive-form game.

    Players move in the given order, each seeing nothing of the earlier
    moves: player k has a single information-set cell containing every
    node at depth k. Node ids are comma-joined move prefixes (the root is
    ``""``), outcome ids are comma-joined full profiles, and payoff
    vectors follow the order of ``players``. The result is canonical and
    has perfect recall.
    """
    if not players:
        raise ValueError("at least one player is required")
    if len(set(players)) != len(players):
        raise ValueError("duplicate player identifier")
    if len(action_lists) != len(players):
        raise ValueError("need exactly one action list per player")
    for player, acts in zip(players, action_lists):
        if not acts:
            raise ValueError(f"player {player!r} has an empty action list")
        if len(set(acts)) != len(acts):
            raise ValueError(f"player {player!r} lists an action twice")

    profiles: list[tuple[str, ...]] = [()]
    for acts in action_lists:
        profiles = [p + (a,) for p in profiles for a in acts]
    profile_set = set(profiles)
    for profile in profiles:
        if profile not in matrix:
            raise ValueError(f"matrix is missing profile {profile!r}")
    for profile in matrix:
        if tuple(profile) not in profile_set:
            raise ValueError(f"matrix has unknown profile {profile!r}")

    actions: list[str] = []
    for acts in action_lists:
        for a in acts:
            if a not in actions:
                actions.append(a)

    choice_nodes: list[str] = []
    action_map: dict[str, tuple[str, ...]] = {}
    player_map: dict[str, str] = {}
    successor_map: dict[tuple[str, str], str] = {}
    infosets: dict[str, tuple[str, ...]] = {}
    depth = len(players)
    prefixes: list[tuple[str, ...]] = [()]
    for k, player in enumerate(players):
        cell_nodes = []
        next_prefixes = []
        for prefix in prefixes:
            node = ",".join(prefix)
            choice_nodes.append(node)
            cell_nodes.append(node)
            action_map[node] = tuple(action_lists[k])
            player_map[node] = player
            for a in action_lists[k]:
                extended = prefix + (a,)
                successor_map[(node, a)] = ",".join(extended)
                next_prefixes.append(extended)
        infosets[player] = tuple(cell_nodes)
        prefixes = next_prefixes

    outcomes = tuple(",".join(p) for p in profiles)
    utility_map: dict[tuple[str, str], Fraction] = {}
    for profile in profiles:
        payoffs = matrix[profile]
        if len(payoffs) != depth:
            raise ValueError(f"profile {profile!r} has {len(payoffs)} payoffs, expected {depth}")
        outcome = ",".join(profile)
        for player, value in zip(players, payoffs):
            utility_map[(player, outcome)] = parse_exact(value, f"payoff for {player!r} at {outcome!r}")

    return Game(
        players=tuple(players),
        actions=tuple(actions),
        choice_nodes=tuple(choice_nodes),
        outcomes=outcomes,
        action_map=action_map,
        player_map=player_map,
        successor_map=successor_map,
        utility_map=utility_map,
        infosets=infosets,
        root="",
    )
