"""Chain-intersection searches for transversals and direct middles.

Everything here runs over one partition of G per subgroup pair: the blocks
H*x*K, built once by products._coset_blocks.  Right cosets are the case
K = {1}: rta and the right-transversal enumeration pass the trivial
subgroup as K.
A search keeps a candidate set, starts it from a seed, repeatedly removes
the block of the element just chosen, and picks the next element from what
is left.  The candidate chain C^(-1) ⊇ C^(0) ⊇ ... is recorded in the trace;
the run ends when the chain hits the empty set.

- rta:  seed G, blocks H*g*{1} = H*g          -> right transversal of H
- mta:  seed G, blocks H*g*K                  -> middle transversal
- msfa: seed Mid(H, K), blocks H*g*K          -> maximal direct middle X

The seed comes from the same walk (_seed_and_blocks): x lies in the middle
director Mid exactly when |H*x*K| = |H||K|, so _coset_blocks returns Mid,
the union of the blocks of that size, with the partition, and
products.mid_director reads it off the same walk.

A finished msfa run covers Mid but not necessarily G; the extension runs the
same chain from the uncovered remainder and grows X to a middle transversal
(at the price of directness).  AlgoTrace.validate() reruns the search with
the recorded picks as its script, compares the runs and returns the blocks
the rerun built; the extension validates the msfa trace it is given and
continues over those blocks.  The exhaustive enumerations need no search: a
pick removes its whole block, so the outputs are the sets taking one element
from each block inside the seed, the Cartesian product of those cells, built
as int masks by _enumerate.  The enumerate_all_* functions return them as a
set of ElementSets, or with as_masks=True as an iterator of rows: lists of
about ROW masks, multiplied out as they are read, whose concatenation lists
the masks in _enumerate's order, the order in which the oracle's all_*
functions list theirs.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import config
from .errors import (
    EnumerationLimitExceeded,
    G0NotInMid,
    GroupKitError,
    InvalidSpec,
    MidEmpty,
    ScriptedChoiceInvalid,
    TraceMismatch,
    quote,
)
from .groups import ElementSet, Group, _is_int, _mask_of, bit_indices
from .products import _coset_blocks, _subgroup_pair

# the searches read Mid off the blocks and call no Mid kernel, but this name
# stays importable from here: perfbench/tracing.py wraps it by name
from .products import mid_director_subgroups  # noqa: F401

__all__ = [
    "ChoicePolicy",
    "SMALLEST",
    "AlgoTrace",
    "rta",
    "mta",
    "msfa",
    "extend_to_middle_transversal",
    "enumerate_all_right_transversals",
    "enumerate_all_middle_transversals",
    "enumerate_all_middle_subfactors",
]


class ChoicePolicy:
    """How the next element is picked from the current candidate set.

    - smallest: always the least index (deterministic default)
    - random:   uniform pick seeded by seed, an int that describe() records
    - script:   a fixed sequence of element indices; each must be available
                at its step, and leftovers are simply unused
    """

    __slots__ = ("mode", "seed", "script")

    def __init__(
        self, mode: str = "smallest", seed: int | None = None,
        script: list[int] | tuple[int, ...] | None = None,
    ) -> None:
        if mode not in ("smallest", "random", "script"):
            raise InvalidSpec(
                f"choice policy {quote(mode)} not understood; use smallest, random or script"
            )
        if mode == "random" and not _is_int(seed):
            raise InvalidSpec(f"choice policy random needs an integer seed, got {quote(seed)}")
        if script is not None and not isinstance(script, (list, tuple)):
            raise InvalidSpec(f"choice policy script needs a list of picks, got {quote(script)}")
        self.mode, self.seed = mode, seed
        self.script = None if script is None else tuple(script)

    @classmethod
    def smallest(cls) -> "ChoicePolicy":
        return cls("smallest")

    @classmethod
    def random(cls, seed: int) -> "ChoicePolicy":
        return cls("random", seed=seed)

    @classmethod
    def scripted(cls, picks: list[int] | tuple[int, ...]) -> "ChoicePolicy":
        return cls("script", script=picks)

    def describe(self) -> str:
        if self.mode == "random":
            return f"random:{self.seed}"
        if self.mode == "script":
            return "script:" + ",".join(str(p) for p in self.script or ())
        return "smallest"

    def start(self) -> "_Chooser":
        """A picker at the start of this policy's sequence of picks."""
        return _Chooser(self)


SMALLEST = ChoicePolicy.smallest()


class _Chooser:
    """Stateful picker for one or more chained runs.  It can stand where a
    ChoicePolicy is taken: start() returns the picker itself, so a second
    run continues its picks where the first left off."""

    def __init__(self, policy: ChoicePolicy) -> None:
        self.policy = policy
        self._rng = None
        if policy.mode == "random":
            import random  # loaded only for the policies that use it
            self._rng = random.Random(policy.seed)
        self._script = list(policy.script or ())
        self._pos = 0

    def start(self) -> "_Chooser":
        return self

    def pick(self, group: Group, mask: int) -> int:
        """An element of the nonempty candidate mask."""
        mode = self.policy.mode
        if mode == "smallest":
            return (mask & -mask).bit_length() - 1
        if mode == "random":
            options = list(bit_indices(mask))
            return self._rng.choice(options)
        if self._pos >= len(self._script):
            raise ScriptedChoiceInvalid(
                f"script exhausted after {self._pos} picks but another choice is needed"
            )
        choice = self._script[self._pos]
        self._pos += 1
        valid = group._is_index(choice)
        if not valid or mask >> choice & 1 == 0:
            raise ScriptedChoiceInvalid(
                f"scripted pick {quote(choice)} ({group.names[choice] if valid else '?'}) "
                f"is not in the candidate set at step {self._pos - 1}"
            )
        return choice


class AlgoTrace:
    """Complete record of one chain-intersection run: its picks and its
    candidate chain, from which everything else is read off.

    k is the trivial subgroup {1} for rta.  chosen holds g_0..g_N; chain
    holds the candidate masks C^(-1)..C^(N), the last one 0.  For extension
    runs chain covers only the continuation part, starting from what the
    inherited picks leave uncovered, so chain is shorter than chosen and
    extension_start is the index of the last inherited pick.
    """

    __slots__ = ("algorithm", "h", "k", "chosen", "chain", "policy")

    def __init__(
        self,
        algorithm: str,
        h: ElementSet,
        k: ElementSet,
        chosen: list[int],
        chain: list[int],
        policy: str = "smallest",
    ) -> None:
        self.algorithm, self.h, self.k = algorithm, h, k
        self.chosen, self.chain, self.policy = chosen, chain, policy

    @property
    def group(self) -> Group:
        return self.h.group

    @property
    def extension_start(self) -> int | None:
        start = len(self.chosen) - len(self.chain)
        return start if start >= 0 else None

    @property
    def seed(self) -> ElementSet:
        """The starting candidate set C^(-1)."""
        return self.group.subset_from_mask(self.chain[0])

    @property
    def chain_sizes(self) -> list[int]:
        return [m.bit_count() for m in self.chain]

    @property
    def chain_sets(self) -> list[ElementSet]:
        return [self.group.subset_from_mask(m) for m in self.chain]

    @property
    def output(self) -> ElementSet:
        return self.group.subset_from_mask(_mask_of(self.chosen))

    @property
    def n_steps(self) -> int:
        return len(self.chosen) - 1

    def validate(self) -> list[int]:
        """Rerun the search with g_0 as its first pick and the other recorded
        picks as its script; an extension reruns its msfa part from Mid and
        continues from what that leaves uncovered.  Raises TraceMismatch
        when the rerun fails or differs from the recorded run; otherwise
        returns the (H, K) partition the rerun rebuilt, the mask of the
        block of each element, as _coset_blocks gives it.  A trace of no
        search, or an RTA trace whose K is not {1}, is refused first."""
        if self.algorithm not in ("RTA", "MTA", "MSFA", "Extension"):
            raise TraceMismatch(f"no search is called {quote(self.algorithm)}")
        if self.algorithm == "RTA" and self.k != self.group.trivial_subgroup():
            raise TraceMismatch(f"an RTA trace has K = {{1}}, not {self.k.shown()}")
        # with no picks the rerun asks the empty script for g_0, and fails
        g0, *script = self.chosen or [None]
        chooser = ChoicePolicy.scripted(script).start()
        extension = self.algorithm == "Extension"
        try:
            rerun, blocks = _search(
                "MSFA" if extension else self.algorithm, self.h, self.k, g0, chooser
            )
            if extension:
                rerun = _extend(rerun, blocks, chooser)
        except GroupKitError as exc:
            raise TraceMismatch(f"the recorded picks do not rerun: {exc}") from None
        recorded = (self.algorithm, self.chosen, self.chain)
        if (rerun.algorithm, rerun.chosen, rerun.chain) != recorded:
            raise TraceMismatch("the rerun differs from the recorded trace")
        return blocks


def _seed_and_blocks(h: ElementSet, k: ElementSet, mid: bool) -> tuple[int, list[int]]:
    """Check the pair, build its blocks once, and return the seed mask with
    them: G, or when mid the middle director that the same walk reads off
    the blocks; raises MidEmpty when it is empty."""
    g = _subgroup_pair(h, k)
    blocks, mid_mask = _coset_blocks(h, k)
    if mid and not mid_mask:
        raise MidEmpty(
            f"the middle director of H={h.shown()} and K={k.shown()} is empty; "
            "no direct middle exists"
        )
    return (mid_mask if mid else g.full_mask), blocks


def _run_chain(
    algorithm: str,
    h: ElementSet,
    k: ElementSet,
    blocks: list[int],
    c: int,
    chosen: list[int],
    pick: int,
    chooser: _Chooser,
) -> AlgoTrace:
    """Starting from the candidate mask c, append pick to chosen, remove its
    block from the candidates, and let the chooser pick again until no
    candidate is left."""
    chain = [c]
    while True:
        chosen.append(pick)
        c &= ~blocks[pick]
        chain.append(c)
        if c == 0:
            break
        pick = chooser.pick(h.group, c)
    return AlgoTrace(algorithm, h, k, chosen, chain, chooser.policy.describe())


def _search(
    algorithm: str,
    h: ElementSet,
    k: ElementSet,
    g0: int | None,
    chooser: _Chooser,
) -> tuple[AlgoTrace, list[int]]:
    """The run and the blocks it ran over."""
    seed, blocks = _seed_and_blocks(h, k, algorithm == "MSFA")
    g = h.group
    if g0 is None:
        g0 = chooser.pick(g, seed)
    elif seed >> g._check_index(g0) & 1 == 0:
        raise G0NotInMid(f"g0={g.names[g0]!r} lies outside the middle director")
    return _run_chain(algorithm, h, k, blocks, seed, [], g0, chooser), blocks


def rta(h: ElementSet, g0: int | None = None, policy: ChoicePolicy = SMALLEST) -> AlgoTrace:
    """Right-transversal search for a subgroup H: the K = {1} case."""
    return _search("RTA", h, h.group.trivial_subgroup(), g0, policy.start())[0]


def mta(
    h: ElementSet, k: ElementSet, g0: int | None = None, policy: ChoicePolicy = SMALLEST
) -> AlgoTrace:
    """Middle-transversal search for a subgroup pair (H, K)."""
    return _search("MTA", h, k, g0, policy.start())[0]


def msfa(
    h: ElementSet,
    k: ElementSet,
    g0: int | None = None,
    policy: ChoicePolicy | _Chooser = SMALLEST,
) -> AlgoTrace:
    """Maximal-direct-middle search, seeded with the middle director.  A
    started policy (policy.start()) as policy keeps its picks going, so
    that an extension passed the same one continues them."""
    return _search("MSFA", h, k, g0, policy.start())[0]


def extend_to_middle_transversal(
    trace: AlgoTrace, policy: ChoicePolicy | _Chooser = SMALLEST
) -> AlgoTrace:
    """Continue a finished msfa run, over its own H and K, until X covers
    the whole group.

    Returns the input trace unchanged when it already covers G.  The result
    is a middle transversal containing the msfa output; the added picks lie
    outside the middle director, so directness is given up.  A started
    policy continues from the picks it has already made.  The trace is
    validated first, and the extension continues over the partition that
    its rerun has rebuilt.
    """
    if trace.algorithm != "MSFA":
        raise TraceMismatch(f"expected an MSFA trace, got {trace.algorithm}")
    return _extend(trace, trace.validate(), policy.start())


def _extend(trace: AlgoTrace, blocks: list[int], chooser: _Chooser) -> AlgoTrace:
    """extend_to_middle_transversal for an msfa trace known to be valid,
    over the blocks of its (H, K)."""
    g, h, k = trace.group, trace.h, trace.k
    uncovered = g.full_mask
    for pick in trace.chosen:
        uncovered &= ~blocks[pick]
    if uncovered == 0:
        return trace
    pick = chooser.pick(g, uncovered)
    return _run_chain("Extension", h, k, blocks, uncovered, list(trace.chosen), pick, chooser)


# -- exhaustive enumeration ---------------------------------------------------


# masks per row of an enumeration's output: rows near this size keep the
# per-row cost small beside the ORs; a row holds at most max(ROW, the right
# half's product) masks, as it takes whole right halves
ROW = 4096


def _enumerate(seed_mask: int, blocks: list[int], limit: int | None) -> Iterator[list[int]]:
    """The mask of every output of the chain search started on seed_mask,
    each once, as rows of masks.

    A pick removes its whole block, so the outputs are exactly the sets
    that take one element from each cell (a block cut down to the seed):
    the Cartesian product of the cells.  One walk over the cells counts
    that product and checks it against the cap before any mask is built;
    the size-1 cells are ORed into one base mask.  The larger cells are
    split into two halves: the first half multiplies out from the base and
    the second from 0, each cell multiplying the half's list of partial
    masks by its elements, and the answers are every left mask ORed with
    every right one, left slowest.  That is the list a one-cell-at-a-time
    product gives, in its order, with one OR per answer instead of one per
    answer and cell.  The halves are built here; the answers are built a
    row at a time as the returned iterator is read, each row every right
    mask ORed onto a run of max(1, ROW // len(right)) left masks.  Every
    mask lies inside the seed, so no range check is needed.
    """
    cap = config.enum_cap(limit)
    base = 0
    cells: list[int] = []
    total = 1
    c = seed_mask
    while c:
        cell = c & blocks[(c & -c).bit_length() - 1]
        c &= ~cell
        if cell & (cell - 1):
            cells.append(cell)
            total *= cell.bit_count()
        else:
            base |= cell
    if total > cap:
        raise EnumerationLimitExceeded(
            f"{total} results exceed the cap of {cap}; raise the limit to continue"
        )
    half = len(cells) // 2
    return _rows(_products(base, cells[:half]), _products(0, cells[half:]))


def _products(base: int, cells: list[int]) -> list[int]:
    """base ORed with one element of each cell, every way, first cell
    slowest."""
    out = [base]
    for cell in cells:
        bits = [1 << i for i in bit_indices(cell)]
        out = [m | b for m in out for b in bits]
    return out


def _rows(left: list[int], right: list[int]) -> Iterator[list[int]]:
    """Every left mask ORed with every right one, left slowest, in rows."""
    step = max(1, ROW // len(right))
    for i in range(0, len(left), step):
        yield [m | b for m in left[i:i + step] for b in right]


def enumerate_all_right_transversals(
    h: ElementSet, *, limit: int | None = None, as_masks: bool = False
) -> set[ElementSet] | Iterator[list[int]]:
    """Every right transversal of H: the middle transversals of (H, {1}).
    With as_masks, the rows of their int masks, in the order
    enumerate_all_middle_transversals gives."""
    return enumerate_all_middle_transversals(
        h, h.group.trivial_subgroup(), limit=limit, as_masks=as_masks
    )


def enumerate_all_middle_transversals(
    h: ElementSet, k: ElementSet, *, limit: int | None = None, as_masks: bool = False
) -> set[ElementSet] | Iterator[list[int]]:
    """Every middle transversal of (H, K).  With as_masks, the rows of their
    int masks in _enumerate's order."""
    rows = _enumerate(*_seed_and_blocks(h, k, False), limit)
    return rows if as_masks else {ElementSet._from_mask(h.group, m) for row in rows for m in row}


def enumerate_all_middle_subfactors(
    h: ElementSet, k: ElementSet, *, limit: int | None = None, as_masks: bool = False
) -> set[ElementSet] | Iterator[list[int]]:
    """Every maximal direct middle X for (H, K); raises MidEmpty when none
    exist.  With as_masks, the rows of their int masks in _enumerate's
    order."""
    rows = _enumerate(*_seed_and_blocks(h, k, True), limit)
    return rows if as_masks else {ElementSet._from_mask(h.group, m) for row in rows for m in row}
