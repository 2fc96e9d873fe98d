"""Classical post-processing: parity reconciliation and hash compression.

Reconciliation is the interactive block-parity protocol: pass 1 splits the
key into blocks of about 1.5/QBER bits, later passes shuffle with a fresh
ledgered permutation and double the block length, and every mismatched
block is binary-searched at a cost of one disclosed parity per halving.
Fixing a bit flips the parity of the blocks that contain it in every other
pass, which re-queues them; those follow-up searches are what lets one
disclosed error correct several. Both parties remember every parity already
exchanged, so a re-searched block only pays for segments never disclosed
before. Bob's parity of a segment differs from Alice's exactly when the
segment holds an odd number of his errors. The simulator holds both keys,
so each pass keeps the sorted ranks of Bob's remaining errors in its order:
a comparison is two bisections and a fix deletes one rank per pass.

The leak is the GF(2) rank of the disclosed parity vectors, not their
count. Parities are linear in the key, so the eavesdropper learns exactly
their span: a parity that is a sum of earlier ones tells nothing new. Each
pass's top-level parities, for instance, sum to the whole-key parity, so
every pass after the first discloses at least one dependent parity. A
linear map of rank r takes at most 2^r values, so H_min(X|E,C) >=
H_min(X|E) - r: charging the rank is sound, and it never charges more than
counting parities would, since r is at most their number. The rank is
taken once reconciliation ends, from the points where each pass was cut
(_leak_rank). A spanning forest over the atoms of the first two passes
counts their rank, and the later passes' atoms add the rank of the cycles'
residuals. That rank is certified, not eliminated in full: the residuals
of a sample of up to four positions per later atom bound it from below, the
count of later atoms less one per later pass bounds it from above, and
when the two differ every residual is checked at once against the kernel
of the sample, which decides it exactly (LaMacchia & Odlyzko, 1990, on
eliminating only what sparse structure leaves). The first-block
factor 1.5 replaces the original protocol's 0.73 (see Martinez-Mateo et
al., arXiv:1407.3257, on Cascade's leak and block schedule). On synthetic
keys (scripts/cascade_schedule.py, seeds apart from every test's), among
factors 0.73-2.2, its mean rank relative to L·h(QBER) is the lowest on
600- and 1000-bit keys at QBER 0.05 and 0.10, and averaged over 4704- to
20000-bit keys at QBER 0.02-0.15 it is within 0.002 of the lowest (1.8's).
Larger first blocks leave more short keys with errors after the four
passes: of 800 such keys, 1.5 leaves 11 with errors, 1.8 16 and 0.73 one.

Compression multiplies the reconciled key by a random Toeplitz matrix: a
(key + output - 1)-bit seed defines rows that slide along it one bit at a
time. Output length is the key length minus everything an eavesdropper
may know: disclosed parities, the attack-model information estimate, and
a safety margin. All output bits come from one float64 FFT convolution of
the seed with the reversed key, in O(L log L) (Tang et al. 2019 do the
same at scale; Hayashi & Tsurumaru, arXiv:1311.5322, on Toeplitz
hashing). The transform size is the smallest 2^a 3^b 5^c at or above the
seed length, since wrap-around lands only outside the output window. Each
window sum is an integer of at most L, and the float64 error stays many
orders below 1/2 (about 1e-10 at L = 10^6), so rounding recovers it
exactly; a residual of 0.25 or more raises instead of returning a key.

Every random draw (permutations, hash seed) is charged to the session
ledger, continued through the report's live source.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .infotheory import RateReport
from .protocol import SessionReport
from .randomness import BitSource

CASCADE_PASSES = 4
CASCADE_BLOCK_FACTOR = 1.5
QBER_FLOOR = 0.01
MIN_KEY_LENGTH = 64
DEFAULT_SAFETY_MARGIN = 32


@dataclass(frozen=True)
class ReconciliationResult:
    """corrected_key is Bob's key after correction; disclosed_parities is
    the number of linearly independent parities disclosed (the GF(2) rank
    of their index vectors), which is what the eavesdropper learns;
    residual_mismatches counts remaining disagreements with Alice
    (knowable here because the simulator holds both keys; a deployment
    would exchange a hash)."""

    corrected_key: np.ndarray
    disclosed_parities: int
    passes: int
    residual_mismatches: int


@dataclass(frozen=True)
class AmplificationResult:
    final_key: np.ndarray
    input_length: int
    output_length: int
    seed_bits_consumed: int


@dataclass(frozen=True)
class PipelineResult:
    """Final key plus the stage results and the reason the run ended.

    reason is 'ok' for a nonempty key, else one of 'not_distillable',
    'qber_too_high', 'key_too_short', 'reconciliation_failed',
    'key_exhausted'.
    """

    final_key: np.ndarray
    reconciliation: ReconciliationResult | None
    amplification: AmplificationResult | None
    eve_info_bits: float
    reason: str
    # wall seconds per stage; informational, never serialized
    timings: dict[str, float] = field(default_factory=dict, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.reason == "ok"


class ParitySpan:
    """Incremental GF(2) echelon basis of parity vectors packed into ints.

    Each basis vector is stored under its leading bit, and no two share
    one. add() cancels the new vector's leading bit against the basis
    vector stored there until the leading bit is free (independent: the
    vector joins the basis) or nothing is left (dependent: it is a sum of
    earlier vectors).
    """

    def __init__(self) -> None:
        self._basis: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._basis)

    def add(self, vector: int) -> bool:
        """Reduce `vector` against the basis; True if it was independent."""
        while vector:
            lead = vector.bit_length() - 1
            pivot = self._basis.get(lead)
            if pivot is None:
                self._basis[lead] = vector
                return True
            vector ^= pivot
        return False

    def kernel(self, width: int) -> list[int]:
        """A basis of the vectors of `width` bits orthogonal to every vector
        added: one for each bit that leads no basis vector, set there and
        then, leading bit by leading bit upward, wherever a basis vector's
        product with it is odd. A basis vector has no bit above its lead, so
        fixing its product never disturbs the ones below."""
        leads = sorted(self._basis)
        out = []
        for free in range(width):
            if free in self._basis:
                continue
            y = 1 << free
            # a basis vector led below `free` has no bit where y has one
            for lead in leads[bisect_left(leads, free) :]:
                if (self._basis[lead] & y).bit_count() & 1:
                    y |= 1 << lead
            out.append(y)
        return out


class _Forest:
    """A spanning forest of the graph whose nodes are the atoms of passes 0
    and 1 and whose edges are the key positions, edge i joining the two
    atoms that hold position i.

    orders[0] is the identity, so pass-0 atom u is the run of positions
    starts0[u] onward, and pass-1 atom v the run of orders[1] from its first
    position first[v]. The runs give most of the forest without a search:
    - every pass-1 atom v hangs from the pass-0 atom holding first[v];
    - through it, every position i is a path from atom0[i] to the pass-0
      atom holding first[atom1[i]], its partner;
    - every pass-0 atom u hangs from the partner of starts0[u], except the
      smallest atom on each cycle of that map, which is a root.
    Hooking rounds then join the trees left over along the positions whose
    ends still lie in two trees. Each round hangs every root with such a
    position under the root at its other end, smaller or larger in
    alternate rounds; pointer jumping flattens the trees after each round.

    `tree` lists the positions of the tree edges; potentials() replays the
    same steps on a word per tree edge.
    """

    def __init__(
        self, atom0: np.ndarray, atom1: np.ndarray, first: np.ndarray, starts0: np.ndarray
    ) -> None:
        nodes = len(starts0)
        self.atom0, self.atom1, self.first = atom0, atom1, first
        partner = atom0.take(first.take(atom1))
        # the map u -> partner[starts0[u]]: after 2^m >= nodes doublings
        # `ahead` reaches u's cycle and `low` holds the smallest of the 2^m
        # atoms from u on, so low[ahead[u]] is the smallest atom on the cycle
        hang = partner.take(starts0)
        atoms = np.arange(nodes)
        low, ahead, span = atoms, hang, 1
        while span < nodes:
            low = np.minimum(low, low.take(ahead))
            ahead = ahead.take(ahead)
            span *= 2
        is_root = low.take(ahead) == atoms
        self.up = [np.where(is_root, atoms, hang)]
        while True:
            up = self.up[-1].take(self.up[-1])
            if np.array_equal(up, self.up[-1]):
                break
            self.up.append(up)
        self.hangs = np.flatnonzero(~is_root)
        self.root = self.up[-1].copy()
        self.rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]] = []
        live = np.flatnonzero(self.root.take(atom0) != self.root.take(partner))
        hooks = self._hook(live, partner.take(live))
        self.tree = np.concatenate([first, starts0.take(self.hangs), *hooks])
        self.joins = len(self.tree)

    def _hook(self, edges: np.ndarray, far: np.ndarray) -> list[np.ndarray]:
        """Hooking rounds over pass-0 edges (atom0[edges], far); returns the
        positions that joined two trees, round by round."""
        near, root, upward, joined = self.atom0.take(edges), self.root, True, []
        while len(edges):
            rn, rf = root.take(near), root.take(far)
            live = rn != rf
            if not live.all():
                edges, near, far, rn, rf = (
                    a.compress(live) for a in (edges, near, far, rn, rf)
                )
                if not len(edges):
                    break
            flip = (rf < rn) if upward else (rf > rn)  # the far root hangs
            upward = not upward
            child = np.where(flip, rf, rn)
            pick = np.full(len(root), -1)
            pick[child] = np.arange(len(edges))  # one edge per hanging root
            pick = pick.compress(pick >= 0)
            flip, child, near_p, far_p = (a.take(pick) for a in (flip, child, near, far))
            root[child] = np.where(flip, rn.take(pick), rf.take(pick))
            jumps = []
            while True:
                up = root.take(root)
                if np.array_equal(up, root):
                    break
                jumps.append(root)
                root = up
            hung, other = np.where(flip, far_p, near_p), np.where(flip, near_p, far_p)
            self.rounds.append((child, hung, other, jumps))
            joined.append(edges.take(pick))
        self.root = root
        return joined

    def potentials(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each atom's potential, the XOR of the labels on its tree path to
        its root, for labels[j] (a row of uint64 words) on edge tree[j]: the
        pass-0 atoms' and the pass-1 atoms'."""
        first = labels[: len(self.first)]
        # a pass-0 edge i runs atom0[i] -> pass-1 atom -> partner: its label
        # is that of i XOR that of the pass-1 atom's first position
        pass1 = self.atom1.take(self.tree[len(self.first) :])
        step = labels[len(self.first) :] ^ first.take(pass1, axis=0)
        pot = np.zeros((len(self.up[0]),) + labels.shape[1:], dtype=np.uint64)
        pot[self.hangs] = step[: len(self.hangs)]
        for up in self.up:
            pot ^= pot.take(up, axis=0)
        edge = len(self.hangs)
        for child, near, far, jumps in self.rounds:
            joining = step[edge : edge + len(child)]
            pot[child] = pot.take(near, axis=0) ^ pot.take(far, axis=0) ^ joining
            edge += len(child)
            for root in jumps:
                pot ^= pot.take(root, axis=0)
        return pot, pot.take(self.atom0.take(self.first), axis=0) ^ first


_LABEL_WORDS = 8  # label columns per forest replay, in 64-bit words


def _label_words(later: list[np.ndarray], at: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Words lo .. hi-1 of each position's label: bit j is set when later
    atom j holds the position at[x]."""
    out = np.zeros((len(at), hi - lo + 1), dtype=np.uint64)
    rows = np.arange(len(at))
    for atom in later:
        j = atom.take(at)
        word = np.clip((j >> 6) - lo, -1, hi - lo)  # other words land in column -1 or hi - lo
        out[rows, word] ^= np.uint64(1) << (j & 63).astype(np.uint64)
    return out[:, : hi - lo]


def _residuals(forest: _Forest, later: list[np.ndarray], at: np.ndarray, width: int) -> np.ndarray:
    """Each position's residual row, its label XOR both ends' potentials,
    as words, _LABEL_WORDS at a time."""
    words = -(-width // 64)
    out = np.empty((len(at), words), dtype=np.uint64)
    for lo in range(0, words, _LABEL_WORDS):
        hi = min(lo + _LABEL_WORDS, words)
        pot0, pot1 = forest.potentials(_label_words(later, forest.tree, lo, hi))
        out[:, lo:hi] = (
            _label_words(later, at, lo, hi)
            ^ pot0.take(forest.atom0.take(at), axis=0)
            ^ pot1.take(forest.atom1.take(at), axis=0)
        )
    return out


def _products(
    forest: _Forest, later: list[np.ndarray], kernel: list[int], width: int
) -> np.ndarray:
    """For up to 64 vectors y over the later atoms, every position's
    residual row times each y: bit k of word i is the parity of y_k on the
    cycle that position i closes (zero on tree edges)."""
    size = width // 8 + 1
    packed = np.frombuffer(b"".join(y.to_bytes(size, "little") for y in kernel), np.uint8)
    bits = np.unpackbits(packed.reshape(len(kernel), size), axis=1, bitorder="little")[:, :width]
    # word j: bit k is bit j of kernel[k]
    by_bit = np.zeros((width, 8), dtype=np.uint8)
    by_bit[:, : -(-len(kernel) // 8)] = np.packbits(bits.T, axis=1, bitorder="little")
    words = by_bit.view(np.uint64).ravel()
    label = words.take(later[0])
    for atom in later[1:]:
        label ^= words.take(atom)
    pot0, pot1 = forest.potentials(label.take(forest.tree))
    return label ^ pot0.take(forest.atom0) ^ pot1.take(forest.atom1)


def _independent(products: np.ndarray, most: int) -> list[int]:
    """Up to `most` positions whose product words are independent: the first
    position of each distinct nonzero word, in position order, kept when its
    word is independent of those kept before. Their residual rows are
    independent of the sample's and of each other, since any sum of them
    fails some kernel vector."""
    fails = np.flatnonzero(products)
    _, first = np.unique(products.take(fails), return_index=True)
    fails = fails.take(np.sort(first))
    seen, picked = ParitySpan(), []
    for i, word in zip(fails.tolist(), products.take(fails).tolist()):
        if len(picked) == most:
            break
        if seen.add(word):
            picked.append(i)
    return picked


def _leak_rank(orders: list[np.ndarray], cuts: np.ndarray) -> int:
    """GF(2) rank of the parities cascade disclosed, computed without n-bit
    vectors. Row p of cuts flags the points 0 .. n of orders[p] where pass
    p's disclosed segments start or stop, 0 and n among them; orders[0] is
    the identity: pass 0 reads the key in place.

    A pass's parities span exactly its atoms' indicator vectors, the runs
    between its consecutive cut points (see cascade). Every position lies
    in one atom per pass, so the rank is that of the atoms-by-positions
    incidence matrix.

    Passes 0 and 1 hold most atoms. Their atoms are the nodes of a graph
    whose edges are the positions (_Forest), each labelled with the later
    atoms that contain it. The edges that join two trees count the rank of
    passes 0 and 1 alone. An edge's residual, its label XOR both ends'
    potentials, is the XOR of the labels around the cycle it closes, and a
    set y of later atoms lies in the span of passes 0 and 1 exactly when
    every residual is even on y. So the later atoms add R, the rank of the
    residual rows, and R <= c - (passes - 2) for c later atoms: each later
    pass's atoms sum to the whole key, which pass 0 already spans.

    R is certified rather than eliminated in full:
    - The residual rows of a sample, the positions off the tree among the
      first two and last two of each later atom, give a lower bound:
      their rank. When it meets the upper bound, it is R.
    - Otherwise every vector y in the kernel of the sample is checked
      against every residual row at once, 64 vectors per word: R y is the
      edge's label times y XOR both ends' potentials of the labels times y.
      The kernel of all rows is the part of the sample's kernel that every
      row passes, so R is the sample's rank plus the rank of those
      products over the sample's kernel (_independent picks rows whose
      products are a basis of them). With more than 64 kernel vectors,
      the rows picked by the first word of them that any row fails join
      the sample, each raising its rank, and the check runs again.
    Memory stays O(n): labels are replayed on the forest a few words at a
    time, and only the sample's rows are ever built.
    """
    n = len(orders[0])
    starts = [np.flatnonzero(row[:n]) for row in cuts]
    atom_at = [np.repeat(np.arange(len(s)), np.diff(s, append=n)) for s in starts]
    if len(orders) == 1:
        return len(starts[0])
    order1 = np.asarray(orders[1], dtype=np.intp)
    atom1 = np.empty(n, dtype=np.intp)
    atom1[order1] = atom_at[1]
    forest = _Forest(atom_at[0], atom1, order1.take(starts[1]), starts[0])
    if len(orders) == 2:
        return forest.joins
    later, heads, tails, seconds, penultimates, width = [], [], [], [], [], 0
    # the last pass's atoms, the longest, cross the most cycles: they take the
    # low bits, which elimination (cancelling the leading bit) meets last
    for p in range(len(orders) - 1, 1, -1):
        order = np.asarray(orders[p], dtype=np.intp)
        atom = np.empty(n, dtype=np.intp)
        atom[order] = atom_at[p] + width
        later.append(atom)
        width += len(starts[p])
        ends = np.append(starts[p][1:], n) - 1
        heads.append(order.take(starts[p]))
        tails.append(order.take(ends))
        seconds.append(order.take(np.minimum(starts[p] + 1, ends)))
        penultimates.append(order.take(np.maximum(ends - 1, starts[p])))
    top = width - (len(orders) - 2)
    on_tree = np.zeros(n, dtype=bool)
    on_tree[forest.tree] = True
    sample = np.concatenate(heads + tails + seconds + penultimates)
    sample = sample.compress(~on_tree.take(sample))
    rows = _residuals(forest, later, sample, width)
    span, refill = ParitySpan(), False
    while True:
        before = span.rank
        for row in rows:
            span.add(int.from_bytes(row.tobytes(), "little"))
            if span.rank == top:
                return forest.joins + top
        # the picked rows are independent of the sample and of each other
        if refill and span.rank < before + len(rows):
            raise ArithmeticError("rows picked by the sample's kernel lie in its span")
        kernel = span.kernel(width)
        for k in range(0, len(kernel), 64):
            chunk = kernel[k : k + 64]
            most = min(len(chunk), top - span.rank)  # no higher: the pass sums stay in the kernel
            picked = _independent(_products(forest, later, chunk, width), most)
            if len(chunk) == len(kernel) or span.rank + len(picked) == top:
                return forest.joins + span.rank + len(picked)
            if picked:
                break
        else:
            return forest.joins + span.rank
        rows, refill = _residuals(forest, later, np.array(picked, dtype=np.intp), width), True


def cascade(
    alice_key: np.ndarray,
    bob_key: np.ndarray,
    qber_estimate: float,
    source: BitSource,
    block_factor: float = CASCADE_BLOCK_FACTOR,
) -> ReconciliationResult:
    """Correct bob_key toward alice_key, counting the independent parities
    it discloses.

    Estimates below 0.01 are floored (a zero estimate would ask for
    unbounded blocks); estimates at or above 0.5 are outside the protocol's
    working range and rejected. Pass-1 blocks hold round(block_factor/qber)
    bits, clamped to [4, key length]; each later pass applies a fresh
    ledgered permutation and doubles the block length.
    """
    alice = np.asarray(alice_key, dtype=np.uint8)
    bob = np.asarray(bob_key, dtype=np.uint8)
    n = len(alice)
    if n != len(bob):
        raise ValueError("keys must have equal length")
    if n < MIN_KEY_LENGTH:
        raise ValueError(f"reconciliation needs at least {MIN_KEY_LENGTH} bits")
    q = max(float(qber_estimate), QBER_FLOOR)
    if q >= 0.5:
        raise ValueError("QBER estimate must be below 0.5")
    first_block = min(max(round(block_factor / q), 4), n)

    # Pass p reads the key in orders[p], ranks[p][i] being position i's
    # index there, and cuts it into blocks of sizes[p]. errors[p] holds the
    # sorted ranks in pass p of Bob's remaining errors.
    orders: list[np.ndarray] = []
    ranks: list[np.ndarray] = []
    sizes: list[int] = []
    errors: list[list[int]] = []
    queue: list[tuple[int, int]] = []
    # cuts[p, s] is set when a disclosed segment of pass p starts or stops
    # at s; both parties remember it, so each cut point past 0 is one parity.
    # A segment starts at a point already cut (a block start or an earlier
    # halving point), so a pass's parities span exactly its atoms, the runs
    # between its consecutive cut points (_leak_rank).
    cuts = np.zeros((CASCADE_PASSES, n + 1), dtype=np.uint8)

    def odd(p: int, b: int) -> bool:
        """Whether block b of pass p holds an odd number of Bob's errors."""
        found = errors[p]
        return (bisect_left(found, (b + 1) * sizes[p]) - bisect_left(found, b * sizes[p])) & 1 == 1

    def search(p: int, b: int) -> int:
        # Binary search over a block with an odd number of errors: disclose
        # the left half's parity and recurse into the half holding an odd
        # number of errors. The right half never needs disclosure (parent
        # XOR left), so a fresh segment costs exactly one parity per
        # halving step. errors[p][first:last] are the errors in [lo, hi).
        found = errors[p]
        lo = b * sizes[p]
        hi = min(lo + sizes[p], n)
        first, last = bisect_left(found, lo), bisect_left(found, hi)
        while hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2
            cuts[p, mid] = 1
            split = bisect_left(found, mid, first, last)
            if (split - first) & 1:
                hi, last = mid, split
            else:
                lo, first = mid, split
        return int(orders[p][lo])

    def drain() -> None:
        while queue:
            p, b = queue.pop()
            if not odd(p, b):
                continue
            error = search(p, b)
            # fixing it leaves the block holding it in every pass one error
            # short, which re-queues that block when that leaves it odd
            for p2, rank in enumerate(ranks):
                rank = int(rank[error])
                del errors[p2][bisect_left(errors[p2], rank)]
                if odd(p2, rank // sizes[p2]):
                    queue.append((p2, rank // sizes[p2]))

    for p in range(CASCADE_PASSES):
        order = source.shuffled("shared", "ec_permutation", n) if p else np.arange(n)
        rank = np.empty(n, dtype=np.int32)
        rank[order] = np.arange(n, dtype=np.int32)
        size = min(first_block << p, n)
        orders.append(order)
        ranks.append(rank)
        sizes.append(size)
        wrong = np.sort(rank.take(errors[0] if p else np.flatnonzero(alice != bob)))
        errors.append(wrong.tolist())
        # each block's top-level parity is disclosed here, once
        cuts[p, ::size] = 1
        cuts[p, n] = 1
        queue.extend((p, b) for b in np.flatnonzero(np.bincount(wrong // size) & 1).tolist())
        drain()

    # Bob's key as corrected: Alice's with his remaining errors flipped
    corrected = alice.copy()
    corrected[np.array(errors[0], dtype=np.intp)] ^= 1
    return ReconciliationResult(
        corrected_key=corrected,
        disclosed_parities=_leak_rank(orders, cuts),
        passes=CASCADE_PASSES,
        residual_mismatches=len(errors[0]),
    )


def _fast_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c at or above n >= 1: a size the FFT factors
    into radix-2, -3 and -5 steps."""
    best = 1 << (n - 1).bit_length()
    odd = 1  # each 3^b 5^c below best, times the least power of two that reaches n
    while odd < best:
        part = odd
        while part < best:
            best = min(best, part << (-(-n // part) - 1).bit_length())
            part *= 3
        odd *= 5
    return best


def _window_sums(seed: np.ndarray, key: np.ndarray) -> np.ndarray:
    """sum(key AND seed[j : j + len(key)]) for j = 0 .. len(seed) - len(key).

    A float64 real FFT convolution of the seed with the reversed key, on
    the smallest 5-smooth size >= len(seed) (_fast_length): wrap-around adds
    only to outputs below len(key) - 1 or past len(seed) - 1, outside the
    window read here. Each sum is an integer of at most len(key); a
    residual of 0.25 from rint would mean rounding may have picked the
    wrong one, so it raises.
    """
    length = len(key)
    size = _fast_length(len(seed))
    spectrum = np.fft.rfft(seed, size) * np.fft.rfft(key[::-1], size)
    sums = np.fft.irfft(spectrum, size)[length - 1 : len(seed)]
    rounded = np.rint(sums)
    if np.any(np.abs(sums - rounded) >= 0.25):
        raise ArithmeticError("FFT window sums are not within 0.25 of integers")
    return rounded.astype(np.int64)


def toeplitz_pa(
    key: np.ndarray,
    leaked_bits: int,
    eve_info_bits: float,
    safety_margin: int,
    source: BitSource,
) -> AmplificationResult:
    """Compress `key` with a seeded Toeplitz hash.

    Output length is max(0, len - leaked_bits - ceil(eve_info_bits) -
    safety_margin). The (len + output - 1)-bit seed is charged to pa_seed;
    output bit j is the parity of key AND seed[j : j + len], taken from
    FFT window sums that are rounded exactly or raise (_window_sums). A
    zero-length output applies no hash and draws no seed. A negative leak,
    credit or margin would lengthen the key past its budget and is
    rejected.
    """
    key = np.asarray(key, dtype=np.uint8)
    length = len(key)
    if length == 0:
        raise ValueError("key must be nonempty")
    if leaked_bits < 0 or eve_info_bits < 0 or safety_margin < 0:
        raise ValueError("leaked_bits, eve_info_bits and safety_margin must be >= 0")
    out_len = max(0, length - int(leaked_bits) - math.ceil(eve_info_bits) - int(safety_margin))
    seed_bits = length + out_len - 1 if out_len else 0
    final = np.zeros(0, dtype=np.uint8)
    if out_len:
        seed = source.draw_bits("shared", "pa_seed", seed_bits)
        final = (_window_sums(seed, key) & 1).astype(np.uint8)
    return AmplificationResult(
        final_key=final,
        input_length=length,
        output_length=out_len,
        seed_bits_consumed=seed_bits,
    )


def pipeline(
    report: SessionReport,
    rates: RateReport,
    safety_margin: int = DEFAULT_SAFETY_MARGIN,
) -> PipelineResult:
    """Estimation disclosures out, reconciliation, then compression.

    Eve's credited information is min(i_ea, i_eb) bits per sifted symbol
    times the undisclosed key length. The final key is nonempty only when
    the rate report says a key is distillable, the session disclosed an
    estimation sample, reconciliation ends with zero residual mismatches,
    and the length budget stays positive.
    """
    if safety_margin < 0:
        raise ValueError("safety_margin must be >= 0")
    if report.sifted_bits == 0:
        raise ValueError("session produced an empty sifted key")
    empty = np.zeros(0, dtype=np.uint8)
    disclosed = np.asarray(report.disclosed_indices, dtype=np.int64)
    alice = np.delete(report.alice_key, disclosed)
    bob = np.delete(report.bob_key, disclosed)
    eve_info = min(rates.i_ea, rates.i_eb) * len(alice)
    if not rates.distillable:
        return PipelineResult(empty, None, None, eve_info, "not_distillable")
    if max(report.qber_estimated, QBER_FLOOR) >= 0.5:
        return PipelineResult(empty, None, None, eve_info, "qber_too_high")
    if len(alice) < MIN_KEY_LENGTH or not len(disclosed):  # no sample, no estimate
        return PipelineResult(empty, None, None, eve_info, "key_too_short")
    started = time.perf_counter()
    rec = cascade(alice, bob, report.qber_estimated, report.source)
    cascade_time = time.perf_counter() - started
    if rec.residual_mismatches:
        return PipelineResult(
            empty, rec, None, eve_info, "reconciliation_failed",
            timings={"cascade": cascade_time},
        )
    started = time.perf_counter()
    amp = toeplitz_pa(
        rec.corrected_key, rec.disclosed_parities, eve_info, safety_margin, report.source
    )
    timings = {"cascade": cascade_time, "toeplitz_pa": time.perf_counter() - started}
    reason = "ok" if amp.output_length else "key_exhausted"
    return PipelineResult(amp.final_key, rec, amp, eve_info, reason, timings=timings)
