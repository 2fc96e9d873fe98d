import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockqkd import postprocess
from blockqkd.attacks import BlockAttackSpec
from blockqkd.infotheory import RateReport
from blockqkd.postprocess import (
    CASCADE_PASSES,
    DEFAULT_SAFETY_MARGIN,
    MIN_KEY_LENGTH,
    ParitySpan,
    _fast_length,
    _leak_rank,
    _window_sums,
    cascade,
    pipeline,
    toeplitz_pa,
)
from blockqkd.protocol import (
    ProtocolConfig,
    SessionReport,
    empirical_rates,
    run_session,
)
from blockqkd.randomness import BitSource
from cascade_reference import cascade_reference
from rank_reference import leak_rank_reference, upper_bound


# --- reconciliation -----------------------------------------------------------


def test_identical_keys_one_parity_per_block_per_pass():
    # n=64, q=0.02, factor 0.73: round(0.73/0.02) = round(36.5) = 36 under
    # banker's rounding, so pass 1 holds blocks [36, 28]; passes 2-4 are
    # single 64-bit blocks. Identical keys disclose exactly one parity per
    # block, 2+1+1+1 in all, but each later whole-key parity is the sum of
    # the two pass-1 parities: the leak is their rank, 2.
    key = np.zeros(64, dtype=np.uint8)
    result = cascade(key, key.copy(), 0.02, BitSource(900), block_factor=0.73)
    assert result.disclosed_parities == 2
    assert result.residual_mismatches == 0
    assert np.array_equal(result.corrected_key, key)


def test_single_error_costs_one_search():
    # Error at 0 sits in the 36-bit block: binary search discloses
    # ceil(log2 36) = 6 parities, the prefixes [0, 18), [0, 9), [0, 5),
    # [0, 3), [0, 2), [0, 1). With the two pass-1 block parities these are
    # intervals with distinct right ends, so independent; the three later
    # whole-key parities are sums of the pass-1 pair. Rank 2 + 6.
    alice = np.zeros(64, dtype=np.uint8)
    bob = alice.copy()
    bob[0] = 1
    result = cascade(alice, bob, 0.02, BitSource(900), block_factor=0.73)
    assert result.disclosed_parities == 2 + 6 == 8
    assert result.residual_mismatches == 0
    assert np.array_equal(result.corrected_key, alice)


def test_single_error_search_depth_bounds():
    # Depending on which halves the error lands in, the search takes
    # ceil(log2 s) or one fewer disclosures: 5-6 for the 36-block,
    # 4-5 for the 28-block. Each search parity is a left half of the
    # current range, so the block is never the union of disclosed halves
    # (the last range's other half stays undisclosed): all are independent
    # of each other and of the two pass-1 block parities, while the three
    # later whole-key parities are dependent. Rank = 2 + searches.
    for idx in range(64):
        alice = np.zeros(64, dtype=np.uint8)
        bob = alice.copy()
        bob[idx] = 1
        result = cascade(alice, bob, 0.02, BitSource(900), block_factor=0.73)
        searches = result.disclosed_parities - 2
        expected = (5, 6) if idx < 36 else (4, 5)
        assert searches in expected, f"idx={idx} searches={searches}"
        assert result.residual_mismatches == 0


def test_cascade_validation():
    key64 = np.zeros(64, dtype=np.uint8)
    with pytest.raises(ValueError):
        cascade(key64, np.zeros(63, dtype=np.uint8), 0.05, BitSource(0))
    with pytest.raises(ValueError):
        cascade(np.zeros(32, np.uint8), np.zeros(32, np.uint8), 0.05, BitSource(0))
    with pytest.raises(ValueError):
        cascade(key64, key64.copy(), 0.5, BitSource(0))


def test_cascade_corrects_random_errors():
    zero_residual = 0
    for trial in range(10):
        rng = np.random.default_rng(1000 + trial)
        alice = rng.integers(0, 2, 10_000).astype(np.uint8)
        mask = rng.random(10_000) < 0.05
        bob = (alice ^ mask).astype(np.uint8)
        result = cascade(alice, bob, 0.05, BitSource(2000 + trial))
        if result.residual_mismatches == 0:
            zero_residual += 1
            assert np.array_equal(result.corrected_key, alice)
    assert zero_residual >= 9


def test_cascade_charges_permutations():
    source = BitSource(905)
    key = np.zeros(128, dtype=np.uint8)
    cascade(key, key.copy(), 0.05, source)
    assert source.ledger.get("shared", "ec_permutation") > 0
    assert source.ledger.get("shared", "pa_seed") == 0


def test_cascade_estimate_floor_and_clamp():
    # floored estimate: q=0 acts as q=0.01 -> blocks of min(73, 64) = 64,
    # one block per pass; all four are the whole-key parity, rank 1
    key = np.zeros(64, dtype=np.uint8)
    result = cascade(key, key.copy(), 0.0, BitSource(906), block_factor=0.73)
    assert result.disclosed_parities == 1
    # high estimate: round(0.73/0.4) = 2 clamps the first block to 4 bits:
    # 16 blocks in pass 1, then 8, 4, 2, 30 parities. Each later pass
    # partitions the key, so its blocks sum to the whole-key parity already
    # spanned by pass 1: one dependency per later pass, and this seed's
    # permutations line up no other union of blocks. Rank 30 - 3.
    result = cascade(key, key.copy(), 0.4, BitSource(907), block_factor=0.73)
    assert result.disclosed_parities == 16 + 8 + 4 + 2 - 3 == 27


@given(
    st.integers(min_value=MIN_KEY_LENGTH, max_value=5000),
    st.floats(min_value=0.01, max_value=0.2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(MIN_KEY_LENGTH, 0.2, 0)
@example(5000, 0.01, 1)
@example(5000, 0.2, 2)
# estimates of 0.3-0.45: 8, 2 and 2 errors are left after the four passes
@example(MIN_KEY_LENGTH, 0.35, 1)
@example(MIN_KEY_LENGTH, 0.45, 0)
@example(200, 0.3, 7)
# at most 149 bits at 0.01: the first block, round(1.5 / 0.01), and so every
# block is the whole key; of 2 and 3 errors, 2 are left
@example(100, 0.01, 1)
@example(149, 0.01, 2)
# estimates far from the true rate: 6 errors in 64 bits (all left) and 27 in
# 1000 against an estimate of 0.01, one error in 64 bits against 0.2
@example(MIN_KEY_LENGTH, 0.01, 17116)
@example(1000, 0.01, 94574)
@example(MIN_KEY_LENGTH, 0.2, 48727)
@settings(max_examples=100, deadline=None)
def test_cascade_matches_reference(length, qber, seed):
    # error lists and ledgered shuffles against the per-query reference:
    # same corrections, the same cut points, the same leak (against the
    # reference's column elimination), ledger and generator state
    rng = np.random.default_rng(seed)
    alice = rng.integers(0, 2, length).astype(np.uint8)
    bob = alice ^ (rng.random(length) < qber).astype(np.uint8)
    source, twin = BitSource(seed), BitSource(seed)
    calls = []

    def recording(orders, cuts):
        calls.append((orders, cuts))
        return _leak_rank(orders, cuts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(postprocess, "_leak_rank", recording)
        result = cascade(alice, bob, qber, source)
    expected, told = cascade_reference(alice, bob, qber, twin)
    assert np.array_equal(result.corrected_key, expected.corrected_key)
    assert result.disclosed_parities == expected.disclosed_parities
    assert result.residual_mismatches == expected.residual_mismatches
    [(orders, cuts)] = calls
    assert np.array_equal(cuts, _cut_rows(orders, told))
    assert source.ledger.counts == twin.ledger.counts
    assert source._rng.getstate() == twin._rng.getstate()


# --- leak rank -------------------------------------------------------------------


def _dense_rank(rows: np.ndarray) -> int:
    """Plain Gaussian elimination over GF(2) on a dense 0/1 matrix."""
    m = np.array(rows, dtype=np.uint8).reshape(len(rows), -1)
    rank = 0
    for col in range(m.shape[1]):
        hits = np.flatnonzero(m[rank:, col])
        if len(hits) == 0:
            continue
        pivot = rank + hits[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        others = m[:, col].astype(bool)
        others[rank] = False
        m[others] ^= m[rank]
        rank += 1
        if rank == len(m):
            break
    return rank


def _as_int(row: np.ndarray) -> int:
    return int("".join(map(str, row)) or "0", 2)


@st.composite
def _planted_matrices(draw):
    width = draw(st.integers(min_value=1, max_value=40))
    bits = st.lists(st.integers(0, 1), min_size=width, max_size=width)
    base = draw(st.lists(bits, min_size=1, max_size=12))
    # each planted row is the XOR of a nonempty subset of the base rows
    subsets = draw(
        st.lists(st.sets(st.integers(0, len(base) - 1), min_size=1), max_size=12)
    )
    rows = [np.array(row, dtype=np.uint8) for row in base]
    rows += [np.bitwise_xor.reduce([rows[i] for i in sorted(sub)]) for sub in subsets]
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order]), len(base)


@given(_planted_matrices())
@settings(max_examples=200, deadline=None)
def test_parity_span_rank_matches_dense_elimination(case):
    rows, num_base = case
    span = ParitySpan()
    independent = sum(span.add(_as_int(row)) for row in rows)
    assert independent == span.rank == _dense_rank(rows)
    assert span.rank <= min(len(rows), num_base)
    # every row is now in the span: adding any again changes nothing
    assert not any(span.add(_as_int(row)) for row in rows)


@given(_planted_matrices())
@settings(max_examples=200, deadline=None)
def test_parity_span_kernel_is_the_orthogonal_complement(case):
    rows, _ = case
    width = rows.shape[1]
    span = ParitySpan()
    for row in rows:
        span.add(_as_int(row))
    kernel = span.kernel(width)
    assert len(kernel) == width - span.rank
    # each kernel vector is even on every row, and they are independent
    for y in kernel:
        assert y < 1 << width
        assert all((_as_int(row) & y).bit_count() % 2 == 0 for row in rows)
    independent = ParitySpan()
    assert all(independent.add(y) for y in kernel)


@st.composite
def _segment_families(draw, min_n=4, max_n=40, passes=None, small_blocks=False):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    passes = passes or draw(st.integers(min_value=1, max_value=4))
    orders = [np.arange(n)]
    orders += [np.array(draw(st.permutations(range(n)))) for _ in range(passes - 1)]
    segments = set()
    sizes = st.integers(min_value=1, max_value=n)
    if small_blocks:
        # blocks of a few bits leave the graph of passes 0 and 1 in many
        # components; larger ones join it into one
        sizes = st.integers(min_value=1, max_value=4) | sizes
    for p in range(passes):
        size = draw(sizes)
        cuts = sorted({*range(0, n, size), n})
        segments.update((p, a, b) for a, b in zip(cuts, cuts[1:]))
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            # like a search step, a segment starts at a point already cut;
            # one that also ends at a cut point is planted as dependent
            a = draw(st.sampled_from(cuts))
            b = draw(st.integers(min_value=0, max_value=n).filter(lambda b: b != a))
            segments.add((p, min(a, b), max(a, b)))
            cuts = sorted({*cuts, b})
    return orders, sorted(segments)


def _cut_rows(orders, segments) -> np.ndarray:
    """The cut rows `_leak_rank` reads: row p flags 0 and each start and
    stop of a segment of pass p."""
    cuts = np.zeros((len(orders), len(orders[0]) + 1), dtype=np.uint8)
    for p, start, stop in segments:
        cuts[p, [start, stop]] = 1
    cuts[:, 0] = 1
    return cuts


def _atom_segments(cuts) -> list[tuple[int, int, int]]:
    """(p, a, b) for each pair of consecutive cut points a < b of pass p:
    pass p's atoms, which span what its disclosed segments span."""
    out = []
    for p, row in enumerate(cuts):
        points = np.flatnonzero(row).tolist()
        out += [(p, a, b) for a, b in zip(points, points[1:])]
    return out


def _segment_rows(orders, segments) -> np.ndarray:
    rows = np.zeros((len(segments), len(orders[0])), dtype=np.uint8)
    for row, (p, start, stop) in zip(rows, segments):
        row[orders[p][start:stop]] = 1
    return rows


@given(
    _segment_families()
    | _segment_families(min_n=200, max_n=400, passes=4, small_blocks=True)
)
@settings(max_examples=200, deadline=None)
def test_leak_rank_matches_dense_elimination(family):
    orders, segments = family
    rank = _leak_rank(orders, _cut_rows(orders, segments))
    assert rank == _dense_rank(_segment_rows(orders, segments))
    assert rank <= len(segments)


def test_cascade_leak_is_rank_of_disclosed_parities(monkeypatch):
    # Record where cascade cut each pass, then check the reported leak
    # against a dense elimination of the parity vectors of its atoms and of
    # the segments the per-query reference disclosed on the same keys.
    calls = []

    def recording(orders, cuts):
        calls.append((orders, cuts))
        return _leak_rank(orders, cuts)

    monkeypatch.setattr(postprocess, "_leak_rank", recording)
    for trial in range(3):
        rng = np.random.default_rng(3100 + trial)
        alice = rng.integers(0, 2, 600).astype(np.uint8)
        bob = (alice ^ (rng.random(600) < 0.1)).astype(np.uint8)
        result = cascade(alice, bob, 0.1, BitSource(3200 + trial))
        assert result.residual_mismatches == 0
        orders, cuts = calls[-1]
        rows = _segment_rows(orders, _atom_segments(cuts))
        assert result.disclosed_parities == _dense_rank(rows)
        _, told = cascade_reference(alice, bob, 0.1, BitSource(3200 + trial))
        assert result.disclosed_parities == _dense_rank(_segment_rows(orders, told))
        # each cut point past 0 is one disclosed parity, and each later
        # pass's top-level parities sum to the whole-key parity
        disclosed = int(cuts.sum()) - CASCADE_PASSES
        assert len(told) == disclosed
        assert disclosed - result.disclosed_parities >= CASCADE_PASSES - 1


def _disclosed(length, qber, seed):
    """cascade's pass orders, the atoms its cut points define and its
    reported leak on a fixed synthetic key pair with independent flips at
    rate qber."""
    rng = np.random.default_rng(seed)
    alice = rng.integers(0, 2, length).astype(np.uint8)
    bob = alice ^ (rng.random(length) < qber).astype(np.uint8)
    calls = []

    def recording(orders, cuts):
        calls.append((orders, _atom_segments(cuts)))
        return _leak_rank(orders, cuts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(postprocess, "_leak_rank", recording)
        result = cascade(alice, bob, qber, BitSource(seed))
    orders, segments = calls[-1]
    return orders, segments, result.disclosed_parities


@pytest.mark.parametrize(
    "length, qber, seed", [(2000, 0.05, 0), (4000, 0.03, 6), (8000, 0.02, 27), (60000, 0.02, 0)]
)
def test_leak_rank_below_its_upper_bound_matches_reference(length, qber, seed):
    # these keys' parities fall short of joins + c - (passes - 2), so the
    # sample's rank cannot meet the bound and the kernel check decides
    orders, segments, reported = _disclosed(length, qber, seed)
    bound, _ = upper_bound(orders, segments)
    expected = leak_rank_reference(orders, segments)
    assert expected < bound
    assert reported == _leak_rank(orders, _cut_rows(orders, segments)) == expected


def test_leak_rank_matches_reference_on_a_disconnected_graph():
    # at QBER 0.1 many bits are isolated in both passes 0 and 1, and the
    # graph of their atoms falls apart into dozens of components
    orders, segments, reported = _disclosed(6000, 0.1, 5)
    bound, components = upper_bound(orders, segments)
    expected = leak_rank_reference(orders, segments)
    assert components > 1
    assert expected < bound
    assert reported == expected


def _sampled_on_the_forest(seed, n=480):
    """Passes 0 and 1 cut into atoms of 4; every atom of passes 2 and 3
    spans 8 steps that start and end with two positions on the spanning
    forest of passes 0 and 1 (read off a two-pass rank), so the positions
    `_leak_rank` samples first are nearly all on the forest."""
    rng = np.random.default_rng(seed)
    orders = [np.arange(n), rng.permutation(n)]
    segments = [(p, a, a + 4) for p in (0, 1) for a in range(0, n, 4)]
    forests = []

    class Recording(postprocess._Forest):
        def __init__(self, *args):
            super().__init__(*args)
            forests.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(postprocess, "_Forest", Recording)
        _leak_rank(orders, _cut_rows(orders, segments))
    on_tree = np.zeros(n, dtype=bool)
    on_tree[forests[0].tree] = True
    tree, free = np.flatnonzero(on_tree), np.flatnonzero(~on_tree)
    for p in (2, 3):
        tree, free = rng.permutation(tree), rng.permutation(free)
        atoms = min(len(tree), len(free)) // 4
        order = []
        for a in range(atoms):
            t, f = tree[4 * a : 4 * a + 4], free[4 * a : 4 * a + 4]
            order += [t[0], t[1], *f, t[2], t[3]]
        order += list(rng.permutation(np.setdiff1d(np.arange(n), order)))
        orders.append(np.array(order))
        cuts = [*range(0, 8 * atoms, 8), n]
        segments += [(p, a, b) for a, b in zip(cuts, cuts[1:])]
    return orders, sorted(set(segments))


@pytest.mark.parametrize("seed", [0, 1])
def test_leak_rank_refills_a_short_sample(seed, monkeypatch):
    # the first sample leaves more than 64 kernel vectors, so rows that fail
    # them are added and the sample is eliminated again
    orders, segments = _sampled_on_the_forest(seed)
    batches = []
    residuals = postprocess._residuals

    def counting(*args):
        batches.append(args[2])
        return residuals(*args)

    monkeypatch.setattr(postprocess, "_residuals", counting)
    rank = _leak_rank(orders, _cut_rows(orders, segments))
    assert len(batches) > 1
    assert rank == leak_rank_reference(orders, segments)
    assert rank == _dense_rank(_segment_rows(orders, segments))

# --- privacy amplification -----------------------------------------------------


def test_toeplitz_nothing_removed_keeps_length():
    source = BitSource(55)
    key = BitSource(77).draw_bits("alice", "alice_bits", 100)
    amp = toeplitz_pa(key, 0, 0.0, 0, source)
    assert amp.output_length == 100
    assert amp.seed_bits_consumed == 199
    assert source.ledger.get("shared", "pa_seed") == 199


def test_toeplitz_exhausted_budget_is_empty():
    source = BitSource(56)
    key = np.ones(50, dtype=np.uint8)
    amp = toeplitz_pa(key, 40, 5.0, 10, source)
    assert amp.output_length == 0
    assert len(amp.final_key) == 0
    assert amp.seed_bits_consumed == 0
    assert source.ledger.total() == 0


def test_toeplitz_zero_key_hashes_to_zero():
    source = BitSource(57)
    amp = toeplitz_pa(np.zeros(80, dtype=np.uint8), 10, 0.0, 10, source)
    assert amp.output_length == 60
    assert not amp.final_key.any()


def test_toeplitz_unit_vector_reads_seed():
    # Hashing e_j returns the seed window starting at j: output bit i is
    # the parity of seed[i : i+len] AND e_j, i.e. seed[i + j].
    source = BitSource(55)
    key = np.zeros(100, dtype=np.uint8)
    key[7] = 1
    amp = toeplitz_pa(key, 10, 0.0, 20, source)
    assert amp.output_length == 70
    seed = BitSource(55).draw_bits("shared", "pa_seed", amp.seed_bits_consumed)
    assert np.array_equal(amp.final_key, seed[7 : 7 + 70])


def test_toeplitz_is_linear():
    rng = np.random.default_rng(58)
    k1 = rng.integers(0, 2, 90).astype(np.uint8)
    k2 = rng.integers(0, 2, 90).astype(np.uint8)
    out1 = toeplitz_pa(k1, 20, 0.0, 10, BitSource(59)).final_key
    out2 = toeplitz_pa(k2, 20, 0.0, 10, BitSource(59)).final_key
    out12 = toeplitz_pa(k1 ^ k2, 20, 0.0, 10, BitSource(59)).final_key
    assert np.array_equal(out12, out1 ^ out2)


def test_toeplitz_rounds_eve_info_up():
    source = BitSource(60)
    key = np.zeros(100, dtype=np.uint8)
    amp = toeplitz_pa(key, 0, 0.1, 0, source)
    assert amp.output_length == 99


def test_toeplitz_rejects_empty_key():
    with pytest.raises(ValueError):
        toeplitz_pa(np.zeros(0, dtype=np.uint8), 0, 0.0, 0, BitSource(61))


@pytest.mark.parametrize("leaked, eve_info, margin", [(-1, 0.0, 0), (0, -1.0, 0), (0, 0.0, -1)])
def test_toeplitz_rejects_negative_budget_terms(leaked, eve_info, margin):
    # a negative term would lengthen the key past its budget
    with pytest.raises(ValueError):
        toeplitz_pa(np.zeros(100, dtype=np.uint8), leaked, eve_info, margin, BitSource(62))


def _correlate_reference(key, leaked_bits, source):
    """The direct O(L·out) hash: parity of key AND seed[j : j + L]."""
    out_len = len(key) - leaked_bits
    seed = source.draw_bits("shared", "pa_seed", len(key) + out_len - 1)
    sums = np.correlate(seed.astype(np.int64), key.astype(np.int64), mode="valid")
    return (sums & 1).astype(np.uint8)


@given(
    st.integers(min_value=1, max_value=3000),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(1, 1.0, 0.5, 0)  # one bit in, one bit out
@example(2, 0.0, 1.0, 1)  # one output bit from an all-ones key
@example(1024, 1.0, 0.5, 2)  # a 1024-bit seed: the transform has no slack
@example(513, 0.001, 0.5, 3)  # 513 + 512 - 1 = 1024 seed bits
@example(3000, 0.0, 0.5, 4)  # no leak: the output is as long as the key
@settings(max_examples=150, deadline=None)
def test_toeplitz_matches_correlate_reference(length, leak_share, density, key_seed):
    leaked = round(leak_share * (length - 1))
    rng = np.random.default_rng(key_seed)
    key = (rng.random(length) < density).astype(np.uint8)
    source, twin = BitSource(key_seed), BitSource(key_seed)
    amp = toeplitz_pa(key, leaked, 0.0, 0, source)
    expected = _correlate_reference(key, leaked, twin)
    assert np.array_equal(amp.final_key, expected)
    assert amp.output_length == length - leaked
    assert source.ledger.get("shared", "pa_seed") == twin.ledger.get("shared", "pa_seed")
    assert source.ledger.get("shared", "pa_seed") == amp.seed_bits_consumed


def test_window_sums_exact_at_largest_magnitude():
    # all ones: every window sums to L, the largest value the FFT must round
    length = 999_999
    sums = _window_sums(np.ones(2 * length - 1, dtype=np.uint8), np.ones(length, dtype=np.uint8))
    assert len(sums) == length
    assert (sums == length).all()
    assert ((sums & 1) == (length & 1)).all()


def test_toeplitz_million_bit_key_matches_int_parity():
    length, leaked = 1_000_000, 400_000
    key = BitSource(63).draw_bits("alice", "alice_bits", length)
    amp = toeplitz_pa(key, leaked, 0.0, 0, BitSource(64))
    out = amp.output_length
    assert out == length - leaked
    seed = BitSource(64).draw_bits("shared", "pa_seed", amp.seed_bits_consumed)
    key_int = int("".join(map(str, key.tolist())), 2)
    seed_int = int("".join(map(str, seed.tolist())), 2)
    mask = (1 << length) - 1
    picks = {0, out - 1} | set(random.Random(65).sample(range(out), 64))
    for j in sorted(picks):
        window = (seed_int >> (len(seed) - j - length)) & mask
        assert amp.final_key[j] == (key_int & window).bit_count() & 1, j


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_fast_length_is_the_next_5_smooth_number():
    # brute force, downward: the answer at n is n when n is 5-smooth, else
    # the answer at n + 1
    top = 20_000
    above = top + 1
    while not _is_5_smooth(above):
        above += 1
    for n in range(top, 0, -1):
        above = n if _is_5_smooth(n) else above
        assert _fast_length(n) == above, n
    for n in range(2**20 - 2, 2**20 + 3):
        m = n
        while not _is_5_smooth(m):
            m += 1
        assert _fast_length(n) == m, n
    assert _fast_length(2**20 + 1) == 2**5 * 3**8 * 5 == 1_049_760


@pytest.mark.parametrize("k", range(2, 17))
def test_window_sums_after_a_power_of_two(k):
    # a seed of 2^k + 1 bits: the power-of-two transform would take 2^(k+1)
    # points, the 5-smooth one about half as many
    length = 2 ** (k - 1) + 1
    rng = np.random.default_rng(k)
    seed = rng.integers(0, 2, 2**k + 1).astype(np.uint8)
    key = rng.integers(0, 2, length).astype(np.uint8)
    sums = _window_sums(seed, key)
    size = 2 ** (k + 1)
    spectrum = np.fft.rfft(seed, size) * np.fft.rfft(key[::-1], size)
    expected = np.rint(np.fft.irfft(spectrum, size)[length - 1 : len(seed)])
    assert np.array_equal(sums, expected)
    key_int = int("".join(map(str, key.tolist())), 2)
    seed_int = int("".join(map(str, seed.tolist())), 2)
    mask = (1 << length) - 1
    direct = [
        (key_int & (seed_int >> (len(seed) - j - length)) & mask).bit_count()
        for j in range(len(sums))
    ]
    assert sums.tolist() == direct


def test_window_sums_reject_inexact_rounding(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.3)
    with pytest.raises(ArithmeticError):
        _window_sums(np.ones(10, dtype=np.uint8), np.ones(4, dtype=np.uint8))


# --- pipeline -------------------------------------------------------------------


def _session(**overrides):
    kwargs = dict(block_size=5, num_blocks=200, mode="per_block", seed=70)
    kwargs.update(overrides)
    return run_session(ProtocolConfig(**kwargs))


def test_pipeline_clean_session_budget_is_exact():
    report = _session()
    result = pipeline(report, empirical_rates(report))
    assert result.ok and result.reason == "ok"
    undisclosed = report.sifted_bits - len(report.disclosed_indices)
    expected = (
        undisclosed
        - result.reconciliation.disclosed_parities
        - DEFAULT_SAFETY_MARGIN
    )
    assert result.amplification.output_length == expected
    assert len(result.final_key) == expected
    assert result.eve_info_bits == 0.0
    assert set(result.timings) == {"cascade", "toeplitz_pa"}


def test_pipeline_full_intercept_not_distillable():
    config = ProtocolConfig(block_size=4, num_blocks=2000, mode="per_block", seed=71)
    report = run_session(config, BlockAttackSpec.intercept(1.0, "per_qubit"))
    result = pipeline(report, empirical_rates(report))
    assert result.reason == "not_distillable"
    assert len(result.final_key) == 0
    assert result.reconciliation is None
    assert result.amplification is None


def test_pipeline_rejects_negative_margin():
    # rejected up front, also where the session would end before hashing
    config = ProtocolConfig(block_size=4, num_blocks=300, mode="per_block", seed=71)
    report = run_session(config, BlockAttackSpec.intercept(1.0, "per_qubit"))
    with pytest.raises(ValueError, match="safety_margin"):
        pipeline(report, empirical_rates(report), -1)


def test_pipeline_qber_too_high():
    report = _session(channel_flip_prob=1.0, num_blocks=100)
    # deterministic anti-correlation: I(A:B) = 1, so the rate gate passes
    # and the QBER gate must catch it
    rates = empirical_rates(report)
    assert rates.distillable
    result = pipeline(report, rates)
    assert result.reason == "qber_too_high"
    assert len(result.final_key) == 0


def test_pipeline_key_too_short():
    for seed in range(100):
        report = _session(block_size=4, num_blocks=20, seed=seed)
        if 0 < report.sifted_bits:
            undisclosed = report.sifted_bits - len(report.disclosed_indices)
            if 0 < undisclosed < MIN_KEY_LENGTH:
                result = pipeline(report, empirical_rates(report))
                assert result.reason == "key_too_short"
                return
    pytest.fail("no session with a short sifted key in 100 seeds")


def test_pipeline_without_estimation_sample_distils_no_key():
    # 300 sifted bits sampled at 0.002 fall short of ceil(1 / 0.002) = 500,
    # so the session discloses nothing and its qber_estimated of 0.0 is no
    # estimate: the key must not be reconciled on it.
    config = ProtocolConfig(4, 150, "per_block", 0.01, sample_fraction=0.002, seed=2)
    report = run_session(config)
    assert report.sifted_bits - len(report.disclosed_indices) >= MIN_KEY_LENGTH
    assert len(report.disclosed_indices) == 0
    rates = empirical_rates(report)
    assert rates.distillable
    result = pipeline(report, rates, safety_margin=0)
    assert result.reason == "key_too_short"
    assert len(result.final_key) == 0
    assert result.reconciliation is None and result.amplification is None


def test_pipeline_reconciliation_failed():
    # A report that underclaims its error rate: estimation says 1%, the
    # keys disagree in half their bits, so four passes cannot converge.
    rng = np.random.default_rng(77)
    alice = rng.integers(0, 2, 200).astype(np.uint8)
    bob = (alice ^ (rng.random(200) < 0.5)).astype(np.uint8)
    config = ProtocolConfig(block_size=4, num_blocks=50, seed=72)
    report = SessionReport(
        config=config,
        attack=BlockAttackSpec.none(),
        raw_qubits=200,
        kept_blocks=50,
        sifted_bits=200,
        qber_true=float(np.count_nonzero(alice != bob)) / 200,
        qber_estimated=0.01,
        disclosed_indices=np.array([3, 150], dtype=np.int32),
        alice_key=alice,
        bob_key=bob,
        eve_symbols=None,
        source=BitSource(902),
    )
    rates = RateReport(1.0, 0.0, 0.0, 1.0, True)
    result = pipeline(report, rates)
    assert result.reason == "reconciliation_failed"
    assert result.reconciliation.residual_mismatches > 0
    assert len(result.final_key) == 0
    assert result.amplification is None


def test_pipeline_key_exhausted():
    report = _session()
    result = pipeline(report, empirical_rates(report), safety_margin=10**6)
    assert result.reason == "key_exhausted"
    assert len(result.final_key) == 0
    assert result.amplification.output_length == 0
    assert result.reconciliation is not None


def test_pipeline_rejects_empty_session():
    for seed in range(100):
        report = run_session(ProtocolConfig(block_size=4, num_blocks=1, seed=seed))
        if report.sifted_bits == 0:
            with pytest.raises(ValueError):
                pipeline(report, RateReport(0.0, 0.0, 0.0, 0.0, False))
            return
    pytest.fail("no empty session in 100 seeds")


def test_pipeline_deterministic():
    r1 = _session()
    r2 = _session()
    p1 = pipeline(r1, empirical_rates(r1))
    p2 = pipeline(r2, empirical_rates(r2))
    assert np.array_equal(p1.final_key, p2.final_key)
    assert p1.reconciliation.disclosed_parities == p2.reconciliation.disclosed_parities
    assert p1.reason == p2.reason
    assert p1.eve_info_bits == p2.eve_info_bits
    assert p1.amplification.seed_bits_consumed == p2.amplification.seed_bits_consumed


def test_pipeline_continues_session_ledger():
    report = _session()
    before = report.ledger.total()
    pipeline(report, empirical_rates(report))
    after = report.ledger.total()
    assert after > before
    assert report.ledger.get("shared", "ec_permutation") > 0
    assert report.ledger.get("shared", "pa_seed") > 0
