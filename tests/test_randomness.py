import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockqkd import randomness
from blockqkd.randomness import (
    DETERMINISTIC_EPS,
    PARTIES,
    STAGES,
    BitSource,
    ConsumptionReport,
    RandomnessLedger,
    consumption_ratio,
    knuth_yao,
    stream_bits,
    stream_words,
)
from bernoulli_reference import bernoulli, bernoulli_digits, bernoulli_draw
from cascade_reference import _permutation, _radix_order, _words


def test_draw_zero_bits_leaves_ledger_unchanged():
    source = BitSource(1)
    out = source.draw_bits("alice", "alice_bits", 0)
    assert out.size == 0
    assert source.ledger.total() == 0


def test_two_draws_of_eight_accumulate():
    source = BitSource(1)
    source.draw_bits("alice", "alice_bits", 8)
    source.draw_bits("alice", "alice_bits", 8)
    assert source.ledger.get("alice", "alice_bits") == 16
    assert source.ledger.total() == 16


def test_same_seed_same_sequence():
    a = BitSource(99).draw_bits("bob", "bob_basis", 256)
    b = BitSource(99).draw_bits("bob", "bob_basis", 256)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = BitSource(1).draw_bits("bob", "bob_basis", 256)
    b = BitSource(2).draw_bits("bob", "bob_basis", 256)
    assert not np.array_equal(a, b)


def test_unknown_party_or_stage_rejected():
    source = BitSource(0)
    with pytest.raises(ValueError):
        source.draw_bits("mallory", "alice_bits", 1)
    with pytest.raises(ValueError):
        source.draw_bits("alice", "coffee", 1)


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 63, 64, 65, 70, 1000])
def test_draw_bits_reads_each_value_from_its_top_bit(count):
    # position i is bit count-1-i of the getrandbits(count) value
    value = random.Random(21).getrandbits(count)
    out = BitSource(21).draw_bits("alice", "alice_bits", count)
    assert out.dtype == np.uint8
    assert out.tolist() == [value >> (count - 1 - i) & 1 for i in range(count)]


def test_bits_are_binary():
    out = BitSource(5).draw_bits("shared", "pa_seed", 1000)
    assert out.dtype == np.uint8
    assert set(np.unique(out)) <= {0, 1}


@given(st.lists(st.integers(min_value=0, max_value=64), max_size=20))
def test_ledger_total_is_sum_of_entries(counts):
    source = BitSource(7)
    for i, count in enumerate(counts):
        party = PARTIES[i % len(PARTIES)]
        stage = STAGES[i % len(STAGES)]
        source.draw_bits(party, stage, count)
    assert source.ledger.total() == sum(counts)
    assert sum(source.ledger.as_dict().values()) == sum(counts)


def test_ledger_as_dict_has_every_stage_in_order():
    assert tuple(BitSource(0).ledger.as_dict()) == STAGES


def test_ledger_rejects_negative():
    ledger = RandomnessLedger()
    with pytest.raises(ValueError):
        ledger.record("alice", "alice_bits", -1)


def test_bernoulli_half_costs_exactly_one_bit():
    source = BitSource(11)
    for _ in range(100):
        bernoulli(source, "bob", "bob_measurement", 0.5)
    assert source.ledger.get("bob", "bob_measurement") == 100


def test_bernoulli_degenerate_costs_nothing():
    source = BitSource(11)
    assert bernoulli(source, "bob", "bob_measurement", 0.0) == 0
    assert bernoulli(source, "bob", "bob_measurement", 1.0) == 1
    assert bernoulli(source, "bob", "bob_measurement", 5e-13) == 0
    assert bernoulli(source, "bob", "bob_measurement", 1.0 - 5e-13) == 1
    assert source.ledger.total() == 0


def test_bernoulli_quarter_costs_at_most_two_bits():
    # 0.25 is dyadic: the interval resolves after one or two halvings.
    source = BitSource(13)
    before = 0
    for _ in range(200):
        bernoulli(source, "eve", "attack", 0.25)
        after = source.ledger.get("eve", "attack")
        assert after - before in (1, 2)
        before = after


def test_bernoulli_frequency():
    source = BitSource(17)
    hits = sum(bernoulli(source, "eve", "attack", 0.25) for _ in range(10000))
    # 5 sigma around 2500 with sigma = sqrt(10000 * 0.25 * 0.75) ~ 43
    assert abs(hits - 2500) <= 5 * np.sqrt(10000 * 0.25 * 0.75)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=200)
def test_bernoulli_returns_bit_and_counts(p):
    source = BitSource(23)
    out = bernoulli(source, "shared", "sampling", p)
    assert out in (0, 1)
    assert source.ledger.total() >= 0


def _bernoulli_reference(source, party, stage, p):
    """Bit-by-bit sampler on a float interval: each drawn bit halves
    [lo, lo + half) until it lies on one side of p. One ledger record per
    drawn bit."""
    if p < DETERMINISTIC_EPS:
        return 0
    if p > 1.0 - DETERMINISTIC_EPS:
        return 1
    lo = 0.0
    half = 0.5
    while True:
        source.ledger.record(party, stage, 1)
        if source._rng.getrandbits(1):
            lo += half
        if lo >= p:
            return 0
        if lo + half <= p:
            return 1
        half *= 0.5


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(
        st.tuples(
            st.sampled_from([("bob", "bob_measurement"), ("eve", "attack")]),
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from([0.0, 1e-13, 0.5, 0.5 + 1e-13, 1.0 - 1e-13, 1.0]),
            ),
        ),
        max_size=40,
    ),
)
@example(seed=0, draws=[(("eve", "attack"), 1e-300), (("bob", "bob_measurement"), 0.3)])
# dyadic p: a draw can match every digit, and must then answer 0
@example(seed=1, draws=[(("eve", "attack"), p) for p in (0.25, 0.75, 0.3) * 8])
@example(seed=2, draws=[(("eve", "attack"), p) for p in (0.25, 0.75) * 12])
# 39 digits just above the deterministic cutoff, and about 92 digits
@example(seed=3, draws=[(("eve", "attack"), p) for p in (2**-39, 1 - 2**-39, 1.0000001e-12) * 4])
@settings(max_examples=150)
def test_bernoulli_matches_per_bit_loop(seed, draws):
    batch, reference = BitSource(seed), BitSource(seed)
    for (party, stage), p in draws:
        assert bernoulli(batch, party, stage, p) == _bernoulli_reference(
            reference, party, stage, p
        )
    assert list(batch.ledger.counts.items()) == list(reference.ledger.counts.items())
    assert batch._rng.getstate() == reference._rng.getstate()


@given(st.floats(min_value=0.0, max_value=1.0))
@example(DETERMINISTIC_EPS)
@example(1.0 - DETERMINISTIC_EPS)
@example(2**-39)
@example(1.0000001e-12)
@example(0.25)
def test_bernoulli_digits_sum_to_p(p):
    digits, outcome = bernoulli_digits(p)
    if p < DETERMINISTIC_EPS or p > 1.0 - DETERMINISTIC_EPS:
        assert (digits, outcome) == (b"", int(p > 0.5))
        return
    assert sum(Fraction(d, 2 ** (i + 1)) for i, d in enumerate(digits)) == Fraction(p)
    assert digits[-1] == 1 and set(digits) <= {0, 1}
    assert outcome == 0


def _bernoulli_digits_reference(p):
    """bernoulli_digits with each digit shifted out of p's numerator."""
    if p < DETERMINISTIC_EPS:
        return b"", 0
    if p > 1.0 - DETERMINISTIC_EPS:
        return b"", 1
    num, den = p.as_integer_ratio()
    width = den.bit_length() - 1
    return bytes(num >> (width - 1 - i) & 1 for i in range(width)), 0


_NEAR_DECISION_POINTS = st.builds(
    lambda point, offset: min(max(point + offset, 0.0), 1.0),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=-1e-12, max_value=1e-12),
)


@given(
    st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(1, 60).flatmap(  # dyadic k / 2**width
            lambda width: st.builds(lambda k: k / 2**width, st.integers(0, 2**width))
        ),
        st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # subnormals
        _NEAR_DECISION_POINTS,
    )
)
@example(5e-324)
@example(DETERMINISTIC_EPS)
@example(1.0 - DETERMINISTIC_EPS)
@example(np.nextafter(DETERMINISTIC_EPS, 1.0))
@example(np.nextafter(1.0 - DETERMINISTIC_EPS, 0.0))
@example(0.5 + 1e-12)
@example(2**-52)
@example(1.0 - 2**-53)
@settings(max_examples=300)
def test_bernoulli_digits_match_shifted_reference(p):
    """bernoulli_digits' string-built digits equal the shifted-out ones on
    random floats, dyadic values, subnormals and values within 1e-12 of 0,
    1/2 and 1."""
    assert bernoulli_digits(float(p)) == _bernoulli_digits_reference(float(p))


def test_bernoulli_rejects_out_of_range():
    with pytest.raises(ValueError):
        bernoulli(BitSource(0), "eve", "attack", 1.5)
    with pytest.raises(ValueError):
        bernoulli(BitSource(0), "eve", "attack", -0.1)


def test_randbelow_one_is_free():
    source = BitSource(29)
    assert source.sampled("shared", "sampling", 1, 1)[0] == 0
    assert source.ledger.total() == 0


@given(st.integers(min_value=1, max_value=1000))
@settings(max_examples=100)
def test_randbelow_in_range(n):
    source = BitSource(37)
    for _ in range(5):
        assert 0 <= source.sampled("shared", "sampling", n, 1)[0] < n


def _radix_sample(words: list[int], k: int, more) -> tuple[list[int], int]:
    """The indices of the k smallest keys `words`, in key order, and the bits
    a lazy reader reads to split them from the rest. Tied keys first read on
    as `_radix_order` reads them: every key equal to another reads one more
    word, all of them at once through `more(indices)`, until none tie. Then
    the group of keys that agree so far and hold the cut splits on its next
    bit, top bit first, 0s first, charging one bit per member, until the cut
    falls between two groups."""
    keys = [(word,) for word in words]
    while True:
        seen = Counter(keys)
        tied = [i for i, key in enumerate(keys) if seen[key] > 1]
        if not tied:
            break
        for i, word in zip(tied, more(tied)):
            keys[i] += (word,)
    group, sample, charge, depth = list(range(len(keys))), [], 0, 0
    while 0 < k - len(sample) < len(group):
        charge += len(group)
        word, bit = divmod(depth, 64)
        zeros = [i for i in group if not keys[i][word] >> 63 - bit & 1]
        ones = [i for i in group if keys[i][word] >> 63 - bit & 1]
        if len(zeros) <= k - len(sample):
            sample, group = sample + zeros, ones
        else:
            group = zeros
        depth += 1
    if len(sample) < k:
        sample += group
    return sorted(sample, key=lambda i: keys[i]), charge


def _sampled_reference(source: BitSource, n: int, k: int) -> list[int]:
    """`_radix_sample` on n keys drawn as `_permutation` draws them, charging
    (shared, sampling); k = 0 or k = n reads nothing."""
    if k in (0, n):
        return list(range(k))
    sample, charge = _radix_sample(_words(source, n), k, lambda tied: _words(source, len(tied)))
    source.ledger.record("shared", "sampling", charge)
    return sample


@st.composite
def _sample_sizes(draw):
    """(n, k): n up to 70,000 or a power of two +-1, k any size up to n."""
    n = draw(
        st.integers(min_value=1, max_value=70_000)
        | st.builds(lambda e, d: 2**e + d, st.integers(1, 16), st.sampled_from([-1, 0, 1]))
    )
    return n, draw(st.sampled_from([0, 1, n - 1, n]) | st.integers(min_value=0, max_value=n))


@given(st.integers(min_value=0, max_value=2**32 - 1), _sample_sizes())
@example(seed=1, sizes=(70_000, 69_999))
@example(seed=2, sizes=(65_537, 1))
@example(seed=3, sizes=(2, 1))
@example(seed=4, sizes=(1, 1))
@example(seed=5, sizes=(0, 0))
@example(seed=6, sizes=(51_000, 10_200))
@settings(max_examples=60, deadline=None)
def test_sampled_matches_the_reference_sampler(seed, sizes):
    """sampled against the lazy radix partition, reading its keys one bit at
    a time: same indices in the same order, ledger and generator state."""
    n, k = sizes
    source, reference = BitSource(seed), BitSource(seed)
    assert source.sampled("shared", "sampling", n, k).tolist() == _sampled_reference(
        reference, n, k
    )
    assert source.ledger.counts == reference.ledger.counts
    assert source._rng.getstate() == reference._rng.getstate()


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=5000))
@example(seed=5, n=2)
@example(seed=6, n=3)
@example(seed=7, n=4)
@example(seed=8, n=5)
@example(seed=9, n=64)
@example(seed=10, n=65)
@example(seed=11, n=4097)
@example(seed=12, n=42_400)
@settings(max_examples=60, deadline=None)
def test_shuffled_matches_the_reference_shuffle(seed, n):
    """shuffled against the reference radix partition, reading its keys
    one bit at a time: same permutation, ledger and generator state."""
    source, reference = BitSource(seed), BitSource(seed)
    assert (
        source.shuffled("shared", "ec_permutation", n).tolist()
        == _permutation(n, reference).tolist()
    )
    assert source.ledger.counts == reference.ledger.counts
    assert source._rng.getstate() == reference._rng.getstate()


def test_shuffled_pins_a_known_answer():
    # the keys are CPython's Mersenne Twister words as getrandbits lays them
    # out; a change to that layout moves every post-processing digest
    source = BitSource(7)
    order = source.shuffled("shared", "ec_permutation", 10)
    assert order.tolist() == [2, 8, 4, 7, 1, 9, 5, 3, 6, 0]
    assert source.ledger.counts == {("shared", "ec_permutation"): 40}


TOP = 2**64 - 1
TIE_PRONE = [0, 1, 2**62, 2**63 - 1, 2**63, TOP]


class _Planted:
    """Planted next words for tied keys, one list per call, logging the
    indices each call asks for; passed as `more` to both _trie_order (a
    mask, answered with a uint64 array) and the reference (a list)."""

    def __init__(self, rounds):
        self.rounds, self.asked = iter(rounds), []

    def __call__(self, tied):
        mask = isinstance(tied, np.ndarray)
        indices = np.flatnonzero(tied).tolist() if mask else tied
        self.asked.append(indices)
        words = next(self.rounds)[: len(indices)]
        return np.array(words, dtype=np.uint64) if mask else words


def _depths(common):
    """The keys' summed depth in their trie: per key, one more than its longest
    common prefix with a sorted neighbour, given each neighbour pair's."""
    common = [0, *common.tolist(), 0]
    return sum(1 + max(left, right) for left, right in zip(common, common[1:]))


@pytest.mark.parametrize(
    "words, rounds",
    [
        ([5, 5, 9, 5], [[7, 3, 7], [1, 0]]),  # three equal keys, two tie again
        ([TOP - 1, TOP, 0, 1], []),  # two pairs equal to depth 63
        ([2**63, 2**63 + 1, 2**63, 2**63], [[TOP, TOP - 1, 0]]),  # ties by a depth-63 key
        ([TOP, TOP], [[0, 0], [2**63, 2**63 - 1]]),  # a pair tied over two words
    ],
)
def test_trie_order_breaks_planted_ties_as_the_reference_does(words, rounds):
    planted, reference = _Planted(rounds), _Planted(rounds)
    order, common = randomness._trie_order(np.array(words, dtype=np.uint64), planted)
    assert (order.tolist(), _depths(common)) == _radix_order(words, reference)
    assert planted.asked == reference.asked
    assert len(planted.asked) == len(rounds)


@given(
    st.lists(st.sampled_from(TIE_PRONE), min_size=2, max_size=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100)
def test_trie_order_matches_the_reference_on_tied_keys(words, seed):
    """Keys from six values, so most tie, and so do the next words each
    round reads, drawn from the same six values for both."""

    def rounds():
        rng = random.Random(seed)
        while True:
            yield [rng.choice(TIE_PRONE) for _ in words]

    planted, reference = _Planted(rounds()), _Planted(rounds())
    order, common = randomness._trie_order(np.array(words, dtype=np.uint64), planted)
    assert (order.tolist(), _depths(common)) == _radix_order(words, reference)
    assert planted.asked == reference.asked


class _PlantedGenerator:
    """A stand-in for random.Random whose getrandbits(k) returns the next
    planted value and logs k."""

    def __init__(self, values):
        self.values, self.widths = iter(values), []

    def getrandbits(self, k):
        self.widths.append(k)
        return next(self.values)


def test_shuffled_reads_one_more_word_per_tied_key():
    # keys 5, 5, 9, 5 (word i of one value, lowest first), then 7, 3, 7 for
    # indices 0, 1 and 3, then 1, 0 for indices 0 and 3, still tied
    def value(words):
        return sum(word << 64 * i for i, word in enumerate(words))

    planted = [value([5, 5, 9, 5]), value([7, 3, 7]), value([1, 0])]
    source, reference = BitSource(0), BitSource(0)
    source._rng, reference._rng = _PlantedGenerator(planted), _PlantedGenerator(planted)
    order = source.shuffled("shared", "ec_permutation", 4)
    assert order.tolist() == _permutation(4, reference).tolist() == [1, 3, 0, 2]
    assert source.ledger.counts == reference.ledger.counts
    assert source._rng.widths == reference._rng.widths == [256, 192, 128]


def test_shuffled_orders_of_four_are_uniform():
    counts = Counter(
        tuple(BitSource(seed).shuffled("shared", "ec_permutation", 4).tolist())
        for seed in range(24_000)
    )
    expected = 24_000 / 24
    chi2 = sum((counts[order] - expected) ** 2 / expected for order in permutations(range(4)))
    assert chi2 < 57.07  # the chi-square quantile at 1 - 1e-4, 23 degrees of freedom


def _expected_charge(n):
    """D(n), the expected path length of the binary trie of n uniform keys:
    every key reads the root's bit, and k of them go left with probability
    C(n, k) / 2^n, so D(n) (1 - 2^(1-n)) = n + 2^-n sum_{k=1}^{n-1} C(n, k)
    (D(k) + D(n-k)), with D(0) = D(1) = 0."""
    depth = [Fraction(0), Fraction(0)]
    for m in range(2, n + 1):
        splits = sum(comb(m, k) * (depth[k] + depth[m - k]) for k in range(1, m))
        depth.append((m + Fraction(splits, 2**m)) / (1 - Fraction(2, 2**m)))
    return depth[n]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_shuffled_charges_the_expected_trie_path_length(n):
    charges = []
    for seed in range(4000):
        source = BitSource(seed)
        source.shuffled("shared", "ec_permutation", n)
        charges.append(source.ledger.total())
    charges = np.array(charges, dtype=np.float64)
    error = charges.std(ddof=1) / np.sqrt(len(charges))
    assert abs(charges.mean() - float(_expected_charge(n))) < 4 * error


@pytest.mark.parametrize(
    "words, rounds, k, widths",
    [
        # keys 5, 9, 5, 1: the two 5s tie at the cut, then read 7 and 3
        ([5, 9, 5, 1], [[7, 3]], 2, [256, 128]),
        # keys 5, 5, 9, 9, 1: the 5s tie at the cut over two words and the 9s
        # away from it, read on too but never charged
        ([5, 5, 9, 9, 1], [[7, 7, 3, 2], [1, 0]], 2, [320, 256, 128]),
    ],
)
def test_sampled_reads_one_more_word_per_tied_key(words, rounds, k, widths):
    def value(words):
        return sum(word << 64 * i for i, word in enumerate(words))

    planted = [value(words)] + [value(round) for round in rounds]
    source, reference = BitSource(0), BitSource(0)
    source._rng, reference._rng = _PlantedGenerator(planted), _PlantedGenerator(planted)
    sample = source.sampled("shared", "sampling", len(words), k)
    assert sample.tolist() == _sampled_reference(reference, len(words), k)
    assert source.ledger.counts == reference.ledger.counts
    assert source._rng.widths == reference._rng.widths == widths


def test_sampled_subsets_of_five_are_uniform():
    counts = Counter(
        frozenset(BitSource(seed).sampled("shared", "sampling", 5, 2).tolist())
        for seed in range(10_000)
    )
    expected = 10_000 / comb(5, 2)
    chi2 = sum((counts[frozenset(pair)] - expected) ** 2 / expected for pair in combinations(range(5), 2))
    assert chi2 < 33.72  # the chi-square quantile at 1 - 1e-4, 9 degrees of freedom


def _expected_sample_charge(n, k):
    """D(n, k), the expected bits a lazy reader of n uniform keys reads to
    split the k smallest from the rest: every key of the group holding the
    cut reads the group's next bit, and j of them read a 0 with probability
    C(n, j) / 2^n, so D(n, k) (1 - 2^(1-n)) = n + 2^-n sum_{j=1}^{n-1}
    C(n, j) [j > k: D(j, k); j < k: D(n - j, k - j)], with D(n, 0) =
    D(n, n) = 0. It solves to 2n for every 0 < k < n."""
    if k in (0, n):
        return Fraction(0)
    splits = sum(
        comb(n, j) * (_expected_sample_charge(j, k) if j > k else _expected_sample_charge(n - j, k - j))
        for j in range(1, n)
        if j != k
    )
    return (n + Fraction(splits, 2**n)) / (1 - Fraction(2, 2**n))


@pytest.mark.parametrize("n, k", [(2, 1), (5, 2), (8, 3), (8, 7)])
def test_sampled_charges_two_bits_per_key_in_expectation(n, k):
    assert _expected_sample_charge(n, k) == 2 * n
    charges = []
    for seed in range(4000):
        source = BitSource(seed)
        source.sampled("shared", "sampling", n, k)
        charges.append(source.ledger.total())
    charges = np.array(charges, dtype=np.float64)
    error = charges.std(ddof=1) / np.sqrt(len(charges))
    assert abs(charges.mean() - 2 * n) < 4 * error


@pytest.mark.parametrize("n, k", [(5, 6), (0, 1), (5, -1), (2**32 + 1, 1), (2**32 + 1, 0)])
def test_sampled_rejects_sizes_outside_one_word(monkeypatch, n, k):
    # outside 0 <= k <= n <= 2**32 nothing is drawn and no index list is built
    def no_index_list(*args):
        raise AssertionError("sampled built an index list before checking its sizes")

    source = BitSource(46)
    state = source._rng.getstate()
    for name in ("list", "range"):
        monkeypatch.setattr(randomness, name, no_index_list, raising=False)
    with pytest.raises(ValueError):
        source.sampled("shared", "sampling", n, k)
    assert source.ledger.total() == 0
    assert source._rng.getstate() == state


def test_stage_source_charges_its_stage():
    source = BitSource(41)
    bernoulli(source, "eve", "attack", 0.5)
    bernoulli(source, "eve", "attack", 0.5)
    assert source.ledger.get("eve", "attack") == 1 + 1
    assert source.ledger.total() == 2


def test_consumption_report_groups_phases():
    source = BitSource(43)
    source.draw_bits("alice", "alice_basis", 10)
    source.draw_bits("alice", "alice_bits", 40)
    source.draw_bits("bob", "bob_basis", 10)
    source.draw_bits("bob", "bob_measurement", 33)
    report = ConsumptionReport.from_ledger(source.ledger, raw_qubits=40)
    assert report.quantum_phase_alice == 50
    assert report.quantum_phase_bob == 10


def _report(n: int, blocks: int, per_block: bool) -> ConsumptionReport:
    ledger = RandomnessLedger()
    basis_draws = blocks if per_block else n * blocks
    ledger.record("alice", "alice_basis", basis_draws)
    ledger.record("alice", "alice_bits", n * blocks)
    ledger.record("bob", "bob_basis", basis_draws)
    return ConsumptionReport.from_ledger(ledger, raw_qubits=n * blocks)


def test_ratio_example_n100_b100():
    ratios = consumption_ratio(_report(100, 100, True), _report(100, 100, False))
    assert ratios.quantum_phase_alice == Fraction(10100, 20000)
    assert float(ratios.quantum_phase_alice) == 0.505
    assert ratios.quantum_phase_bob == Fraction(100, 10000)
    assert float(ratios.quantum_phase_bob) == 0.01


@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=50))
@settings(max_examples=60)
def test_ratio_closed_form(n, blocks):
    ratios = consumption_ratio(_report(n, blocks, True), _report(n, blocks, False))
    assert ratios.quantum_phase_alice == Fraction(n + 1, 2 * n)
    assert ratios.quantum_phase_bob == Fraction(1, n)


def test_alice_ratio_decreases_toward_half():
    values = [Fraction(n + 1, 2 * n) for n in range(1, 200)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > Fraction(1, 2) for v in values)
    assert float(Fraction(10**9 + 1, 2 * 10**9)) == pytest.approx(0.5, abs=1e-8)


def test_ratio_requires_equal_raw_qubits():
    with pytest.raises(ValueError):
        consumption_ratio(_report(4, 10, True), _report(4, 11, False))


def test_stream_key_and_first_words_are_pinned():
    """The stream layout every session rests on: the key is the 128-bit
    blake2b digest of "{seed}/{kind}", read little-endian, numpy's Philox
    keyed with it gives these raw words (its documented stream), plane 1
    starts at counter 2^64, and bit k is bit k mod 64 of word k // 64."""
    digest = hashlib.blake2b(b"7/alice_bits", digest_size=16).digest()
    key = int.from_bytes(digest, "little")
    assert key == 185214809063356389039464858856701997253
    words = [0x6D00CC27A044CE05, 0x71A174E897356F8F, 0x1771B90582BE2D72,
             0xBB03A355AA79714B, 0xF4F4DB8E964BAD42]
    assert stream_words(7, "alice_bits", 5).tolist() == words
    assert np.random.Philox(key=key).random_raw(5).tolist() == words
    assert stream_words(7, "alice_bits", 2, plane=1).tolist() == [
        0x84EDDC7AE6C39126, 0xD9E44BADAE22A6FB
    ]
    bits = stream_bits(7, "alice_bits", 300)
    assert bits.dtype == np.uint8
    assert bits.tolist() == [words[k // 64] >> k % 64 & 1 for k in range(300)]


# p = 1/2, dyadic p, 0.3, the snapped edges and p's whose digits run past 64
_TRIAL_POINTS = [0.5, 0.25, 0.75, 0.375, 2**-39, 1 - 2**-39, 0.3, 1e-11, 1.0000001e-12,
                 DETERMINISTIC_EPS, 1.0 - DETERMINISTIC_EPS, 0.0, 1.0, 5e-13, 1 - 5e-13]


@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_TRIAL_POINTS), st.floats(0.0, 1.0)),
            st.integers(0, 128),  # leading bits that agree with p's digits
            st.integers(0, 2**128 - 1),  # the bits after them
        ),
        min_size=1,
        max_size=20,
    )
)
@example([(1e-11, 128, 0), (1e-11, 64, 0), (1e-11, 70, 2**128 - 1), (0.3, 64, 5)])
@example([(p, agree, 0) for p in (0.5, 0.25, 0.3, 1e-11) for agree in (0, 1, 2, 63, 64, 65)])
@settings(max_examples=300, deadline=None)
def test_knuth_yao_matches_the_scalar_trial(trials):
    """knuth_yao against bernoulli_draw fed the same two words' bits, top
    bit first, on p's of each kind, one p per word and one p for all: the
    same outcome and bits charged for every word. Each word pair agrees
    with p's first digits for a while, so trials run to any depth, past
    the first word too; the second words are asked for only where the
    first matched all of a longer p's first 64 digits."""
    firsts, seconds, expected = [], [], []
    for p, agree, tail in trials:
        digits, _ = bernoulli_digits(p)
        top = sum(digit << 127 - i for i, digit in enumerate(digits))
        keep = (1 << 128) - (1 << 128 - agree)
        value = top & keep | tail & ~keep
        firsts.append(value >> 64)
        seconds.append(value & (1 << 64) - 1)
    first_words, second_words = (np.array(w, dtype=np.uint64) for w in (firsts, seconds))

    def scalar(p, index):
        bits = iter([w >> 63 - j & 1 for w in (firsts[index], seconds[index]) for j in range(64)])
        return bernoulli_draw(lambda _: next(bits), *bernoulli_digits(p))

    asked = []

    def second(mask):
        asked.append(np.flatnonzero(mask))
        return second_words[mask]

    ps = [p for p, _, _ in trials]
    for p in (np.array(ps), ps[0]):
        outcomes, drawn = knuth_yao(p, first_words, second)
        each = np.broadcast_to(p, len(ps))
        assert outcomes.dtype == np.uint8
        assert list(zip(outcomes.tolist(), drawn.tolist())) == [
            scalar(float(each[i]), i) for i in range(len(ps))
        ]
        for i in np.concatenate(asked or [np.zeros(0, int)]).tolist():
            digits, _ = bernoulli_digits(float(each[i]))
            assert len(digits) > 64
            assert firsts[i] == sum(d << 63 - j for j, d in enumerate(digits[:64]))
        asked.clear()
