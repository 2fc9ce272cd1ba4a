"""Tests for big-integer number theory."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.drbg import HmacDrbg, RandomSource
from repro.crypto.numbers import (
    PrimeSearchError,
    bytes_to_int,
    generate_prime,
    int_to_bytes,
    is_probable_prime,
    modinv,
)

KNOWN_PRIMES = [2, 3, 5, 7, 97, 101, 7919, 104729, 2**31 - 1, 2**61 - 1]
KNOWN_COMPOSITES = [1, 4, 100, 561, 1105, 6601, 8911, 2**31, 7919 * 104729]
# Carmichael numbers (561, 1105, 6601, 8911) defeat Fermat tests but not
# Miller-Rabin.

_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


_SMALL_PRIMES = [p for p in range(2, 2048) if all(p % q for q in range(2, int(p**0.5) + 1))]


def _strong_probable_prime(n, a):
    """``n`` passes one Miller-Rabin round to base ``a``."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def reference_is_probable_prime(n, rounds=20, rng=None):
    """The reference Miller-Rabin: trial division by every prime below
    2048, then all ``rounds`` random witnesses drawn up front."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _DETERMINISTIC_LIMIT:
        bases = [a for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41) if a < n - 1]
    else:
        bases = [2 + rng.read_int_below(n - 3) for _ in range(rounds)]
    return all(_strong_probable_prime(n, a) for a in bases)


class _CountingSource(RandomSource):
    """Counts ``read_int_below`` calls (one per random witness)."""

    def __init__(self, inner):
        self.inner = inner
        self.witness_draws = 0

    def read(self, n):
        return self.inner.read(n)

    def read_int_below(self, bound):
        self.witness_draws += 1
        return super().read_int_below(bound)


# Chernick's (6k+1)(12k+1)(18k+1) is a Carmichael number when all three
# factors are prime; these k put it above the deterministic range.
_CHERNICK_K = (14000240, 14000461, 14000720, 14001970)
CARMICHAEL = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in _CHERNICK_K]
# Composite Mersenne numbers 2^p - 1 (p prime) and composite Fermat
# numbers 2^(2^k) + 1 are strong pseudoprimes to base 2.
BASE2_PSEUDOPRIMES = [(1 << p) - 1 for p in (97, 101, 103, 109, 113, 137, 139, 149)] + [
    (1 << (1 << k)) + 1 for k in (7, 8, 9, 10)
]


class TestPrimality:
    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_known_composites_including_carmichael(self, n):
        assert not is_probable_prime(n)

    def test_negative_and_zero(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(-7)

    def test_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime (needs random witnesses).
        assert is_probable_prime(2**127 - 1, rng=HmacDrbg.from_int(1))

    def test_large_known_composite(self):
        assert not is_probable_prime((2**127 - 1) * (2**61 - 1), rng=HmacDrbg.from_int(1))

    def test_random_bases_need_rng(self):
        with pytest.raises(ValueError, match="pass rng"):
            is_probable_prime(2**127 - 1)


class TestAgainstReference:
    """The lazily drawn witnesses give the same verdict as drawing all of
    them up front, on odd ``n`` above the deterministic range."""

    def test_fixtures_are_what_they_claim(self):
        for k, n in zip(_CHERNICK_K, CARMICHAEL):
            factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            assert all(is_probable_prime(f) for f in factors)
            assert all((n - 1) % (f - 1) == 0 for f in factors)  # Korselt
            assert n > _DETERMINISTIC_LIMIT
        for n in BASE2_PSEUDOPRIMES:
            assert _strong_probable_prime(n, 2)
            assert n > _DETERMINISTIC_LIMIT

    @pytest.mark.parametrize("n", CARMICHAEL + BASE2_PSEUDOPRIMES)
    def test_pseudoprimes(self, n):
        assert is_probable_prime(n, rng=HmacDrbg.from_int(n)) is False
        assert reference_is_probable_prime(n, rng=HmacDrbg.from_int(n)) is False

    def test_random_primes_and_their_products(self):
        rng = HmacDrbg.from_int(31)
        primes = [generate_prime(bits, rng) for bits in (96, 128, 160, 256) for _ in range(3)]
        cases = primes + [p * q for p, q in zip(primes, primes[1:])]
        for seed, n in enumerate(cases):
            expected = reference_is_probable_prime(n, rng=HmacDrbg.from_int(seed))
            assert is_probable_prime(n, rng=HmacDrbg.from_int(seed)) == expected
            assert expected == (n in primes)

    def test_random_odd_numbers(self):
        rng = HmacDrbg.from_int(32)
        for seed in range(300):
            n = rng.read_int(200) | 1
            expected = reference_is_probable_prime(n, rng=HmacDrbg.from_int(seed))
            assert is_probable_prime(n, rng=HmacDrbg.from_int(seed)) == expected

    def test_composite_costs_one_witness_draw(self):
        rng = HmacDrbg.from_int(33)
        p, q = generate_prime(256, rng), generate_prime(256, rng)
        source = _CountingSource(HmacDrbg.from_int(34))
        assert not is_probable_prime(p * q, rng=source)
        assert source.witness_draws == 1
        source = _CountingSource(HmacDrbg.from_int(34))
        assert is_probable_prime(p, rng=source)
        assert source.witness_draws == 20


class TestGeneratePrime:
    def test_exact_bit_length(self):
        rng = HmacDrbg.from_int(5)
        for bits in (64, 128, 256):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert p >> (bits - 2) == 0b11
            assert is_probable_prime(p, rng=rng)

    def test_oddness(self):
        rng = HmacDrbg.from_int(6)
        assert generate_prime(64, rng) % 2 == 1

    def test_tiny_sizes_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(8, HmacDrbg.from_int(1))

    def test_deterministic_given_seed(self):
        assert generate_prime(64, HmacDrbg.from_int(9)) == generate_prime(
            64, HmacDrbg.from_int(9)
        )

    def test_search_is_bounded(self):
        """A source stuck on one composite candidate exhausts the
        ``5 * bits`` candidate budget instead of spinning forever."""

        class Zeros(RandomSource):
            def read(self, n):
                return bytes(n)

        with pytest.raises(PrimeSearchError, match="1280 256-bit candidates"):
            generate_prime(256, Zeros())


class TestModularArithmetic:
    @given(st.integers(2, 10**6))
    @settings(max_examples=200)
    def test_modinv_roundtrip(self, m):
        # pick an a coprime to m
        a = 1
        for candidate in range(2, m):
            if math.gcd(candidate, m) == 1:
                a = candidate
                break
        inv = modinv(a, m)
        assert (a * inv) % m == 1

    def test_modinv_non_coprime_raises(self):
        with pytest.raises(ValueError):
            modinv(6, 9)


class TestByteEncoding:
    @given(st.integers(0, 2**256 - 1))
    @settings(max_examples=200)
    def test_roundtrip(self, n):
        assert bytes_to_int(int_to_bytes(n)) == n

    def test_fixed_length_padding(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_overflowing_length_raises(self):
        with pytest.raises(ValueError):
            int_to_bytes(2**32, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1)
