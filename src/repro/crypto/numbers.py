"""Big-integer number theory for RSA key generation.

Implements Miller–Rabin (with the proven small-base set below 3.3e24 and
random bases above), the modular inverse, and prime generation from a
:class:`~repro.crypto.drbg.RandomSource`.

The prime search follows FIPS 186-4 App. B.3.3:

* **Candidates** are odd ``bits``-bit integers with the top *two* bits set,
  so every candidate is at least ``3 * 2**(bits - 2)`` and clears the
  standard's floor ``sqrt(2) * 2**(bits - 1)``.  The product of two such
  primes always has exactly ``2 * bits`` bits.  With only the top bit set,
  2 ln 2 - 1 = 38.6% of prime pairs gave a modulus one bit short, and both
  primes were thrown away and redrawn.
* **Trial division** is one ``gcd`` of the candidate with the product of
  the primes below 2048, computed once at import.
* **Witnesses** are drawn lazily: each random Miller–Rabin base is read
  from the source just before it is tested, and the test stops at the
  first base that proves the candidate composite.  A composite costs one
  draw, not ``rounds``; an accepted prime still passes all ``rounds``.
* **The search is bounded** at ``5 * bits`` candidates (B.3.3 step 4.7).
  A healthy source exhausts it with probability about
  ``exp(-10 / ln 2) ~ 5e-7`` per prime; a stuck one raises
  :class:`PrimeSearchError` instead of spinning forever.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.crypto.drbg import RandomSource

# Deterministic witness set: correct for all n < 3,317,044,064,679,887,385,961,981.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SIEVE_LIMIT = 2048
#: Miller–Rabin rounds for random witnesses: error probability <= 4**-20.
_ROUNDS = 20


def _sieve_small_primes(limit: int) -> tuple:
    """Primes below ``limit`` (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return tuple(i for i in range(limit) if sieve[i])


_SMALL_PRIMES = frozenset(_sieve_small_primes(_SIEVE_LIMIT))
#: Product of the primes below 2048: ``gcd(n, _PRIMORIAL) == 1`` exactly
#: when no prime below 2048 divides ``n``.
_PRIMORIAL = math.prod(_SMALL_PRIMES)


class PrimeSearchError(ValueError):
    """:func:`generate_prime` tried its ``5 * bits`` candidates without
    finding a prime; the random source looks stuck."""


def _passes_miller_rabin(n: int, rounds: int, rng: Optional[RandomSource]) -> bool:
    """Miller–Rabin on an odd ``n`` with no prime factor below 2048."""
    # Write n-1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness_composite(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                return False
        return True

    if n < 3_317_044_064_679_887_385_961_981:
        bases = [a for a in _DETERMINISTIC_WITNESSES if a < n - 1]
    else:
        if rng is None:
            raise ValueError("random witnesses required for very large n; pass rng")
        # A generator, so each base is drawn only if every earlier one passed.
        bases = (2 + rng.read_int_below(n - 3) for _ in range(rounds))
    return not any(witness_composite(a) for a in bases)


def is_probable_prime(n: int, rounds: int = _ROUNDS, rng: RandomSource = None) -> bool:
    """Miller–Rabin primality test.

    Deterministic (proven witness set) for n < 3.3e24; for larger n uses
    up to ``rounds`` random witnesses, drawn from ``rng`` one at a time,
    giving error probability <= 4**-rounds.
    """
    if n < _SIEVE_LIMIT:
        return n in _SMALL_PRIMES
    if math.gcd(n, _PRIMORIAL) != 1:
        return False
    return _passes_miller_rabin(n, rounds, rng)


def generate_prime(bits: int, rng: RandomSource) -> int:
    """Generate a random prime with exactly ``bits`` bits.

    Candidates are odd with the top two bits forced, so the product of two
    such primes has exactly ``2 * bits`` bits — required for fixed-size key
    serialisation.  Raises :class:`PrimeSearchError` after ``5 * bits``
    composite candidates.
    """
    if bits < 16:
        raise ValueError(f"refusing to generate tiny primes ({bits} bits)")
    top_two = 3 << (bits - 2)
    budget = 5 * bits
    for _ in range(budget):
        candidate = rng.read_int(bits) | top_two | 1
        if math.gcd(candidate, _PRIMORIAL) == 1 and _passes_miller_rabin(candidate, _ROUNDS, rng):
            return candidate
    raise PrimeSearchError(f"no prime among {budget} {bits}-bit candidates")


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m``; raises ``ValueError`` if not coprime."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} has no inverse modulo {m} (gcd={math.gcd(a, m)})") from None


def int_to_bytes(n: int, length: int = None) -> bytes:
    """Big-endian byte encoding; ``length`` pads/validates the width."""
    if n < 0:
        raise ValueError("negative integers are not encodable")
    minimal = (n.bit_length() + 7) // 8 or 1
    if length is None:
        length = minimal
    if minimal > length:
        raise ValueError(f"{n.bit_length()}-bit integer does not fit {length} bytes")
    return n.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Big-endian byte decoding."""
    return int.from_bytes(data, "big")
