"""Identity provisioning: keypair pool and lazy sign-up.

Every AlleyOop Social user holds an RSA key pair minted at sign-up (paper
Fig. 2a).  In the reproduction that keygen is pure build-time cost —
51.7 ms of CPU per 1024-bit key pair (mean over 30 keys, 2-vCPU VM) —
and after the batched medium and the session-crypto layer it is what
makes large-N secured sweeps intractable.  This module removes keygen
from the world-construction hot path three ways, selected by
:attr:`repro.experiments.scenario.ScenarioConfig.provisioning`:

``eager``
    The reference flow: generate on-device during sign-up, exactly as the
    paper describes and exactly as the seed code behaved.  The oracle the
    other two modes are verified against.
``pooled``
    Key pairs come from a :class:`KeypairPool` — a deterministic cache
    keyed by ``(bits, seed, index)`` with an optional on-disk store, so
    repeated sweeps pay keygen once.
``lazy``
    Sign-up installs a *placeholder*: account + reserved certificate
    serial + CA root now, key pair and certificate only on first secured
    send/receive (first :attr:`~repro.pki.keystore.KeyStore.private_key`
    access).  A device that never secures a link never pays keygen.

Under ``pooled`` and ``lazy`` the CA's key pair is a pool entry too
(index :data:`CA_INDEX`), so a build over a warm on-disk cache generates
no RSA key at all; ``eager`` keeps the CA's inline keygen.

All three modes produce **byte-identical** key pairs and certificates for
a fixed scenario seed: the DRBG seeds are the pure functions
:func:`signup_drbg_seed` of ``(scenario seed, user index)`` and
:func:`ca_drbg_seed` of the scenario seed, regardless of who generates
when, and lazy issuance reuses the serial reserved at sign-up time — so
delivery/delay traces are identical across modes (asserted end to end by
``benchmarks/test_bench_provisioning.py``).

Deterministic pooling example (512-bit keys for speed)::

    >>> pool = KeypairPool()
    >>> a = pool.get(512, seed=2017, index=0)
    >>> b = pool.get(512, seed=2017, index=0)   # memory hit, same object
    >>> a is b
    True
    >>> from repro.crypto.drbg import HmacDrbg
    >>> from repro.crypto.rsa import generate_keypair
    >>> direct = generate_keypair(512, rng=HmacDrbg.from_int(signup_drbg_seed(2017, 0)))
    >>> a.public == direct.public               # == the eager flow's key
    True
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import RsaKeyPair, RsaPrivateKey, generate_keypair
from repro.pki.certificate import DistinguishedName
from repro.pki.csr import CertificateSigningRequest
from repro.pki.keystore import KeyStore

#: The three provisioning strategies, in reference-first order.
PROVISIONING_MODES = ("eager", "pooled", "lazy")

#: On-disk key file magic/version line.  Bumped whenever key generation
#: changes, so a warm cache cannot serve keys the generator no longer makes.
_KEY_MAGIC = "SOSKEY2"

#: The pool index of the CA's key pair; users are indexed 0, 1, 2, ...
CA_INDEX = "ca"

#: A pool entry's index: a user's sign-up index or :data:`CA_INDEX`.
PoolIndex = Union[int, str]


def signup_drbg_seed(scenario_seed: int, index: int) -> int:
    """The per-user key-generation DRBG seed.

    A pure function of the scenario seed and the user's sign-up index —
    the single source of truth that makes eager, pooled and lazy
    provisioning (and any mix of processes computing them) produce
    byte-identical key pairs.  The constant matches the seed derivation
    the original eager study build used, so default traces are unchanged.
    """
    return scenario_seed * 104729 + index


def ca_drbg_seed(scenario_seed: int) -> int:
    """The CA's key-generation DRBG seed: a pure function of the scenario
    seed, so the CA's pool entry is the key pair an eager build's CA
    generates inline.  The constant is the one the original study build
    used, so default traces are unchanged."""
    return scenario_seed * 7919 + 1


def _generate_pool_entry(bits: int, seed: int, index: PoolIndex) -> RsaKeyPair:
    """The key pair of one pool entry, from the DRBG its ``(bits, seed,
    index)`` spec derives: the key an eager build generates for it."""
    drbg_seed = ca_drbg_seed(seed) if index == CA_INDEX else signup_drbg_seed(seed, index)
    return generate_keypair(bits, rng=HmacDrbg.from_int(drbg_seed))


class KeypairPool:
    """A deterministic RSA keypair cache keyed by ``(bits, seed, index)``.

    Entries are generated on demand from the keyed DRBG (so a pool is
    *transparent*: pooled runs equal eager runs byte for byte), held in
    memory, and — when ``cache_dir`` is set — persisted to one small file
    per key so later processes and repeated sweeps skip keygen entirely.

    Disk writes are atomic (write-temp + ``os.replace``), which makes a
    cache directory safe to share between concurrent sweep workers: both
    would write identical bytes anyway.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir: Optional[Path] = Path(cache_dir) if cache_dir else None
        self._memory: Dict[Tuple[int, int, PoolIndex], RsaKeyPair] = {}
        self.stats = {"memory_hits": 0, "disk_hits": 0, "generated": 0}

    # -- key derivation -------------------------------------------------------
    def _path_for(self, bits: int, seed: int, index: PoolIndex) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        entry = CA_INDEX if index == CA_INDEX else f"i{index}"
        return self.cache_dir / f"rsa-{bits}b-s{seed}-{entry}.key"

    def get(self, bits: int, seed: int, index: PoolIndex) -> RsaKeyPair:
        """The key pair for ``(bits, seed, index)`` — memory, then disk,
        then deterministic generation (cached both ways).  ``index``
        :data:`CA_INDEX` is the CA's key pair, the one an eager build's CA
        generates from :func:`ca_drbg_seed`."""
        key = (bits, seed, index)
        cached = self._memory.get(key)
        if cached is not None:
            self.stats["memory_hits"] += 1
            return cached
        loaded = self._load(bits, seed, index)
        if loaded is not None:
            self.stats["disk_hits"] += 1
            self._memory[key] = loaded
            return loaded
        keypair = _generate_pool_entry(bits, seed, index)
        self.stats["generated"] += 1
        self._memory[key] = keypair
        self._store(bits, seed, index, keypair)
        return keypair

    def prefetch(self, bits: int, seed: int, indices: Iterable[int]) -> int:
        """:meth:`get` every ``(bits, seed, index)`` entry, so a later
        build finds them in memory or on disk; returns how many had to be
        generated."""
        generated = self.stats["generated"]
        for index in indices:
            self.get(bits, seed, index)
        return self.stats["generated"] - generated

    # -- disk layer -----------------------------------------------------------
    def _load(self, bits: int, seed: int, index: PoolIndex) -> Optional[RsaKeyPair]:
        path = self._path_for(bits, seed, index)
        if path is None or not path.is_file():
            return None
        try:
            lines = path.read_text().split()
            if lines[0] != _KEY_MAGIC or len(lines) != 6:
                return None
            n, e, d, p, q = (int(value) for value in lines[1:])
        except (OSError, ValueError, IndexError):
            return None  # unreadable/corrupt: regenerate and overwrite
        # ``d`` is checked as generate_keypair defines it: a wrong one
        # would sign with a key whose signatures never verify.
        if (p * q != n or n.bit_length() != bits or min(p, q) < 2
                or e * d % ((p - 1) * (q - 1)) != 1):
            return None
        return RsaKeyPair(private=RsaPrivateKey(n=n, e=e, d=d, p=p, q=q))

    def _store(self, bits: int, seed: int, index: PoolIndex, keypair: RsaKeyPair) -> None:
        path = self._path_for(bits, seed, index)
        if path is None:
            return
        private = keypair.private
        body = "\n".join(
            (_KEY_MAGIC, str(private.n), str(private.e), str(private.d),
             str(private.p), str(private.q))
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=path.name + ".", suffix=".tmp", dir=str(path.parent)
            )
            with os.fdopen(fd, "w") as handle:
                handle.write(body + "\n")
            os.replace(tmp_name, path)
        except OSError:
            pass  # cache is best-effort; generation already succeeded


def provision_user(
    cloud,
    username: str,
    *,
    seed: int,
    index: int,
    now: float,
    key_bits: int = 1024,
    mode: str = "eager",
    pool: Optional[KeypairPool] = None,
):
    """Sign ``username`` up under the selected provisioning strategy.

    The one entry point world builders call per user
    (:class:`repro.experiments.gainesville.GainesvilleStudy` threads its
    scenario's ``provisioning`` knob straight here).  All modes return a
    :class:`~repro.alleyoop.signup.SignupResult`; under ``lazy`` its
    ``certificate`` is ``None`` until the keystore materialises.

    Args:
        cloud: The :class:`~repro.alleyoop.cloud.CloudService` to sign up
            against (must be online — the one-time requirement).
        username: Account name to register.
        seed: Scenario master seed (key DRBGs derive from it).
        index: This user's sign-up index (0-based, in sign-up order).
        now: Simulation time of the sign-up.
        key_bits: RSA modulus size.
        mode: One of :data:`PROVISIONING_MODES`.
        pool: Keypair source for ``pooled`` and ``lazy`` (a memory-only
            pool is created ad hoc when omitted).

    Returns:
        The sign-up result; its ``keystore`` is ready for middleware use.
    """
    # Imported here: pki is a lower layer than alleyoop, and this helper
    # is the one place the provisioning subsystem drives the cloud flow.
    from repro.alleyoop.signup import SignupResult, sign_up

    if mode not in PROVISIONING_MODES:
        raise ValueError(
            f"unknown provisioning mode {mode!r}; expected one of {PROVISIONING_MODES}"
        )
    drbg_seed = signup_drbg_seed(seed, index)
    if mode == "eager":
        return sign_up(
            cloud, username, rng=HmacDrbg.from_int(drbg_seed), now=now, key_bits=key_bits
        )
    pool = pool if pool is not None else KeypairPool()
    if mode == "pooled":
        keypair = pool.get(key_bits, seed, index)
        return sign_up(
            cloud,
            username,
            rng=HmacDrbg.from_int(drbg_seed),
            now=now,
            key_bits=key_bits,
            keypair=keypair,
        )

    # -- lazy: account + serial reservation now, crypto on first use ---------
    account = cloud.create_account(username, now=now)
    serial = cloud.ca.reserve_serial()
    root = cloud.root_certificate

    def materialize():
        keypair = pool.get(key_bits, seed, index)
        csr = CertificateSigningRequest.create(
            subject=DistinguishedName(common_name=username),
            private_key=keypair.private,
            user_id=account.user_id,
        )
        certificate = cloud.fulfil_deferred_certificate(
            username, csr, serial=serial, signup_time=now
        )
        return keypair.private, certificate

    keystore = KeyStore()
    keystore.provision_deferred(materialize, root=root)
    keystore.sync_revocations(cloud.ca.revocations)
    return SignupResult(
        username=username,
        user_id=account.user_id,
        keystore=keystore,
        certificate=None,
    )
