"""Tests for the identity-provisioning subsystem (keypair pool, lazy
sign-up, and the knobs that thread them through the experiment
harness)."""

import json
from pathlib import Path

import pytest

from repro.alleyoop.cloud import CloudService
from repro.bench.suites import scenario_config
from repro.bench.traceid import trace_lines, trace_sha256
from repro.crypto.drbg import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.experiments import DensitySweep, GainesvilleStudy, ScenarioConfig
from repro.experiments.density_sweep import _run_sweep_point
from repro.pki.provisioning import (
    CA_INDEX,
    PROVISIONING_MODES,
    KeypairPool,
    ca_drbg_seed,
    provision_user,
    signup_drbg_seed,
)

BITS = 512  # fast keygen; fine for pool tests (no OAEP involved)


@pytest.fixture
def keygens(monkeypatch):
    """Every key pair generated, by any module that generates one, while
    the test runs."""
    from repro.alleyoop import signup
    from repro.pki import ca, provisioning

    made = []

    def counted(*args, **kwargs):
        made.append(generate_keypair(*args, **kwargs))
        return made[-1]

    for module in (ca, provisioning, signup):
        monkeypatch.setattr(module, "generate_keypair", counted)
    return made


class TestKeypairPool:
    def test_matches_eager_generation(self):
        """The pool's whole point: its keys equal the eager flow's keys."""
        pool = KeypairPool()
        pooled = pool.get(BITS, seed=2017, index=3)
        direct = generate_keypair(BITS, rng=HmacDrbg.from_int(signup_drbg_seed(2017, 3)))
        assert pooled.public == direct.public
        assert pooled.private == direct.private

    def test_memory_hit_returns_same_object(self):
        pool = KeypairPool()
        first = pool.get(BITS, seed=1, index=0)
        second = pool.get(BITS, seed=1, index=0)
        assert first is second
        assert pool.stats == {"memory_hits": 1, "disk_hits": 0, "generated": 1}

    def test_distinct_indices_distinct_keys(self):
        pool = KeypairPool()
        assert pool.get(BITS, seed=1, index=0).public != pool.get(BITS, seed=1, index=1).public

    def test_disk_round_trip(self, tmp_path):
        warm = KeypairPool(str(tmp_path))
        original = warm.get(BITS, seed=9, index=4)
        cold = KeypairPool(str(tmp_path))  # fresh process, warm disk
        loaded = cold.get(BITS, seed=9, index=4)
        assert cold.stats["disk_hits"] == 1
        assert cold.stats["generated"] == 0
        assert loaded.private == original.private
        # The CRT values are rebuilt on load, not read from the key file.
        crt = ("dp", "dq", "qinv")
        assert [getattr(loaded.private, f) for f in crt] == [
            getattr(original.private, f) for f in crt
        ]

    def test_corrupt_cache_file_regenerates(self, tmp_path):
        warm = KeypairPool(str(tmp_path))
        original = warm.get(BITS, seed=9, index=0)
        (files,) = list(tmp_path.iterdir())
        files.write_text("garbage\nnot a key\n")
        cold = KeypairPool(str(tmp_path))
        regenerated = cold.get(BITS, seed=9, index=0)
        assert cold.stats["generated"] == 1
        assert regenerated.private == original.private  # deterministic redo

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda key: (key.n, key.e, key.d + 2, key.p, key.q),
            lambda key: (key.n, key.e, key.d, 1, key.n),
        ],
        ids=["wrong-d", "trivial-factor"],
    )
    def test_key_file_with_inconsistent_values_regenerates(self, tmp_path, corrupt):
        """A well-formed entry with ``p * q == n`` whose ``d`` is not
        ``e``'s inverse mod (p-1)(q-1) would sign with signatures that
        never verify, and a factor of 1 would divide by zero: each is
        regenerated and overwritten, not served."""
        original = KeypairPool(str(tmp_path)).get(BITS, seed=9, index=0).private
        (path,) = list(tmp_path.iterdir())
        path.write_text("\n".join(
            str(value) for value in ("SOSKEY2", *corrupt(original))
        ) + "\n")
        cold = KeypairPool(str(tmp_path))
        served = cold.get(BITS, seed=9, index=0)
        assert cold.stats == {"memory_hits": 0, "disk_hits": 0, "generated": 1}
        assert served.private == original
        assert served.public.verify(b"m", served.private.sign(b"m"))
        assert KeypairPool(str(tmp_path)).get(BITS, seed=9, index=0).private == original

    def test_ca_entry_is_the_eager_ca_key_under_its_own_file(self, tmp_path):
        pool = KeypairPool(str(tmp_path))
        served = pool.get(BITS, seed=2017, index=CA_INDEX)
        direct = generate_keypair(BITS, rng=HmacDrbg.from_int(ca_drbg_seed(2017)))
        assert served.private == direct.private
        assert served.public != pool.get(BITS, seed=2017, index=0).public
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "rsa-512b-s2017-ca.key", "rsa-512b-s2017-i0.key",
        ]
        assert pool.get(BITS, seed=2017, index=CA_INDEX) is served
        cold = KeypairPool(str(tmp_path))
        assert cold.get(BITS, seed=2017, index=CA_INDEX).private == direct.private
        assert cold.stats == {"memory_hits": 0, "disk_hits": 1, "generated": 0}

    def test_corrupt_ca_key_file_regenerates(self, tmp_path):
        original = KeypairPool(str(tmp_path)).get(BITS, seed=9, index=CA_INDEX).private
        (path,) = list(tmp_path.iterdir())
        path.write_text("garbage\nnot a key\n")
        cold = KeypairPool(str(tmp_path))
        assert cold.get(BITS, seed=9, index=CA_INDEX).private == original
        assert cold.stats["generated"] == 1
        later = KeypairPool(str(tmp_path))  # the file was overwritten
        assert later.get(BITS, seed=9, index=CA_INDEX).private == original
        assert later.stats["disk_hits"] == 1

    def test_key_file_from_the_previous_generator_regenerates(self, tmp_path):
        """A well-formed key under the previous format's magic came from a
        generator that no longer makes it, so it is not served."""
        KeypairPool(str(tmp_path)).get(BITS, seed=9, index=0)
        (path,) = list(tmp_path.iterdir())
        stale = generate_keypair(BITS, rng=HmacDrbg.from_int(12345)).private
        path.write_text("\n".join(
            str(value) for value in ("SOSKEY1", stale.n, stale.e, stale.d, stale.p, stale.q)
        ) + "\n")
        cold = KeypairPool(str(tmp_path))
        regenerated = cold.get(BITS, seed=9, index=0)
        assert cold.stats["generated"] == 1
        assert cold.stats["disk_hits"] == 0
        direct = generate_keypair(BITS, rng=HmacDrbg.from_int(signup_drbg_seed(9, 0)))
        assert regenerated.private == direct.private

    def test_prefetch_counts_and_idempotence(self, tmp_path):
        pool = KeypairPool(str(tmp_path))
        assert pool.prefetch(BITS, seed=5, indices=range(3)) == 3
        assert pool.prefetch(BITS, seed=5, indices=range(3)) == 0
        later = KeypairPool(str(tmp_path))
        assert later.prefetch(BITS, seed=5, indices=range(3)) == 0  # disk warm
        assert later.stats["disk_hits"] == 3


class TestProvisionUser:
    def _cloud(self):
        return CloudService(rng=HmacDrbg.from_int(11), now=0.0, key_bits=1024)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown provisioning mode"):
            provision_user(self._cloud(), "alice", seed=1, index=0, now=0.0, mode="psychic")

    @pytest.mark.parametrize("mode", PROVISIONING_MODES)
    def test_all_modes_keystore_provisioned(self, mode):
        signup = provision_user(
            self._cloud(), "alice", seed=1, index=0, now=0.0, key_bits=1024, mode=mode
        )
        assert signup.keystore.provisioned

    def test_lazy_defers_until_first_use(self):
        cloud = self._cloud()
        signup = provision_user(
            cloud, "alice", seed=1, index=0, now=0.0, key_bits=1024, mode="lazy"
        )
        assert signup.certificate is None
        assert not signup.keystore.materialized
        assert cloud.stats["certificates_issued"] == 0
        # First private-key access pays keygen + issuance, exactly once.
        key = signup.keystore.private_key
        assert signup.keystore.materialized
        assert cloud.stats["certificates_issued"] == 1
        assert signup.keystore.own_certificate.public_key == key.public_key()
        assert cloud.account_for("alice").certificate_serial == 1

    def test_lazy_materialises_with_cloud_offline(self):
        """The D2D property: after sign-up the cloud goes dark, and the
        deferred issuance (a simulator optimisation) must still complete."""
        cloud = self._cloud()
        signup = provision_user(
            cloud, "alice", seed=1, index=0, now=0.0, key_bits=1024, mode="lazy"
        )
        cloud.online = False
        assert signup.keystore.private_key is not None
        assert signup.keystore.own_certificate.user_id == signup.user_id

    def test_lazy_certificate_byte_identical_to_eager(self):
        """Reserved serials + recorded sign-up time make the lazily-issued
        certificate the same bytes the eager flow would have produced."""
        eager_cloud = CloudService(rng=HmacDrbg.from_int(11), now=0.0, key_bits=1024)
        lazy_cloud = CloudService(rng=HmacDrbg.from_int(11), now=0.0, key_bits=1024)
        eager = provision_user(
            eager_cloud, "alice", seed=4, index=0, now=0.0, key_bits=1024, mode="eager"
        )
        lazy = provision_user(
            lazy_cloud, "alice", seed=4, index=0, now=0.0, key_bits=1024, mode="lazy"
        )
        assert lazy.keystore.own_certificate.encode() == eager.certificate.encode()

    def test_failed_materialisation_raises_every_time(self):
        """Regression: a failing materialiser must raise on *every*
        access, not fail once and then degrade to None credentials."""
        from repro.pki.keystore import KeyStore

        cloud = self._cloud()
        keystore = KeyStore()
        calls = []

        def explode():
            calls.append(1)
            raise RuntimeError("keygen backend down")

        keystore.provision_deferred(explode, root=cloud.root_certificate)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="keygen backend down"):
                keystore.private_key
        assert len(calls) == 2  # retried, not silently dropped
        assert not keystore.materialized

    def test_pooled_uses_the_pool(self, tmp_path):
        pool = KeypairPool(str(tmp_path))
        signup = provision_user(
            self._cloud(),
            "alice",
            seed=2,
            index=0,
            now=0.0,
            key_bits=1024,
            mode="pooled",
            pool=pool,
        )
        assert pool.stats["generated"] == 1
        assert signup.keystore.private_key == pool.get(1024, 2, 0).private

    def test_pooled_sign_up_builds_no_drbg(self, monkeypatch):
        """The pool supplies the key pair, so a pooled sign-up has nothing
        to draw from a DRBG of its own."""
        cloud = self._cloud()
        pool = KeypairPool()
        keypair = pool.get(BITS, 2, 0)
        built = []
        original = HmacDrbg.__init__

        def counted(drbg, seed):
            built.append(seed)
            original(drbg, seed)

        monkeypatch.setattr(HmacDrbg, "__init__", counted)
        signup = provision_user(
            cloud, "alice", seed=2, index=0, now=0.0, key_bits=BITS, mode="pooled", pool=pool
        )
        assert built == []
        assert signup.keystore.private_key == keypair.private

    def test_sign_up_needs_a_key_pair_or_a_drbg(self, keygens):
        """Neither is an error, not a silent fall back to OS entropy."""
        from repro.alleyoop.signup import sign_up

        cloud = self._cloud()
        made = len(keygens)  # the CA's key pair
        with pytest.raises(ValueError, match="key pair or a DRBG"):
            sign_up(cloud, "alice", rng=None, now=0.0, keypair=None)
        assert len(keygens) == made

    def test_lazy_materialises_from_the_pool(self, tmp_path):
        pool = KeypairPool(str(tmp_path))
        signup = provision_user(
            self._cloud(), "alice", seed=2, index=0, now=0.0, key_bits=1024,
            mode="lazy", pool=pool,
        )
        assert pool.stats["generated"] == 0
        key = signup.keystore.private_key
        assert pool.stats["generated"] == 1
        assert key == pool.get(1024, 2, 0).private


class TestConfigValidation:
    def test_scenario_config_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="provisioning"):
            ScenarioConfig(provisioning="telepathy")

    def test_density_sweep_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            DensitySweep(workers=0)


class TestStudyIntegration:
    BASE = dict(num_users=4, duration_days=1, total_posts=12, seed=77)

    def test_three_modes_trace_identical(self, tmp_path):
        traces = {}
        materialized = {}
        for mode in PROVISIONING_MODES:
            study = GainesvilleStudy(
                ScenarioConfig(provisioning=mode, key_cache_dir=str(tmp_path), **self.BASE)
            )
            result = study.run()
            traces[mode] = trace_lines(study.sim)
            materialized[mode] = result.security_stats["keystores_materialized"]
        assert traces["eager"] == traces["pooled"] == traces["lazy"]
        assert any("|message|" in line for line in traces["eager"])
        assert materialized["eager"] == self.BASE["num_users"]
        assert materialized["lazy"] <= self.BASE["num_users"]

    def test_trace_does_not_depend_on_key_bytes(self, tmp_path):
        """Keys generated from other seeds, served from the disk cache as
        the smoke_default users' and CA's keys, reproduce the committed
        trace sha: no key byte reaches the trace, so a change to key
        generation leaves every pinned digest in place."""
        repo = Path(__file__).resolve().parent.parent
        baseline = json.loads((repo / "BENCH_default.json").read_text())
        runs = [run for run in baseline["runs"] if run["name"] == "smoke_default"]
        (expected,) = {run["trace_sha256"] for run in runs}
        config = scenario_config(
            dict(runs[0]["config"], provisioning="pooled", key_cache_dir=str(tmp_path))
        )
        pool = KeypairPool(str(tmp_path))
        for index in range(config.num_users):
            rng = HmacDrbg.from_int(signup_drbg_seed(config.seed + 1, index))
            pool._store(config.key_bits, config.seed, index,
                        generate_keypair(config.key_bits, rng=rng))
        rng = HmacDrbg.from_int(ca_drbg_seed(config.seed + 1))
        pool._store(config.key_bits, config.seed, CA_INDEX,
                    generate_keypair(config.key_bits, rng=rng))
        study = GainesvilleStudy(config)
        study.run()
        assert study.keypair_pool.stats["disk_hits"] == config.num_users + 1
        assert study.keypair_pool.stats["generated"] == 0
        assert trace_sha256(study.sim) == expected

    def test_pooled_study_reuses_disk_cache(self, tmp_path):
        config = ScenarioConfig(
            provisioning="pooled", key_cache_dir=str(tmp_path), **self.BASE
        )
        # Every user's entry and the CA's.
        first = GainesvilleStudy(config)
        first.build()
        assert first.keypair_pool.stats["generated"] == self.BASE["num_users"] + 1
        second = GainesvilleStudy(config)
        second.build()
        assert second.keypair_pool.stats["generated"] == 0
        assert second.keypair_pool.stats["disk_hits"] == self.BASE["num_users"] + 1

    @pytest.mark.parametrize("mode", ["pooled", "lazy"])
    def test_warm_build_generates_no_key(self, mode, tmp_path, keygens):
        GainesvilleStudy(ScenarioConfig(
            provisioning="pooled", key_cache_dir=str(tmp_path), **self.BASE
        )).build()
        del keygens[:]
        study = GainesvilleStudy(ScenarioConfig(
            provisioning=mode, key_cache_dir=str(tmp_path), **self.BASE
        ))
        study.build()
        assert keygens == []
        assert study.keypair_pool.stats["generated"] == 0

    @pytest.mark.parametrize("cached", [False, True], ids=["memory", "disk"])
    def test_ca_root_certificate_is_the_eager_one(self, cached, tmp_path):
        """The pool serves the CA exactly the key pair it generates for
        itself under eager provisioning, so its root certificate (and
        every certificate it signs) is the same bytes.  With a disk
        cache the pooled build generates the entry and the lazy build
        reads it back."""
        config = dict(self.BASE, num_users=3, total_posts=0, key_bits=BITS)
        eager = GainesvilleStudy(ScenarioConfig(provisioning="eager", **config))
        eager.build()
        for mode in ("pooled", "lazy"):
            study = GainesvilleStudy(ScenarioConfig(
                provisioning=mode, key_cache_dir=str(tmp_path) if cached else None, **config
            ))
            study.build()
            assert study.cloud.root_certificate.encode() == eager.cloud.root_certificate.encode()

    def test_key_cache_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        """``key_cache_dir`` is the one way to name a key cache, so the
        config records whether a build could serve keys from disk: an
        exported ``REPRO_KEY_CACHE`` is neither read nor written."""
        cache = tmp_path / "env-cache"
        cache.mkdir()
        monkeypatch.setenv("REPRO_KEY_CACHE", str(cache))
        study = GainesvilleStudy(ScenarioConfig(provisioning="pooled", **self.BASE))
        study.build()
        assert study.keypair_pool.cache_dir is None
        assert study.keypair_pool.stats["generated"] == self.BASE["num_users"] + 1
        assert list(cache.iterdir()) == []

    def test_parallel_sweep_matches_serial(self, tmp_path):
        base = ScenarioConfig(
            num_users=4, duration_days=1, total_posts=10, seed=31,
            provisioning="pooled", key_cache_dir=str(tmp_path),
        )
        serial = DensitySweep(base_config=base, populations=(4, 5), workers=1)
        parallel = DensitySweep(base_config=base, populations=(4, 5), workers=2)
        points = parallel.run()
        assert [point.num_users for point in points] == [4, 5]
        assert serial.run() == points

    def test_sweep_over_one_cache_generates_the_ca_key_once(self, tmp_path, keygens):
        base = ScenarioConfig(
            num_users=4, duration_days=1, total_posts=10, seed=31,
            provisioning="pooled", key_cache_dir=str(tmp_path),
        )
        DensitySweep(base_config=base, populations=(4, 5)).run()
        ca_public = generate_keypair(
            base.key_bits, rng=HmacDrbg.from_int(ca_drbg_seed(base.seed))
        ).public
        assert [keypair.public for keypair in keygens].count(ca_public) == 1
        assert len(keygens) == 5 + 1  # every user once, and the CA

    def test_sweep_point_is_pure(self, tmp_path):
        config = ScenarioConfig(
            num_users=4, duration_days=1, total_posts=10, seed=31,
            provisioning="lazy", key_cache_dir=str(tmp_path),
        )
        assert _run_sweep_point(config) == _run_sweep_point(config)
