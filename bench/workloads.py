"""The clonebench benchmark workloads: inputs, one unit of work, correctness gates, digests.

Each workload makes its inputs from the run's seed with its own generators
(a numpy ``SeedSequence`` over the seed and a label; ``clonebench.rng`` is not
used, so a change to it cannot change the inputs) and hands the program only
those inputs.  The program is always called through module attributes or
class methods, so the tracer's patches see every call.  Sizes follow the
matching ``repro`` experiments but are written here: editing ``repro.py``
cannot shrink a workload.

A workload has two timed parts.  ``setup()`` builds the devices, structures,
helpers and stores.  ``run(state, tally, seconds)`` does one unit of work
(``identify``: ``unit_rounds`` rounds; ``analysis``: one pass; ``clone-attack``:
one campaign) and, given ``seconds``, keeps going for that long.  It returns
every operation's latency and the digest of the first unit.  Units are
deterministic, so the digest is the same for every run of one seed, traced or
not, and equal digests on two commits mean bit-identical outputs.
"""
from __future__ import annotations

import hashlib
import statistics
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from clonebench import BitString, acoustic, attacks, fuzzy, protocol, puf, suc, trails

_MASK64 = (1 << 64) - 1
#: a timed batch run makes at least this many passes, so its median is not one
#: pass's, but starts none after PASS_LIMIT_S, so that it still ends within a
#: few minutes when the program is several times slower
MIN_PASSES = 5
PASS_LIMIT_S = 100.0


def stream(seed: int, *labels) -> np.random.Generator:
    """The benchmark's own seeded input stream for (seed, labels)."""
    words = [seed & _MASK64] + [zlib.crc32(str(label).encode()) for label in labels]
    return np.random.default_rng(np.random.SeedSequence(words))


def _seed_from(rng) -> int:
    return int(rng.integers(0, 2**63))


def _bits(bitstring) -> bytes:
    return np.packbits(bitstring.bits).tobytes()


class Tally:
    """Operations attempted and failed; the first few failures are kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return bool(ok)

    def error(self, what: str, exc: Exception, ops: int = 1) -> None:
        """An operation (or `ops` gates) that raised instead of returning."""
        for _ in range(ops):
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class RunResult:
    op_times: list  # seconds per operation
    loop_s: float  # wall time of the whole loop
    digest: str  # of the first unit
    report: dict = field(default_factory=dict)
    crps_remaining: int = 0


# =========================================================================== identify
#: share of draws per round class.  Genuine forward is well above half, so the
#: median falls inside it.  A "pinned" draw is two rounds: verify_challenge on the
#: last unused record of a forward store, then the same challenge replayed.  Both
#: scan the whole store, so they are the slowest rounds, ~2.4% of rounds each;
#: p99 falls inside the pinned rounds with no class boundary near it.
ROUND_MIX = (
    ("forward", 0.62),
    ("inverse", 0.14),
    ("impostor", 0.08),
    ("tampered", 0.08),
    ("combined", 0.055),
    ("pinned", 0.025),
)
TAU = 0.25  # fingerprint fraction the structural path may correct
STRUCTURAL_DOF_BITS = 200.0  # structural entropy declared to combined_verify
SUC_KEY_BITS = 80


@dataclass(frozen=True)
class IdentifySizes:
    devices: int = 4
    # a store holds this many CRPs after each refill; pinned rounds scan all of them
    forward_crps: int = 4000
    inverse_crps: int = 1000
    # rounds between checkpoints, each of which saves, reloads and refills one
    # device's two stores (round-robin over the fleet)
    checkpoint_every: int = 500
    unit_rounds: int = 1000  # rounds in the digest and in one traced unit


@dataclass
class _Member:
    device: object
    channel: object
    structure: object
    enrolled: np.ndarray  # noiseless fingerprint bits the helper was made from
    helper: object
    noise: np.random.Generator
    stores: dict  # mode -> CrpStore
    unused: dict  # mode -> unused records, as the rounds run so far imply
    tail: int = 0  # index of the last unused forward record


class IdentifyWorkload:
    """Closed loop, one client: the authority's online identification path."""

    name = "identify"

    def __init__(self, seed: int, workdir, sizes: IdentifySizes = IdentifySizes()):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self.params = suc.SucParams()
        self.enroll_s = 0.0
        self.enroll_crps = 0

    def _enroll(self, member, mode, rng, store) -> list:
        """Enroll fresh CRPs until `store` holds the mode's capacity, all unused, and
        put it in use; returns the new records."""
        capacity = self.sizes.forward_crps if mode == protocol.FORWARD else self.sizes.inverse_crps
        records = store.device_records(member.device.device_id)
        held = len(records)
        if held < capacity:
            start = time.perf_counter()
            self.enroll_crps += protocol.enroll(member.device, capacity - held, rng, store)
            self.enroll_s += time.perf_counter() - start
        member.stores[mode] = store
        member.unused[mode] = capacity
        if mode == protocol.FORWARD:
            member.tail = capacity - 1
        return records[held:]

    def _refill(self, member, mode, rng) -> list:
        """Replace the store in use by a fresh one holding its unused records, topped
        up by enrolling as many CRPs as were consumed.  Enrollment keeps pace with
        consumption, on the blocking path, and the scanned set keeps its size."""
        did = member.device.device_id
        fresh = protocol.CrpStore(mode=mode)
        fresh.records[did] = [rec for rec in member.stores[mode].records[did] if not rec.used]
        return self._enroll(member, mode, rng, fresh)

    def setup(self):
        seed = self.seed
        code = fuzzy.design_repetition(0.10, 1e-3, 17)  # the 255-bit structural code
        enroll_rng = stream(seed, "identify", "enroll")
        members = []
        for i in range(self.sizes.devices):
            device = suc.personalize(self.params, stream(seed, "identify", "device", i), f"ecu-{i}")
            structure = acoustic.structure_new(_seed_from(stream(seed, "identify", "structure", i)))
            enrolled = acoustic.fingerprint(structure).bits.bits[: code.code_len].copy()
            _, helper = fuzzy.fe_generate(BitString(enrolled), code, 128, stream(seed, "identify", "fe", i))
            member = _Member(
                device=device,
                channel=protocol.DeviceChannel(protocol.SucAgent(device)),
                structure=structure,
                enrolled=enrolled,
                helper=helper,
                noise=stream(seed, "identify", "noise", i),
                stores={},
                unused={},
            )
            for mode in (protocol.FORWARD, protocol.INVERSE):
                self._enroll(member, mode, enroll_rng, protocol.CrpStore(mode=mode))
            members.append(member)
        impostor = protocol.DeviceChannel(protocol.RandomAgent(stream(seed, "identify", "impostor")))
        return {
            "members": members,
            "impostor": impostor,
            "code": code,
            "enroll_rng": enroll_rng,
            "rounds": stream(seed, "identify", "rounds"),
        }

    def _draws(self, rng):
        kinds = [k for k, _ in ROUND_MIX]
        shares = [s for _, s in ROUND_MIX]
        while True:
            kind_idx = rng.choice(len(kinds), size=1024, p=shares)
            devices = rng.integers(0, self.sizes.devices, 1024)
            for k, d in zip(kind_idx, devices):
                yield kinds[k], int(d)

    def _expected_combined(self, member, measured, code):
        """Independent oracle for the structural path: accept iff every repetition
        block has a minority of flips and the flipped fraction is within TAU."""
        flips = measured.bits.bits[: code.code_len] ^ member.enrolled
        per_block = flips.reshape(code.n_blocks, code.n_rep).sum(axis=1)
        return bool(np.all(per_block <= code.n_rep // 2)) and flips.sum() / code.code_len <= TAU

    def _checkpoint(self, member, mode, tally, path):
        store = member.stores[mode]
        protocol.save_store(store, path)
        loaded = protocol.load_store(path)
        did = member.device.device_id
        saved = store.records[did]
        got = loaded.records.get(did, [])
        same = loaded.mode == store.mode and len(got) == len(saved) and all(
            a.used == b.used
            and a.challenge.bits.tobytes() == b.challenge.bits.tobytes()
            and a.response.bits.tobytes() == b.response.bits.tobytes()
            for a, b in zip(saved, got)
        )
        tally.check(same, f"checkpoint {did}/{mode}: reloaded records differ")
        tally.check(
            loaded.count_unused(did) == member.unused[mode],
            f"checkpoint {did}/{mode}: {loaded.count_unused(did)} unused, expected {member.unused[mode]}",
        )
        member.stores[mode] = loaded

    def run(self, state, tally, seconds=None) -> RunResult:
        sizes = self.sizes
        members = state["members"]
        code = state["code"]
        rng = state["rounds"]
        draws = self._draws(rng)
        clock = time.perf_counter
        digest = hashlib.sha256()
        for m in members:
            for store in m.stores.values():
                for rec in store.records[m.device.device_id]:
                    digest.update(_bits(rec.challenge) + _bits(rec.response))
        times = []
        class_times = {k: [] for k, _ in ROUND_MIX}
        class_times["replay"] = []
        checkpoints = 0
        start = clock()
        deadline = None if seconds is None else start + seconds

        def record(kind, member_idx, verdict, elapsed, expect_accept, expect_reason):
            times.append(elapsed)
            class_times[kind].append(elapsed)
            if len(times) <= sizes.unit_rounds:
                digest.update(f"{kind}:{member_idx}:{verdict.verdict}:{verdict.reason};".encode())
            want = "accept" if expect_accept else "reject"
            tally.check(
                verdict.verdict == want and verdict.reason == expect_reason,
                f"round {len(times)} {kind} ecu-{member_idx}: {verdict.verdict}/{verdict.reason}, "
                f"expected {want}/{expect_reason}",
            )

        while len(times) < sizes.unit_rounds or (deadline is not None and clock() < deadline):
            kind, i = next(draws)
            m = members[i]
            did = m.device.device_id
            fwd = m.stores[protocol.FORWARD]
            try:
                if kind in ("forward", "impostor", "tampered"):
                    if kind == "forward":
                        channel = m.channel
                    elif kind == "impostor":
                        channel = state["impostor"]
                    else:
                        flips = rng.choice(64, size=int(rng.integers(1, 4)), replace=False)
                    t0 = clock()
                    if kind == "tampered":
                        channel = protocol.tamper_channel(m.channel, [int(f) for f in flips])
                    verdict = protocol.identify(fwd, channel, did)
                    elapsed = clock() - t0
                    if kind == "forward":
                        record(kind, i, verdict, elapsed, True, protocol.REASON_MATCH)
                    else:
                        record(kind, i, verdict, elapsed, False, protocol.REASON_MISMATCH)
                    m.unused[protocol.FORWARD] -= 1
                elif kind == "inverse":
                    t0 = clock()
                    verdict = protocol.identify(m.stores[protocol.INVERSE], m.channel, did)
                    elapsed = clock() - t0
                    record(kind, i, verdict, elapsed, True, protocol.REASON_MATCH)
                    m.unused[protocol.INVERSE] -= 1
                elif kind == "combined":
                    t0 = clock()
                    measured = acoustic.fingerprint(m.structure, rng=m.noise)
                    verdict = protocol.combined_verify(
                        fwd, m.helper, measured, m.channel, did, TAU,
                        structural_dof_bits=STRUCTURAL_DOF_BITS, suc_key_bits=SUC_KEY_BITS,
                    )
                    elapsed = clock() - t0
                    ok = self._expected_combined(m, measured, code)
                    if len(times) < sizes.unit_rounds:
                        digest.update(_bits(measured.bits))
                    record(kind, i, verdict, elapsed, ok, protocol.REASON_MATCH if ok else protocol.REASON_MISMATCH)
                    tally.check(
                        verdict.entropy_bits == STRUCTURAL_DOF_BITS + SUC_KEY_BITS,
                        f"combined entropy {verdict.entropy_bits}",
                    )
                    if ok:
                        m.unused[protocol.FORWARD] -= 1
                else:  # pinned, then its replay
                    records = fwd.records[did]
                    while records[m.tail].used:
                        m.tail -= 1
                    challenge = records[m.tail].challenge
                    t0 = clock()
                    verdict = protocol.verify_challenge(fwd, m.channel, did, challenge)
                    elapsed = clock() - t0
                    record("pinned", i, verdict, elapsed, True, protocol.REASON_MATCH)
                    t0 = clock()
                    verdict = protocol.verify_challenge(fwd, m.channel, did, challenge)
                    elapsed = clock() - t0
                    record("replay", i, verdict, elapsed, False, protocol.REASON_REPLAY)
                    m.unused[protocol.FORWARD] -= 1
            except Exception as exc:  # an operation that raised counts as failed
                times.append(0.0)
                tally.error(f"round {len(times)} {kind} ecu-{i}", exc)
            n = len(times)
            if n // sizes.checkpoint_every > checkpoints:
                member = members[checkpoints % len(members)]
                checkpoints += 1
                for mode in (protocol.FORWARD, protocol.INVERSE):
                    try:
                        self._checkpoint(member, mode, tally, self.workdir / f"{member.device.device_id}-{mode}.json")
                        enrolled = self._refill(member, mode, state["enroll_rng"])
                    except Exception as exc:
                        tally.error(f"checkpoint {member.device.device_id}/{mode}", exc, ops=2)
                        continue
                    if checkpoints <= sizes.unit_rounds // sizes.checkpoint_every:
                        for rec in enrolled:
                            digest.update(_bits(rec.challenge) + _bits(rec.response))
        wall = clock() - start
        report = {
            "rounds": len(times),
            "rounds_per_s": len(times) / wall,
            "checkpoints": checkpoints,
            "enroll_crps_per_s": self.enroll_crps / self.enroll_s if self.enroll_s else 0.0,
            "class_rounds": {k: len(v) for k, v in class_times.items()},
            "class_p50_ms": {k: 1e3 * float(np.median(v)) for k, v in class_times.items() if v},
        }
        remaining = sum(
            m.stores[mode].count_unused(m.device.device_id) for m in members for mode in m.stores
        )
        return RunResult(times, wall, digest.hexdigest(), report, remaining)


# =========================================================================== analysis
STRUCTURES = 1000  # acoustic structures in the DoF estimate, and i.i.d. control rows


@dataclass(frozen=True)
class AnalysisSizes:
    sbox_batch: int = 20_000  # per Monte-Carlo entropy batch, two batches
    trails: int = 1000
    fe_trials: int = 1000
    roundtrip_blocks: int = 4096


class AnalysisWorkload:
    """Batch, one pass per unit: the offline security and entropy bounds."""

    name = "analysis"
    gates = 9  # per pass, including the determinism check

    def __init__(self, seed: int, workdir=None, sizes: AnalysisSizes = AnalysisSizes()):
        self.seed = seed
        self.sizes = sizes
        self.params = suc.SucParams()
        rng = stream(seed, "analysis", "inputs")
        self.structure_seeds = [_seed_from(rng) for _ in range(STRUCTURES)]
        self.control = rng.integers(0, 2, (STRUCTURES, 256), dtype=np.uint8)
        self.blocks = rng.integers(0, 2**63, sizes.roundtrip_blocks, dtype=np.uint64)
        self.fe_flip_rng_seed = _seed_from(rng)

    def setup(self):
        seed = self.seed
        device = suc.personalize(self.params, stream(seed, "analysis", "trail-dev"), "trail-dev")
        code = fuzzy.design_repetition(0.25, 1e-6, 128)  # a 14208-bit code
        fe_rng = stream(seed, "analysis", "fe")
        w = BitString.random(code.code_len, fe_rng)
        key, helper = fuzzy.fe_generate(w, code, 128, fe_rng)
        return {
            "device": device,
            "sboxes": np.array(suc.descriptor_dict(device)["sboxes"], dtype=np.uint8),
            "w": w,
            "key": key,
            "helper": helper,
            "code": code,
        }

    def _pass(self, state, tally) -> str:
        seed, sizes, params = self.seed, self.sizes, self.params
        digest = hashlib.sha256()
        ent_a = suc.sbox_entropy_bits(sizes.sbox_batch, stream(seed, "analysis", "sbox-a"), params)
        ent_b = suc.sbox_entropy_bits(sizes.sbox_batch, stream(seed, "analysis", "sbox-b"), params)
        cardinality = params.key_bits + params.rounds * ent_a.h_bits
        tally.check(cardinality >= 274.0, f"cardinality {cardinality:.2f} < 274 bits")
        tally.check(abs(ent_a.h_bits - ent_b.h_bits) <= 0.5, f"batch gap {abs(ent_a.h_bits - ent_b.h_bits):.3f}")
        digest.update(f"sbox:{ent_a.accepted}:{ent_b.accepted};".encode())

        active = trails.min_active_sboxes(params.permutation, params.rounds)
        tally.check(active >= params.rounds, f"min active {active} < {params.rounds} rounds")
        totals = trails.sample_trail_actives(
            state["sboxes"], params.permutation, params.rounds, sizes.trails, stream(seed, "analysis", "trails")
        )
        tally.check(len(totals) == sizes.trails and bool(np.all(totals >= active)), "sampled trail below min active")
        digest.update(f"active:{active};".encode() + np.asarray(totals, dtype=np.int64).tobytes())

        w, key, helper, code = state["w"], state["key"], state["helper"], state["code"]
        flips = np.random.default_rng(self.fe_flip_rng_seed)
        recovered = np.zeros(sizes.fe_trials, dtype=np.uint8)
        for t in range(sizes.fe_trials):
            noisy = w.bits ^ (flips.random(code.code_len) < 0.25).astype(np.uint8)
            out = fuzzy.fe_reproduce(BitString(noisy), helper)
            recovered[t] = out is not None and out.key == key.key
        tally.check(recovered.sum() >= sizes.fe_trials - 1, f"key recovered {recovered.sum()}/{sizes.fe_trials}")
        digest.update(np.packbits(recovered).tobytes())

        fps = [acoustic.fingerprint(acoustic.structure_new(s)) for s in self.structure_seeds]
        estimate = acoustic.structural_entropy_estimate(fps)
        control = acoustic.dof_estimate(self.control)
        tally.check(estimate.dof_bits > 200.0, f"structural DoF {estimate.dof_bits:.1f} <= 200")
        tally.check(abs(control.dof_bits - 256.0) <= 0.05 * 256.0, f"control DoF {control.dof_bits:.1f}")
        for fp in fps:
            digest.update(_bits(fp.bits))

        cipher = state["device"].encrypt_blocks(self.blocks)
        plain = state["device"].decrypt_blocks(cipher)
        tally.check(np.array_equal(plain, self.blocks), "decrypt(encrypt(x)) != x")
        digest.update(np.asarray(cipher, dtype=np.uint64).tobytes())
        return digest.hexdigest()

    def run(self, state, tally, seconds=None) -> RunResult:
        return _batch_run(self, state, tally, seconds)


# =========================================================================== clone-attack
ARBITER_STAGES = 64
ARBITER_TRAIN = 5000  # CRPs the arbiter model is trained on
TEST_CRPS = 2000  # fresh CRPs each model is evaluated on
EPOCHS = 500


@dataclass(frozen=True)
class AttackSizes:
    suc_train: int = 100_000  # cipher-bit CRPs the model is trained on
    auth_trials: int = 500  # per device, genuine and clone


class CloneAttackWorkload:
    """Batch, one campaign per unit: the adversary's modeling and readout attacks."""

    name = "clone-attack"
    gates = 6  # per campaign, including the determinism check

    def __init__(self, seed: int, workdir=None, sizes: AttackSizes = AttackSizes()):
        self.seed = seed
        self.sizes = sizes

    def setup(self):
        seed = self.seed
        arbiter = puf.arbiter_new(ARBITER_STAGES, _seed_from(stream(seed, "attack", "arbiter")))
        device = suc.personalize(suc.SucParams(), stream(seed, "attack", "suc-dev"), "attack-suc")
        code = fuzzy.design_repetition(0.06, 1e-3, 32)  # a 352-bit code
        sram = puf.sram_new(code.code_len, _seed_from(stream(seed, "attack", "sram")))
        enrolled = BitString(puf.sram_reference(sram).bits[: code.code_len])
        key, helper = fuzzy.fe_generate(enrolled, code, 128, stream(seed, "attack", "fe"))
        return {
            "arbiter": attacks.ArbiterTarget(arbiter),
            "suc_device": device,
            "suc": attacks.SucBitTarget(device),
            "sram": sram,
            "code": code,
            "key": key,
            "helper": helper,
        }

    def _auth(self, state, device, label):
        rng = stream(self.seed, "attack", label)
        n = state["code"].code_len
        accepted = np.zeros(self.sizes.auth_trials, dtype=np.uint8)
        for t in range(self.sizes.auth_trials):
            reading = puf.sram_startup(device, rng=rng)
            out = fuzzy.fe_reproduce(BitString(reading.bits[:n]), state["helper"])
            accepted[t] = out is not None and out.key == state["key"].key
        return accepted

    def _pass(self, state, tally) -> str:
        seed, sizes = self.seed, self.sizes
        digest = hashlib.sha256()
        reports = {}
        for label, n_train in (("arbiter", ARBITER_TRAIN), ("suc", sizes.suc_train)):
            target = state[label]
            data = attacks.collect_crps(target, n_train, stream(seed, "attack", label, "train"))
            model = attacks.train_model(data, epochs=EPOCHS)
            reports[label] = attacks.eval_model(model, target, TEST_CRPS, stream(seed, "attack", label, "test"))
            digest.update(np.packbits(data.responses).tobytes())
        arb, cipher = reports["arbiter"].accuracy, reports["suc"].accuracy
        tally.check(arb >= 0.95, f"arbiter accuracy {arb:.4f} < 0.95")
        tally.check(0.45 <= cipher <= 0.55, f"cipher-bit accuracy {cipher:.4f} outside [0.45, 0.55]")

        clone = attacks.readout_clone(state["sram"])
        same = puf.sram_reference(clone) == puf.sram_reference(state["sram"])
        tally.check(same, "readout clone reference differs from the target")
        genuine = self._auth(state, state["sram"], "auth-genuine")
        cloned = self._auth(state, clone, "auth-clone")
        gap = abs(genuine.mean() - cloned.mean())
        tally.check(gap <= 0.02, f"clone auth rate {cloned.mean():.3f} vs genuine {genuine.mean():.3f}")
        digest.update(_bits(puf.sram_reference(clone)) + np.packbits(genuine).tobytes() + np.packbits(cloned).tobytes())
        try:
            attacks.readout_clone(state["suc_device"])
            blocked = False
        except TypeError:
            blocked = True
        tally.check(blocked, "cipher device allowed a readout clone")
        return digest.hexdigest()

    def run(self, state, tally, seconds=None) -> RunResult:
        return _batch_run(self, state, tally, seconds)


def _more_passes(times, start, seconds) -> bool:
    """One pass untimed.  Timed: another pass while the median pass still ends within
    `seconds`, and while fewer than MIN_PASSES ran and under PASS_LIMIT_S passed."""
    if not times:
        return True
    if seconds is None:
        return False
    elapsed = time.perf_counter() - start
    if len(times) < MIN_PASSES:
        return elapsed < PASS_LIMIT_S
    return elapsed + statistics.median(times) <= seconds


def _batch_run(workload, state, tally, seconds) -> RunResult:
    """Whole passes, each of which must reproduce the first."""
    times, first = [], None
    clock = time.perf_counter
    start = clock()
    while _more_passes(times, start, seconds):
        t0 = clock()
        try:
            digest = workload._pass(state, tally)
        except Exception as exc:
            times.append(clock() - t0)
            tally.error(f"{workload.name} pass {len(times)}", exc, ops=workload.gates)
            continue
        times.append(clock() - t0)
        first = first or digest
        tally.check(digest == first, f"{workload.name} pass {len(times)} digest differs from pass 1")
    return RunResult(times, clock() - start, first or "", {"unit_s": times})


WORKLOADS = {w.name: w for w in (IdentifyWorkload, AnalysisWorkload, CloneAttackWorkload)}
