import numpy as np
import pytest

from clonebench import BitString, substream
from clonebench import attacks, fuzzy, puf, suc


def _arbiter_target(seed=1, stages=64):
    return puf.arbiter_new(stages, seed)


# ----------------------------------------------------------------- datasets
def test_collect_shapes_and_determinism():
    target = _arbiter_target()
    a = attacks.collect_crps(target, 100, substream(2, "d"))
    b = attacks.collect_crps(target, 100, substream(2, "d"))
    assert a.challenges.shape == (100, 64)
    assert len(a) == 100
    assert np.array_equal(a.challenges, b.challenges)
    assert np.array_equal(a.responses, b.responses)


def test_collect_response_uniformity():
    data = attacks.collect_crps(_arbiter_target(seed=3), 20_000, substream(4, "d"))
    assert 0.45 <= data.responses.mean() <= 0.55


def test_collect_validates_count():
    with pytest.raises(ValueError):
        attacks.collect_crps(_arbiter_target(), 0, substream(0, "d"))


# ----------------------------------------------------------------- training
def test_gradient_matches_central_differences():
    rng = substream(5, "g")
    X = puf.parity_transform(rng.integers(0, 2, (40, 8), dtype=np.uint8))
    y = rng.integers(0, 2, 40).astype(np.float64)
    w = rng.standard_normal(9) * 0.3
    _, grad = attacks.logistic_loss_and_grad(w, X, y)
    eps = 1e-6
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += eps
        down[i] -= eps
        numeric = (attacks.logistic_loss_and_grad(up, X, y)[0] - attacks.logistic_loss_and_grad(down, X, y)[0]) / (2 * eps)
        assert abs(numeric - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))


def test_loss_non_increasing_at_small_steps():
    data = attacks.collect_crps(_arbiter_target(seed=6), 2000, substream(7, "d"))
    model = attacks.train_model(data, epochs=150, learning_rate=0.1)
    assert np.all(np.diff(model.loss_history) <= 1e-12)


def test_training_on_constant_responses_predicts_constant():
    target = _arbiter_target(seed=8)
    challenges = substream(9, "d").integers(0, 2, (500, 64), dtype=np.uint8)
    for constant in (0, 1):
        data = attacks.CrpDataset(challenges, np.full(500, constant, np.uint8), "constant")
        model = attacks.train_model(data, epochs=50, learning_rate=0.1)
        fresh = substream(10, "f").integers(0, 2, (200, 64), dtype=np.uint8)
        assert np.all(attacks.predict(model, fresh) == constant)


def test_known_weight_vector_recovered():
    # noiseless labels from a linear-threshold device; 100*n samples train it out
    target = _arbiter_target(seed=11)
    data = attacks.collect_crps(target, 100 * 64, substream(12, "d"))
    model = attacks.train_model(data, epochs=2000, learning_rate=2.0)
    report = attacks.eval_model(model, target, 4000, substream(13, "t"))
    assert report.accuracy >= 0.99


def test_train_floor():
    data = attacks.collect_crps(_arbiter_target(), 5, substream(14, "d"))
    with pytest.raises(ValueError):
        attacks.train_model(data)


def test_eval_on_training_set_not_worse_than_fresh():
    target = _arbiter_target(seed=15)
    data = attacks.collect_crps(target, 3000, substream(16, "d"))
    model = attacks.train_model(data)
    train_acc = np.mean(attacks.predict(model, data.challenges) == data.responses)
    fresh = attacks.eval_model(model, target, 3000, substream(17, "t"))
    assert train_acc >= fresh.accuracy


def test_eval_model_floor():
    target = _arbiter_target()
    data = attacks.collect_crps(target, 100, substream(18, "d"))
    model = attacks.train_model(data, epochs=10)
    with pytest.raises(ValueError):
        attacks.eval_model(model, target, 99, substream(19, "t"))


# ----------------------------------------------------------------- asymmetry
def test_xor_arbiter_attack_scope():
    with pytest.raises(ValueError):
        attacks.collect_crps(puf.xor_arbiter_new(32, 5, 20), 100, substream(20, "d"))


def test_xor_arbiter_target_runs_through_pipeline():
    # the linear attacker stays near chance for k >= 2 (XOR of threshold units is
    # not linear in the parity features); the pipeline itself must still run
    target = puf.xor_arbiter_new(32, 2, 21)
    data = attacks.collect_crps(target, 8000, substream(22, "d"))
    model = attacks.train_model(data, epochs=200, learning_rate=1.0)
    report = attacks.eval_model(model, target, 2000, substream(23, "t"))
    assert report.target == "xor_arbiter_k2"
    assert 0.45 <= report.accuracy <= 1.0

    single = puf.xor_arbiter_new(32, 1, 24)
    data = attacks.collect_crps(single, 8000, substream(25, "d"))
    model = attacks.train_model(data, epochs=400, learning_rate=1.0)
    report = attacks.eval_model(model, single, 2000, substream(26, "t"))
    assert report.accuracy >= 0.95  # k=1 degenerates to the plain arbiter


def test_attack_asymmetry_at_equal_budget():
    budget = 5000
    arbiter = _arbiter_target(seed=24)
    arb_data = attacks.collect_crps(arbiter, budget, substream(25, "a"))
    arb_acc = attacks.eval_model(
        attacks.train_model(arb_data), arbiter, 2000, substream(26, "a")
    ).accuracy

    device = suc.personalize(suc.SucParams(), substream(27, "s"), "asym")
    cipher = attacks.SucBitTarget(device)
    suc_data = attacks.collect_crps(cipher, budget, substream(28, "s"))
    suc_acc = attacks.eval_model(
        attacks.train_model(suc_data), cipher, 2000, substream(29, "s")
    ).accuracy

    assert arb_acc - suc_acc >= 0.35
    assert 0.45 <= suc_acc <= 0.55


def test_suc_target_bit_extraction():
    device = suc.personalize(suc.SucParams(rounds=4), substream(30, "s"), "bit")
    target = attacks.SucBitTarget(device)
    challenges = substream(31, "c").integers(0, 2, (50, 64), dtype=np.uint8)
    got = target.respond(challenges)
    want = np.array(
        [device.encrypt(BitString(c)).bits[attacks.SUC_TARGET_BIT] for c in challenges], np.uint8
    )
    assert np.array_equal(got, want)


def test_attack_report_json():
    report = attacks.AttackReport("arbiter", 10, 100, 0.5)
    doc = report.to_json()
    assert doc["target"] == "arbiter"
    assert doc["schema_version"] == 1


# ----------------------------------------------------------------- readout cloning
def test_readout_clone_copies_reference_pattern():
    target = puf.sram_new(512, 32)
    clone = attacks.readout_clone(target)
    assert puf.sram_reference(clone) == puf.sram_reference(target)
    a = puf.sram_startup(target, rng=substream(33, "a"))
    b = puf.sram_startup(clone, rng=substream(34, "b"))
    assert a != b  # noise paths stay independent


def test_readout_clone_shares_fuzzy_extractor_key():
    target = puf.sram_new(352, 35)
    params = fuzzy.design_repetition(0.06, 1e-3, 32)
    enrolled = BitString(puf.sram_reference(target).bits[: params.code_len])
    key, helper = fuzzy.fe_generate(enrolled, params, 64, substream(36, "fe"))
    clone = attacks.readout_clone(target)
    reading = puf.sram_startup(clone, rng=substream(37, "r"))
    out = fuzzy.fe_reproduce(BitString(reading.bits[: params.code_len]), helper)
    assert out is not None and out.key == key.key


def test_readout_clone_has_no_cipher_path():
    device = suc.personalize(suc.SucParams(rounds=4), substream(38, "s"), "sealed")
    with pytest.raises(TypeError):
        attacks.readout_clone(device)
