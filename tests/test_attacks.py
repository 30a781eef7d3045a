import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench import BitString, substream
from clonebench import attacks, fuzzy, puf, suc


def _arbiter_target(seed=1, stages=64):
    return puf.arbiter_new(stages, seed)


# ----------------------------------------------------------------- reference oracles
def _parity_transform_oracle(challenges):
    """The textbook transform: a sign matrix, its reversed cumprod, then the filled features."""
    challenges = np.atleast_2d(np.asarray(challenges))
    signs = 1.0 - 2.0 * challenges.astype(np.float64)
    feats = np.ones((challenges.shape[0], challenges.shape[1] + 1))
    feats[:, : challenges.shape[1]] = np.cumprod(signs[:, ::-1], axis=1)[:, ::-1]
    return feats


def _logistic_loss_and_grad(weights, features, labels):
    """Mean cross-entropy and its analytic gradient for the linear logistic model."""
    z = features @ weights
    p = 1.0 / (1.0 + np.exp(-z))
    eps = 1e-12
    loss = -np.mean(labels * np.log(p + eps) + (1.0 - labels) * np.log(1.0 - p + eps))
    grad = features.T @ (p - labels) / labels.size
    return float(loss), grad


def _newton_oracle(data, max_steps):
    """Textbook damped Newton on the same objective: a dense Hessian and exp-form sigmoid."""
    features = _parity_transform_oracle(data.rows())
    labels = data.responses.astype(np.float64)
    signs = 2.0 * labels - 1.0
    ridge = attacks.RIDGE

    def objective(weights):
        return np.mean(np.logaddexp(0.0, -signs * (features @ weights))) + 0.5 * ridge * weights @ weights

    weights = np.zeros(features.shape[1])
    loss, losses = objective(weights), []
    for _ in range(max_steps):
        p = 1.0 / (1.0 + np.exp(-(features @ weights)))
        grad = _logistic_loss_and_grad(weights, features, labels)[1] + ridge * weights
        s = p * (1.0 - p)
        hess = features.T @ (s[:, None] * features) / labels.size + ridge * np.eye(weights.size)
        delta = np.linalg.solve(hess, grad)
        decrement = grad @ delta / 2
        if decrement <= attacks.NEWTON_TOL:
            break
        for halvings in range(attacks._MAX_HALVINGS + 1):
            step = 0.5**halvings
            trial_loss = objective(weights - step * delta)
            if trial_loss <= loss - attacks._ARMIJO * step * 2 * decrement:
                break
        else:
            break
        weights, loss = weights - step * delta, trial_loss
        losses.append(loss)
    return weights, np.array(losses)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(0, 60),
    bits=st.integers(0, 70),  # 0 guards the reversed view, see parity_transform
    dtype=st.sampled_from([np.uint8, np.bool_, np.int64]),
    one_d=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_parity_transform_matches_oracle_bytes(rows, bits, dtype, one_d, seed):
    challenges = substream(seed, "pt").integers(0, 2, (rows, bits)).astype(dtype)
    if one_d:
        challenges = challenges[0] if rows else np.zeros(bits, dtype)
    got = puf.parity_transform(challenges)
    want = _parity_transform_oracle(challenges)
    assert got.shape == want.shape and got.dtype == np.int8
    assert got.astype(np.float64).tobytes() == want.tobytes()


# ----------------------------------------------------------------- datasets
def test_collect_shapes_and_determinism():
    target = _arbiter_target()
    a = attacks.collect_crps(target, 100, substream(2, "d"))
    b = attacks.collect_crps(target, 100, substream(2, "d"))
    assert a.rows().shape == (100, 64)
    assert len(a) == 100
    assert np.array_equal(a.packed, b.packed)
    assert np.array_equal(a.responses, b.responses)


class _ParityTarget:
    """A one-bit device of any challenge width: the parity of each challenge row."""

    name = "parity"

    def __init__(self, width):
        self.challenge_bits = width

    def respond(self, rows):
        return (rows.sum(axis=1) % 2).astype(np.uint8)


_CHUNK = attacks._CHUNK_ROWS


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
@pytest.mark.parametrize("width", [0, 1, 7, 63, 64])
def test_collect_replays_one_draw_of_all_challenges(width, n):
    # chunked collection draws the same challenges as one rng.integers call of
    # the whole (n, width) shape, and leaves the generator where that call does
    rng = substream(50, "d")
    data = attacks.collect_crps(_ParityTarget(width), n, rng)
    oracle = substream(50, "d")
    want = oracle.integers(0, 2, (n, width), dtype=np.uint8)
    assert data.width == width and len(data) == n
    assert np.array_equal(data.rows(), want)
    assert np.array_equal(data.responses, want.sum(axis=1) % 2)
    assert np.array_equal(rng.integers(0, 2**32, 8), oracle.integers(0, 2**32, 8))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(0, 40),
    bits=st.integers(0, 70),
    dtype=st.sampled_from([np.uint8, np.bool_, np.int64]),
    start=st.integers(-45, 45),
    stop=st.one_of(st.none(), st.integers(-45, 45)),
    seed=st.integers(0, 2**32 - 1),
)
def test_dataset_rows_round_trip(rows, bits, dtype, start, stop, seed):
    challenges = substream(seed, "rt").integers(0, 2, (rows, bits)).astype(dtype)
    data = attacks.CrpDataset(challenges, np.zeros(rows, np.uint8), "round trip")
    assert data.width == bits and data.packed.shape == (rows, -(-bits // 8))
    assert data.rows().dtype == np.uint8
    assert np.array_equal(data.rows(), challenges)
    assert np.array_equal(data.rows(start, stop), challenges[start:stop])


def test_dataset_refuses_challenges_that_are_not_a_matrix():
    for challenges in (np.zeros(8, np.uint8), np.zeros((2, 3, 4), np.uint8)):
        with pytest.raises(ValueError, match="2-D"):
            attacks.CrpDataset(challenges, np.zeros(len(challenges), np.uint8), "bad")


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
    _, grad = _logistic_loss_and_grad(w, X, y)
    eps = 1e-6
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += eps
        down[i] -= eps
        numeric = (_logistic_loss_and_grad(up, X, y)[0] - _logistic_loss_and_grad(down, X, y)[0]) / (2 * eps)
        assert abs(numeric - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))


def _training_data(target, n=3000):
    if target == "arbiter":
        device = _arbiter_target(seed=40)
    elif target == "xor":
        device = puf.xor_arbiter_new(32, 2, 40)
    else:
        device = attacks.SucBitTarget(suc.personalize(suc.SucParams(), substream(41, "s"), "oracle"))
    return attacks.collect_crps(device, n, substream(42, "d"))


@pytest.mark.parametrize("target", ["arbiter", "suc_bit", "xor"])
def test_train_model_reaches_the_ridge_optimum(target):
    data = _training_data(target)
    model = attacks.train_model(data)
    assert len(model.loss_history) < 500  # stopped by its own test, not the step cap
    features = _parity_transform_oracle(data.rows())
    _, grad = _logistic_loss_and_grad(model.weights, features, data.responses.astype(np.float64))
    assert np.linalg.norm(grad + attacks.RIDGE * model.weights) <= 1e-8


@pytest.mark.parametrize("target", ["arbiter", "suc_bit"])
def test_train_model_matches_newton_oracle(target):
    data = _training_data(target)
    for steps in (2, 30):  # two steps pin the path, thirty the stopping point
        model = attacks.train_model(data, epochs=steps)
        weights, losses = _newton_oracle(data, steps)
        np.testing.assert_allclose(model.weights, weights, rtol=1e-10, atol=0)
        assert len(model.loss_history) == len(losses)
        np.testing.assert_allclose(model.loss_history, losses, rtol=1e-10, atol=0)


@pytest.mark.parametrize("rows", [513, 1025, 2049, 2050])
def test_trial_margins_match_one_float64_product(rows, monkeypatch):
    # training widens the int8 features a block of rows at a time; every trial's
    # margins must still be bit for bit those of one float64 product over all rows
    data = attacks.collect_crps(_arbiter_target(seed=48), rows, substream(49, "d"))
    seen = []
    objective = attacks._objective

    def spy(margins, weights, spare):
        seen.append((margins.copy(), weights.copy()))
        return objective(margins, weights, spare)

    monkeypatch.setattr(attacks, "_objective", spy)
    attacks.train_model(data, epochs=3)
    features = _parity_transform_oracle(data.rows())
    assert len(seen) >= 4  # the zero start, then a trial per step
    for margins, weights in seen[1:]:
        want = features @ weights
        np.negative(want, out=want, where=data.responses == 0)
        assert margins.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(10, 80),
    bits=st.integers(0, 12),
    responses=st.sampled_from(["random", "zeros", "ones"]),
    epochs=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_training_loss_is_finite_and_never_rises(rows, bits, responses, epochs, seed):
    rng = substream(seed, "newton")
    challenges = rng.integers(0, 2, (rows, bits), dtype=np.uint8)
    labels = {"random": rng.integers(0, 2, rows, dtype=np.uint8), "zeros": np.zeros(rows, np.uint8),
              "ones": np.ones(rows, np.uint8)}[responses]
    with np.errstate(all="raise"):
        model = attacks.train_model(attacks.CrpDataset(challenges, labels, "small"), epochs=epochs)
        attacks.predict(model, challenges)
    history = model.loss_history
    assert len(history) <= epochs
    assert np.all(np.isfinite(history)) and np.all(np.isfinite(model.weights))
    assert np.all(np.diff(np.concatenate([[np.log(2.0)], history])) <= 0)


def test_line_search_damps_an_overlong_step(monkeypatch):
    # from zero weights a full Newton step on this loss falls short, so stretch it
    data = _training_data("arbiter")
    want = attacks.train_model(data)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: 8.0 * solve(a, b))
    got = attacks.train_model(data)
    assert np.all(np.diff(got.loss_history) <= 0)
    np.testing.assert_allclose(got.weights, want.weights, rtol=1e-9, atol=0)


def test_noiseless_arbiter_training_raises_no_floating_point_error():
    # nearly separable data drive the logits far out; nothing may overflow or underflow
    data = _training_data("arbiter", 6000)
    with np.errstate(all="raise"):
        model = attacks.train_model(data)
    assert np.all(np.diff(model.loss_history) <= 0)


def test_feature_and_training_memory_stay_bounded():
    # the in-place transform allocates only its int8 output; training keeps
    # the features as packed sign bits and adds length-n buffers, one float64
    # block of widened rows and the int8 features of one chunk of rows
    challenges = substream(43, "m").integers(0, 2, (20_000, 64), dtype=np.uint8)
    tracemalloc.start()
    try:
        feats = puf.parity_transform(challenges)
        transform_peak = tracemalloc.get_traced_memory()[1]
        del feats
        tracemalloc.stop()
        data = attacks.CrpDataset(challenges, challenges[:, 0].copy(), "memory")
        tracemalloc.start()
        attacks.train_model(data, epochs=3)
        train_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = challenges.shape[0]
    feature_bytes = n * 65  # one int8 per feature; float64 features are 8x this
    assert transform_peak <= 1.05 * feature_bytes
    assert train_peak <= n * 9 + 5 * n * 8 + 2**20  # 65 sign bits take 9 bytes a row


def test_campaign_memory_stays_at_one_bit_per_entry():
    # 100k cipher-bit CRPs: the challenges as uint8 rows, the ciphertext bits
    # and the int8 features would each take 6.4 MB or more
    target = attacks.SucBitTarget(suc.personalize(suc.SucParams(), substream(51, "s"), "campaign"))
    tracemalloc.start()
    try:
        attacks.train_model(attacks.collect_crps(target, 100_000, substream(52, "d")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_000_000


def test_predict_memory_stays_bounded():
    # no float64 copy of all rows' features: that alone would take 10.4 MB
    n = 20_000
    challenges = substream(53, "m").integers(0, 2, (n, 64), dtype=np.uint8)
    model = attacks.LinearModel(substream(54, "w").standard_normal(65), "random", 0)
    tracemalloc.start()
    try:
        attacks.predict(model, challenges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * (9 + 8 + 1) + 2**20  # sign bits, margins and output per row


@pytest.mark.parametrize("rows", [1, 2, 513, 1025, 8193])
def test_predict_matches_one_float64_product(rows, monkeypatch):
    # predict widens packed features a block at a time; its margins must be
    # bit for bit those of one float64 product over all rows
    challenges = substream(55, "p").integers(0, 2, (rows, 32), dtype=np.uint8)
    weights = substream(56, "w").standard_normal(33)
    seen = []
    margins = attacks._margins

    def spy(features, weights, block, out):
        margins(features, weights, block, out)
        seen.append(out.copy())

    monkeypatch.setattr(attacks, "_margins", spy)
    got = attacks.predict(attacks.LinearModel(weights, "random", 0), challenges)
    want = _parity_transform_oracle(challenges) @ weights
    assert seen[0].tobytes() == want.tobytes()
    assert np.array_equal(got, want > 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epochs": 0},
        {"epochs": -1},
    ],
    ids=["epochs-0", "epochs-neg"],
)
def test_train_refuses_settings_it_cannot_train_with(kwargs):
    data = attacks.collect_crps(_arbiter_target(), 200, substream(44, "d"))
    with pytest.raises(ValueError):
        attacks.train_model(data, **kwargs)


@pytest.mark.parametrize("bad", [2, 256, 0.5, -1.0, float("nan")])
def test_train_refuses_responses_outside_0_1(bad):
    challenges = substream(45, "d").integers(0, 2, (200, 16), dtype=np.uint8)
    for dtype in (np.float64, np.int64)[: 1 + float(bad).is_integer()]:
        responses = (challenges[:, 0] == 1).astype(dtype)
        responses[7] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            attacks.train_model(attacks.CrpDataset(challenges, responses, "bad"))


def test_train_and_predict_refuse_challenges_outside_0_1():
    challenges = substream(47, "d").integers(0, 2, (200, 16))  # int64
    responses = challenges[:, 0].astype(np.uint8)
    challenges[7, 3] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        attacks.train_model(attacks.CrpDataset(challenges, responses, "bad"))
    model = attacks.LinearModel(np.ones(17), "ones", 0)
    with pytest.raises(ValueError, match="0 or 1"):
        attacks.predict(model, np.full((1, 16), 256))


_NOT_A_BIT = st.one_of(
    st.integers(-(2**62), 2**62).filter(lambda v: v not in (0, 1)),
    st.floats().filter(lambda v: v not in (0.0, 1.0)),
)


@settings(max_examples=60, deadline=None)
@given(bad=_NOT_A_BIT, row=st.integers(0, 19), col=st.integers(0, 7))
def test_every_challenge_entry_outside_0_1_is_refused(bad, row, col):
    dtypes = [np.float64] if isinstance(bad, float) else [np.int64] + [np.uint8] * (2 <= bad <= 255)
    for dtype in dtypes:
        challenges = np.zeros((20, 8), dtype=dtype)
        challenges[row, col] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            attacks.CrpDataset(challenges, np.zeros(20, np.uint8), "bad")
        with pytest.raises(ValueError, match="0 or 1"):
            attacks.predict(attacks.LinearModel(np.ones(9), "ones", 0), challenges)
        with pytest.raises(ValueError, match="0 or 1"):
            puf.arbiter_new(8, 1).respond(challenges)


@pytest.mark.parametrize("shape", [(199,), (201,), (200, 1)])
def test_train_refuses_responses_that_do_not_match_the_challenge_rows(shape):
    challenges = substream(46, "d").integers(0, 2, (200, 16), dtype=np.uint8)
    responses = np.zeros(shape, dtype=np.uint8)
    with pytest.raises(ValueError, match="where 200 are needed"):
        attacks.train_model(attacks.CrpDataset(challenges, responses, "bad"))


def test_loss_non_increasing_at_small_steps():
    data = attacks.collect_crps(_arbiter_target(seed=6), 2000, substream(7, "d"))
    model = attacks.train_model(data, epochs=150)
    assert np.all(np.diff(model.loss_history) <= 0)


def test_training_on_constant_responses_predicts_constant():
    target = _arbiter_target(seed=8)
    challenges = substream(9, "d").integers(0, 2, (500, 64), dtype=np.uint8)
    for constant in (0, 1):
        data = attacks.CrpDataset(challenges, np.full(500, constant, np.uint8), "constant")
        model = attacks.train_model(data, epochs=50)
        fresh = substream(10, "f").integers(0, 2, (200, 64), dtype=np.uint8)
        assert np.all(attacks.predict(model, fresh) == constant)


def test_known_weight_vector_recovered():
    # noiseless labels from a linear-threshold device; 100*n samples train it out
    target = _arbiter_target(seed=11)
    data = attacks.collect_crps(target, 100 * 64, substream(12, "d"))
    model = attacks.train_model(data)
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
    train_acc = np.mean(attacks.predict(model, data.rows()) == data.responses)
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
    model = attacks.train_model(data)
    report = attacks.eval_model(model, target, 2000, substream(23, "t"))
    assert report.target == "xor_arbiter_k2"
    assert 0.45 <= report.accuracy <= 1.0

    single = puf.xor_arbiter_new(32, 1, 24)
    data = attacks.collect_crps(single, 8000, substream(25, "d"))
    model = attacks.train_model(data)
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
    assert got.base is None  # not a view that keeps all 64 ciphertext bits alive
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
