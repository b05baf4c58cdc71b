"""Tests for the attention-variant extension cascades (Sec. VIII)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import count_passes, family, live_footprints, total_ops
from repro.cascades import (
    attention_3pass,
    causal_attention,
    sigmoid_attention,
    sliding_window_attention,
)
from repro.functional import evaluate_output


def _masked_softmax_attention(q, k, v, mask):
    """Direct numpy reference: mask[m, p] True where attention is allowed."""
    qk = k.T @ q
    qk = np.where(mask, qk, -np.inf)
    shifted = qk - qk.max(axis=0, keepdims=True)
    numer = np.exp(shifted)
    numer = np.where(mask, numer, 0.0)
    return v @ (numer / numer.sum(axis=0, keepdims=True))


def _causal_mask(m, p):
    return np.arange(m)[:, None] <= np.arange(p)[None, :]


def _window_mask(m, p, w):
    rows = np.arange(m)[:, None]
    cols = np.arange(p)[None, :]
    return (rows <= cols) & (rows > cols - w)


@pytest.fixture
def square_inputs(rng):
    e, f, n = 4, 5, 12
    return {
        "Q": rng.normal(size=(e, n)),
        "K": rng.normal(size=(e, n)),
        "V": rng.normal(size=(f, n)),
    }


SQUARE_SHAPES = {"E": 4, "F": 5, "M": 12, "P": 12}


class TestCausalAttention:
    @pytest.mark.parametrize("div_opt", [True, False])
    def test_matches_masked_reference(self, square_inputs, div_opt):
        out = evaluate_output(
            causal_attention(div_opt), SQUARE_SHAPES, square_inputs
        )
        expected = _masked_softmax_attention(
            square_inputs["Q"], square_inputs["K"], square_inputs["V"],
            _causal_mask(12, 12),
        )
        assert np.allclose(out, expected)

    def test_first_query_attends_only_to_first_key(self, square_inputs):
        """Column p=0 sees only m=0: AV[:, 0] must equal V[:, 0]."""
        out = evaluate_output(causal_attention(), SQUARE_SHAPES, square_inputs)
        assert np.allclose(out[:, 0], square_inputs["V"][:, 0])

    def test_last_query_matches_full_attention(self, square_inputs):
        """Column p=M-1 sees everything: identical to unmasked attention."""
        causal = evaluate_output(causal_attention(), SQUARE_SHAPES, square_inputs)
        full = evaluate_output(attention_3pass(), SQUARE_SHAPES, square_inputs)
        assert np.allclose(causal[:, -1], full[:, -1])

    def test_stable_under_large_scores(self, rng):
        inputs = {
            "Q": 40 * rng.normal(size=(4, 12)),
            "K": 40 * rng.normal(size=(4, 12)),
            "V": rng.normal(size=(5, 12)),
        }
        # Masked (never-consumed) numerator positions may overflow — they
        # are culled by the filtered reductions, so only the output matters.
        with np.errstate(over="ignore"):
            out = evaluate_output(causal_attention(), SQUARE_SHAPES, inputs)
        assert np.all(np.isfinite(out))

    def test_still_multi_pass(self):
        """Masking does not change the pass structure of the softmax."""
        assert count_passes(causal_attention(False), family("m")).num_passes == 3
        assert count_passes(causal_attention(True), family("m")).num_passes == 2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2**31))
    @example(n=4, seed=282640)
    def test_causal_property(self, n, seed):
        """Changing future keys/values never changes past outputs.

        The last key moves along the last query, so its score for that
        query can only rise: its softmax weight never falls, and the
        -100 shift of its value always reaches the last output."""
        rng = np.random.default_rng(seed)
        shapes = {"E": 3, "F": 3, "M": n, "P": n}
        q = rng.normal(size=(3, n))
        k = rng.normal(size=(3, n))
        v = rng.normal(size=(3, n))
        out1 = evaluate_output(causal_attention(), shapes, {"Q": q, "K": k, "V": v})
        k2, v2 = k.copy(), v.copy()
        k2[:, -1] += 10.0 * q[:, -1]
        v2[:, -1] -= 100.0
        out2 = evaluate_output(causal_attention(), shapes, {"Q": q, "K": k2, "V": v2})
        if n > 1:
            assert np.allclose(out1[:, :-1], out2[:, :-1])
        assert not np.allclose(out1[:, -1], out2[:, -1])


class TestSlidingWindowAttention:
    @pytest.mark.parametrize("window", [1, 3, 6, 12])
    def test_matches_masked_reference(self, square_inputs, window):
        shapes = dict(SQUARE_SHAPES, W=window)
        out = evaluate_output(
            sliding_window_attention(), shapes, square_inputs
        )
        expected = _masked_softmax_attention(
            square_inputs["Q"], square_inputs["K"], square_inputs["V"],
            _window_mask(12, 12, window),
        )
        assert np.allclose(out, expected)

    def test_full_window_equals_causal(self, square_inputs):
        shapes = dict(SQUARE_SHAPES, W=12)
        windowed = evaluate_output(sliding_window_attention(), shapes, square_inputs)
        causal = evaluate_output(causal_attention(), SQUARE_SHAPES, square_inputs)
        assert np.allclose(windowed, causal)

    def test_window_one_copies_current_value(self, square_inputs):
        shapes = dict(SQUARE_SHAPES, W=1)
        out = evaluate_output(sliding_window_attention(), shapes, square_inputs)
        assert np.allclose(out, square_inputs["V"])


class TestSigmoidAttention:
    def test_matches_direct_numpy(self, square_inputs):
        out = evaluate_output(sigmoid_attention(), SQUARE_SHAPES, square_inputs)
        qk = square_inputs["K"].T @ square_inputs["Q"]
        expected = square_inputs["V"] @ (1.0 / (1.0 + np.exp(-qk)))
        assert np.allclose(out, expected)

    def test_natively_one_pass(self):
        assert count_passes(sigmoid_attention(), family("m")).num_passes == 1

    def test_no_sequence_dependent_footprint(self):
        shapes = {"E": 64, "F": 64, "M": 65536, "P": 1024}
        analysis = count_passes(sigmoid_attention(), family("m"))
        report = live_footprints(analysis, shapes)
        assert report.sequence_dependent_tensors() == ()

    def test_no_divisions_no_max(self):
        shapes = {"E": 64, "F": 64, "M": 1024, "P": 256}
        ops = total_ops(sigmoid_attention(), shapes)
        assert ops.get("divide") == 0
        assert ops.get("max") == 0
