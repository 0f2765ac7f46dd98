import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lss.model import MlpSpec, init_params
from lss.params import (
    ParamVector,
    axpy,
    l2_distance,
    load_checkpoint,
    save_checkpoint,
    uniform_average,
    weighted_average,
)

vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=24,
)


def pv(*values) -> ParamVector:
    return ParamVector(np.array(values, dtype=np.float64))


class TestParamVector:
    def test_rejects_empty_and_non_flat(self):
        with pytest.raises(ValueError):
            ParamVector([])
        with pytest.raises(ValueError):
            ParamVector(np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pv(1.0, np.nan)
        with pytest.raises(ValueError):
            pv(np.inf)

    def test_values_are_read_only(self):
        v = pv(1.0, 2.0)
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_detached_from_caller_array(self):
        arr = np.array([1.0, 2.0])
        v = ParamVector(arr)
        arr[0] = 99.0
        assert v.values[0] == 1.0


class TestL2Distance:
    def test_identity(self):
        v = pv(0.3, -1.7, 4.0)
        assert l2_distance(v, v) == 0.0

    def test_3_4_5(self):
        assert l2_distance(pv(0.0, 0.0), pv(3.0, 4.0)) == 5.0

    def test_hand_sum(self):
        # sqrt(9 + 16 + 0)
        assert l2_distance(pv(1.0, 2.0, 3.0), pv(4.0, 6.0, 3.0)) == 5.0

    def test_dim_mismatch_names_both_dims(self):
        with pytest.raises(ValueError, match="2 vs 3"):
            l2_distance(pv(1.0, 2.0), pv(1.0, 2.0, 3.0))

    @settings(max_examples=60, deadline=None)
    @given(vectors, vectors, vectors)
    def test_triangle_inequality(self, a, b, c):
        n = min(len(a), len(b), len(c))
        va, vb, vc = pv(*a[:n]), pv(*b[:n]), pv(*c[:n])
        assert l2_distance(va, vc) <= l2_distance(va, vb) + l2_distance(vb, vc) + 1e-9


class TestWeightedAverage:
    def test_single_model_weight_one_is_bit_exact(self):
        rng = np.random.default_rng(0)
        v = ParamVector(rng.standard_normal(129))
        out = weighted_average([v], [1.0])
        assert np.array_equal(out.values, v.values)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_identical_copies_exact(self, n):
        rng = np.random.default_rng(1)
        v = ParamVector(rng.standard_normal(64))
        out = weighted_average([v] * n, [1.0 / n] * n)
        assert np.array_equal(out.values, v.values)

    @pytest.mark.parametrize("n", [3, 5, 7, 8])
    def test_identical_copies_within_one_ulp(self, n):
        # 1/n is not a dyadic rational for these n, so left-to-right float
        # accumulation can land one ulp away from the real-arithmetic value.
        rng = np.random.default_rng(2)
        v = ParamVector(rng.standard_normal(64))
        out = weighted_average([v] * n, [1.0 / n] * n)
        np.testing.assert_allclose(out.values, v.values, rtol=5e-16, atol=0.0)

    def test_midpoint(self):
        out = weighted_average([pv(0.0, 0.0), pv(2.0, 4.0)], [0.5, 0.5])
        assert np.array_equal(out.values, [1.0, 2.0])

    def test_hand_dot_product(self):
        out = weighted_average(
            [pv(1.0, 1.0), pv(3.0, 5.0), pv(5.0, 3.0)], [0.2, 0.3, 0.5]
        )
        np.testing.assert_allclose(out.values, [3.6, 3.2], rtol=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            weighted_average([], [])
        with pytest.raises(ValueError, match="negative"):
            weighted_average([pv(1.0), pv(2.0)], [1.5, -0.5])
        with pytest.raises(ValueError, match="sum"):
            weighted_average([pv(1.0), pv(2.0)], [0.7, 0.7])
        with pytest.raises(ValueError, match="dimension mismatch"):
            weighted_average([pv(1.0), pv(1.0, 2.0)], [0.5, 0.5])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        models = [ParamVector(rng.standard_normal(40)) for _ in range(6)]
        raw = rng.uniform(0.1, 1.0, 6)
        weights = raw / raw.sum()
        ref = weighted_average(models, weights)
        for trial in range(20):
            perm = rng.permutation(6)
            out = weighted_average(
                [models[i] for i in perm], [weights[i] for i in perm]
            )
            np.testing.assert_allclose(out.values, ref.values, rtol=0, atol=1e-12)

    def test_uniform_average_helper(self):
        out = uniform_average([pv(0.0), pv(1.0)])
        assert out.values[0] == 0.5


class TestAxpy:
    def test_alpha_zero_is_identity(self):
        y, x = pv(1.0, 1.0), pv(9.0, -9.0)
        assert np.array_equal(axpy(y, 0.0, x).values, y.values)

    def test_cancellation(self):
        assert np.array_equal(axpy(pv(1.0, 1.0), -1.0, pv(1.0, 1.0)).values, [0.0, 0.0])

    def test_hand_arithmetic(self):
        assert np.array_equal(axpy(pv(1.0, 2.0), 0.5, pv(4.0, -2.0)).values, [3.0, 1.0])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            axpy(pv(1.0), 1.0, pv(1.0, 2.0))

    @settings(max_examples=60, deadline=None)
    @given(vectors, st.floats(-100, 100, allow_nan=False))
    def test_roundtrip(self, values, alpha):
        y = pv(*values)
        x = pv(*[v / 3.0 + 1.0 for v in values])
        back = axpy(axpy(y, alpha, x), -alpha, x)
        np.testing.assert_allclose(back.values, y.values, rtol=0, atol=1e-12 * (1 + np.abs(y.values).max()))


def write_checkpoint(path, layers):
    """A checkpoint of distinct weights over ``layers``; returns its bytes."""
    dim = sum(fi * fo + fo for fi, fo in layers)
    save_checkpoint(path, ParamVector(np.arange(1.0, dim + 1.0)), layers)
    return path.read_bytes()


def layer_record(fan_in, fan_out):
    return struct.pack("<QQB", fan_in, fan_out, 1)


def patched(raw, layers_bytes, n_layers):
    """``raw`` with its layer count and layer records replaced."""
    (dim,) = struct.unpack_from("<Q", raw, 8)
    head = raw[: 16 + 8 * dim]
    return head + struct.pack("<I", n_layers) + layers_bytes


def mlp_specs(width):
    return st.builds(
        MlpSpec,
        input_dim=st.integers(1, width),
        hidden_dims=st.lists(st.integers(1, width), max_size=2).map(tuple),
        num_classes=st.integers(2, width),
        activation=st.sampled_from(["relu", "tanh"]),
    )


# hypothesis reuses one tmp_path for every example; each example rewrites it
tmp_path_ok = settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        layers = [(4, 3), (3, 2)]
        params = ParamVector(rng.standard_normal(4 * 3 + 3 + 3 * 2 + 2))
        path = tmp_path / "model.lssw"
        save_checkpoint(path, params, layers)
        loaded, loaded_layers = load_checkpoint(path)
        assert loaded_layers == layers
        assert np.array_equal(loaded.values, params.values)
        # byte-level stability of the writer
        save_checkpoint(tmp_path / "again.lssw", params, layers)
        assert (tmp_path / "again.lssw").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lssw"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "model.lssw"
        raw = write_checkpoint(path, [(2, 2)])
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(ValueError, match="truncated checkpoint layers"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.lssw"
        path.write_bytes(write_checkpoint(path, [(2, 2)]) + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("flag", [0, 2])
    def test_bias_flag_must_be_1(self, tmp_path, flag):
        path = tmp_path / "model.lssw"
        raw = bytearray(write_checkpoint(path, [(2, 2)]))
        assert raw[-1] == 1  # the last byte is the only layer's bias flag
        raw[-1] = flag
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"bias flag {flag}, not 1"):
            load_checkpoint(path)

    def test_zero_width_rejected(self, tmp_path):
        # (2, 0) and (0, 2) layers hold as many weights as no layer at all
        path = tmp_path / "model.lssw"
        raw = write_checkpoint(path, [(2, 2)])
        layers = layer_record(2, 2) + layer_record(2, 0)
        path.write_bytes(patched(raw, layers, 2))
        with pytest.raises(ValueError, match=r"layer 1 has a zero width: \(2, 0\)"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="zero width"):
            save_checkpoint(path, pv(1.0, 2.0), [(0, 2), (2, 1), (1, 2)])

    def test_layers_must_chain(self, tmp_path):
        # (1, 2) then (3, 2) holds 4 + 8 = 12 weights, as (2, 2) then (2, 2) does
        path = tmp_path / "model.lssw"
        raw = write_checkpoint(path, [(2, 2), (2, 2)])
        path.write_bytes(patched(raw, layer_record(1, 2) + layer_record(3, 2), 2))
        with pytest.raises(ValueError, match="layer 1 takes 3 inputs, but layer 0 gives 2"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="layer 1 takes 3 inputs"):
            save_checkpoint(path, pv(*range(12)), [(1, 2), (3, 2)])

    def test_layer_dim_mismatch_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="hold 6 parameters, vector has 2"):
            save_checkpoint(tmp_path / "x.lssw", pv(1.0, 2.0), [(2, 2)])

    @pytest.mark.parametrize("dim", [2**40, 2**62, 2**64 - 1])
    def test_huge_dim_field_rejected_before_reading(self, tmp_path, dim):
        path = tmp_path / "model.lssw"
        raw = write_checkpoint(path, [(2, 2)])
        path.write_bytes(raw[:8] + struct.pack("<Q", dim) + raw[16:])
        with pytest.raises(ValueError, match=rf"dim field {dim}\): needs {8 * dim} bytes"):
            load_checkpoint(path)

    def test_huge_layer_count_rejected_before_reading(self, tmp_path):
        path = tmp_path / "model.lssw"
        raw = write_checkpoint(path, [(2, 2)])
        path.write_bytes(patched(raw, layer_record(2, 2), 2**32 - 1))
        with pytest.raises(ValueError, match=r"layer count field 4294967295\): needs"):
            load_checkpoint(path)

    @tmp_path_ok
    @given(mlp_specs(6), st.integers(0, 2**32 - 1))
    def test_spec_roundtrip_bit_exact(self, tmp_path, spec, seed):
        params = init_params(spec, seed)
        path = tmp_path / "model.lssw"
        save_checkpoint(path, params, spec.layer_shapes())
        loaded, layers = load_checkpoint(path)
        assert layers == spec.layer_shapes()
        assert loaded.values.tobytes() == params.values.tobytes()

    @settings(tmp_path_ok, max_examples=30)
    @given(mlp_specs(3), st.integers(1, 255), st.integers(0, 255))
    def test_every_corruption_is_rejected(self, tmp_path, spec, flip, extra):
        path = tmp_path / "model.lssw"
        save_checkpoint(path, init_params(spec, 0), spec.layer_shapes())
        raw = path.read_bytes()
        weights_end = 16 + 8 * spec.param_count()
        corrupt = [raw[:cut] for cut in range(len(raw))] + [raw + bytes([extra])]
        for i in [*range(16), *range(weights_end, len(raw))]:
            changed = bytearray(raw)
            changed[i] ^= flip
            corrupt.append(bytes(changed))
        for bad in corrupt:
            path.write_bytes(bad)
            with pytest.raises(ValueError):
                load_checkpoint(path)
