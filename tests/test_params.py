import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lss.params import (
    ParamVector,
    ShapeSpec,
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


class TestShapeSpec:
    def test_param_count(self):
        shape = ShapeSpec(((2, 3, True), (3, 4, False)))
        assert shape.param_count() == 2 * 3 + 3 + 3 * 4

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            ShapeSpec(((0, 3, True),))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        shape = ShapeSpec(((4, 3, True), (3, 2, True)))
        params = ParamVector(rng.standard_normal(shape.param_count()))
        path = tmp_path / "model.lssw"
        save_checkpoint(path, params, shape)
        loaded, loaded_shape = load_checkpoint(path)
        assert loaded_shape == shape
        assert np.array_equal(loaded.values, params.values)
        # byte-level stability of the writer
        save_checkpoint(tmp_path / "again.lssw", params, shape)
        assert (tmp_path / "again.lssw").read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lssw"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        shape = ShapeSpec(((2, 2, True),))
        params = ParamVector(np.arange(1.0, 7.0))
        path = tmp_path / "model.lssw"
        save_checkpoint(path, params, shape)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.lssw"
        save_checkpoint(path, ParamVector(np.arange(1.0, 7.0)), ShapeSpec(((2, 2, True),)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)

    def test_bias_flag_must_be_0_or_1(self, tmp_path):
        path = tmp_path / "model.lssw"
        save_checkpoint(path, ParamVector(np.arange(1.0, 7.0)), ShapeSpec(((2, 2, True),)))
        raw = bytearray(path.read_bytes())
        assert raw[-1] == 1  # the last byte is the only layer's bias flag
        raw[-1] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="bias flag 2"):
            load_checkpoint(path)

    def test_shape_dim_mismatch_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="parameters"):
            save_checkpoint(tmp_path / "x.lssw", pv(1.0, 2.0), ShapeSpec(((2, 2, True),)))
