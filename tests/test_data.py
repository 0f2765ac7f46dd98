import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lss.data import (
    Dataset,
    PartitionPlan,
    _random_rotation,
    class_center,
    dirichlet_partition,
    feature_shift_partition,
    gen_blobs,
    load_idx,
    split_dataset,
    write_partition_plan,
)
from lss.local_training import LocalConfig, fedprox_local_train
from lss.model import MlpSpec, accuracy, init_params


class TestGenBlobs:
    def test_deterministic(self):
        a = gen_blobs(4, 10, 5, 0.7, seed=3)
        b = gen_blobs(4, 10, 5, 0.7, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_zero_spread_limit_collapses_to_centers(self):
        data = gen_blobs(3, 5, 4, 1e-12, seed=0)
        for c in range(3):
            rows = data.features[data.labels == c]
            assert np.max(np.abs(rows - class_center(c, 4))) < 1e-9

    def test_centers_have_radius_three_and_ignore_sample_seed(self):
        assert np.linalg.norm(class_center(2, 16)) == pytest.approx(3.0)
        a = gen_blobs(3, 5, 4, 0.5, seed=1)
        b = gen_blobs(3, 5, 4, 0.5, seed=2)
        # same geometry, different noise
        for c in range(3):
            np.testing.assert_allclose(
                a.features[a.labels == c].mean(axis=0),
                b.features[b.labels == c].mean(axis=0),
                atol=1.0,
            )

    def test_centrally_trained_softmax_separates_blobs(self):
        # independent oracle for dataset quality: plain SGD reaches > 0.95
        data = gen_blobs(10, 200, 8, 0.5, seed=7)
        train, _, test = split_dataset(data, (0.8, 0.1, 0.1), seed=3)
        spec = MlpSpec(input_dim=8, hidden_dims=(), num_classes=10)
        cfg = LocalConfig(eta=0.1, tau=500, batch_size=64)
        trained = fedprox_local_train(init_params(spec, 0), spec, train, cfg, seed=11)
        assert accuracy(trained, spec, test) > 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_blobs(1, 5, 4, 0.5, seed=0)
        with pytest.raises(ValueError):
            gen_blobs(3, 5, 4, 0.0, seed=0)
        for spread in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                gen_blobs(3, 5, 4, spread, seed=0)


class TestDataset:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_features(self, bad):
        feats = np.zeros((3, 2))
        feats[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Dataset(feats, [0, 1, 0], 2)

    def test_freezes_views_not_the_callers_arrays(self):
        feats, labels = np.zeros((3, 2)), np.array([0, 1, 0], dtype=np.int64)
        data = Dataset(feats, labels, 2)
        assert feats.flags.writeable and labels.flags.writeable
        assert not data.features.flags.writeable and not data.labels.flags.writeable
        # No copy: the dataset reads the caller's memory.
        assert np.shares_memory(data.features, feats)
        assert np.shares_memory(data.labels, labels)
        with pytest.raises(ValueError, match="read-only"):
            data.features[0, 0] = 1.0


class TestSplitDataset:
    def test_partition_sizes_and_disjointness(self):
        data = gen_blobs(4, 50, 3, 0.5, seed=1)
        train, val, test = split_dataset(data, (0.8, 0.1, 0.1), seed=2)
        assert train.n + val.n + test.n == data.n
        assert train.n == round(0.8 * data.n)

    def test_bad_fractions(self):
        data = gen_blobs(2, 5, 2, 0.5, seed=1)
        with pytest.raises(ValueError):
            split_dataset(data, (0.5, 0.2, 0.2), seed=0)


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        data = gen_blobs(3, 20, 4, 0.5, seed=0)
        plan = dirichlet_partition(data, 1, 1.0, seed=0)
        assert sorted(plan.client_indices[0]) == list(range(data.n))

    def test_deterministic(self):
        data = gen_blobs(3, 40, 4, 0.5, seed=0)
        p1 = dirichlet_partition(data, 4, 0.5, seed=9)
        p2 = dirichlet_partition(data, 4, 0.5, seed=9)
        assert p1.client_indices == p2.client_indices

    def test_disjoint_cover_over_random_sweep(self):
        data = gen_blobs(5, 30, 4, 0.5, seed=1)
        for alpha in (0.05, 0.3, 1.0, 10.0):
            for seed in range(6):
                plan = dirichlet_partition(data, 4, alpha, seed=seed)
                assert plan.covered_indices() == set(range(data.n))
                assert all(len(ids) >= 1 for ids in plan.client_indices)

    def test_huge_alpha_is_nearly_balanced(self):
        # alpha -> inf gives each client ~ n_c / M of every class
        data = gen_blobs(2, 1000, 3, 0.5, seed=2)
        for seed in range(10):
            plan = dirichlet_partition(data, 5, 1e6, seed=seed)
            for ids in plan.client_indices:
                labels = data.labels[np.array(ids)]
                for c in range(2):
                    count = int(np.sum(labels == c))
                    assert 0.8 * 200 <= count <= 1.2 * 200

    def test_small_alpha_concentrates_labels(self):
        data = gen_blobs(10, 100, 4, 0.5, seed=3)
        for seed in range(10):
            plan = dirichlet_partition(data, 5, 0.1, seed=seed)
            concentrated = False
            for ids in plan.client_indices:
                labels = data.labels[np.array(ids)]
                counts = np.sort(np.bincount(labels, minlength=10))[::-1]
                if counts[:2].sum() > 0.5 * len(ids):
                    concentrated = True
            assert concentrated

    def test_heterogeneity_monotone_in_alpha(self):
        data = gen_blobs(10, 100, 4, 0.5, seed=4)
        global_marginal = data.label_marginal()

        def mean_tv(alpha):
            out = []
            for seed in range(10):
                plan = dirichlet_partition(data, 5, alpha, seed=seed)
                tv = [
                    0.5 * np.abs(d.label_marginal() - global_marginal).sum()
                    for d in (data.subset(ids) for ids in plan.client_indices)
                ]
                out.append(np.mean(tv))
            return np.mean(out)

        low, mid, high = mean_tv(0.1), mean_tv(1.0), mean_tv(100.0)
        assert low > mid > high

    def test_rebalance_gives_every_client_a_sample(self):
        data = gen_blobs(2, 6, 3, 0.5, seed=5)
        for seed in range(20):
            plan = dirichlet_partition(data, 10, 0.05, seed=seed)
            assert all(len(ids) >= 1 for ids in plan.client_indices)
            assert plan.covered_indices() == set(range(data.n))

    def test_too_many_clients(self):
        data = gen_blobs(2, 2, 3, 0.5, seed=5)
        with pytest.raises(ValueError):
            dirichlet_partition(data, 50, 1.0, seed=0)

    def test_bad_alpha(self):
        data = gen_blobs(2, 5, 3, 0.5, seed=5)
        with pytest.raises(ValueError):
            dirichlet_partition(data, 2, 0.0, seed=0)


class TestFeatureShiftPartition:
    def test_clients_and_eval_set_share_one_map_per_client(self):
        train = gen_blobs(3, 40, 6, 0.5, seed=6)
        test = gen_blobs(3, 10, 6, 0.5, seed=9)
        plan, clients, eval_data = feature_shift_partition(train, test, 4, seed=1)
        assert len(clients) == plan.num_clients == 4
        test_chunks = np.array_split(np.arange(test.n), 4)
        for ids, client, chunk in zip(plan.client_indices, clients, test_chunks):
            rows = train.features[np.array(ids)]
            m_t, *_ = np.linalg.lstsq(rows, client.features, rcond=None)
            np.testing.assert_allclose(rows @ m_t, client.features, atol=1e-10)
            assert np.linalg.cond(m_t) <= 1.25 / 0.8 * (1 + 1e-9)
            assert np.array_equal(client.labels, train.labels[np.array(ids)])
            np.testing.assert_allclose(
                eval_data.features[chunk], test.features[chunk] @ m_t, atol=1e-10
            )
        assert np.array_equal(eval_data.labels, test.labels)

    def test_iid_split_label_marginals(self):
        data = gen_blobs(10, 200, 4, 0.5, seed=7)
        plan, _, _ = feature_shift_partition(data, data, 5, seed=2)
        global_marginal = data.label_marginal()
        for ids in plan.client_indices:
            marginal = data.subset(ids).label_marginal()
            assert np.all(np.abs(marginal - global_marginal) <= 0.05)

    def test_marker_alpha(self):
        data = gen_blobs(2, 10, 3, 0.5, seed=8)
        plan, _, _ = feature_shift_partition(data, data, 2, seed=3)
        assert plan.alpha == "feature-shift"

    def test_rotation_is_orthogonal(self):
        rot = _random_rotation(7, np.pi / 4, np.random.default_rng(4))
        np.testing.assert_allclose(rot @ rot.T, np.eye(7), atol=1e-12)


def _write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, image_magic=0x803, label_magic=0x801, label_count=None):
    n = len(labels)
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", image_magic, n, rows, cols))
        fh.write(bytes(pixels))
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", label_magic, label_count if label_count is not None else n))
        fh.write(bytes(labels))
    return images_path, labels_path


class TestLoadIdx:
    def test_hand_built_fixture_values(self, tmp_path):
        pixels = [0, 255, 128, 64] + [10, 20, 30, 40]
        images, labels = _write_idx_pair(tmp_path, pixels, [0, 1])
        data = load_idx(images, labels)
        np.testing.assert_allclose(
            data.features[0], [0.0, 1.0, 128 / 255, 64 / 255], rtol=1e-15
        )
        assert data.n == 2 and data.num_classes == 2
        assert list(data.labels) == [0, 1]

    def test_count_mismatch(self, tmp_path):
        images, labels = _write_idx_pair(
            tmp_path, [0] * 8, [0, 1], label_count=3
        )
        with pytest.raises(ValueError):
            load_idx(images, labels)

    def test_wrong_magic_names_expected_and_actual(self, tmp_path):
        images, labels = _write_idx_pair(tmp_path, [0] * 8, [0, 1], image_magic=0x999)
        with pytest.raises(ValueError, match="0x00000803.*0x00000999"):
            load_idx(images, labels)

    def test_truncated_pixels(self, tmp_path):
        images, labels = _write_idx_pair(tmp_path, [0] * 5, [0, 1])
        with pytest.raises(ValueError, match="truncated"):
            load_idx(images, labels)

    def test_huge_image_header_rejected_before_reading(self, tmp_path):
        images, labels = _write_idx_pair(tmp_path, [0] * 8, [0, 1])
        raw = images.read_bytes()
        images.write_bytes(raw[:4] + struct.pack(">III", 2**20, 2**20, 2**20) + raw[16:])
        with pytest.raises(
            ValueError,
            match=r"count, rows and cols fields 1048576 x 1048576 x 1048576\): "
            rf"needs {2**60} bytes, but only 8 remain",
        ):
            load_idx(images, labels)

    def test_huge_label_count_rejected_before_reading(self, tmp_path):
        images, labels = _write_idx_pair(tmp_path, [0] * 8, [0, 1], label_count=2**32 - 1)
        with pytest.raises(ValueError, match=r"label count field 4294967295\): needs"):
            load_idx(images, labels)

    def test_zero_images_name_the_count_field(self, tmp_path):
        images, labels = _write_idx_pair(tmp_path, [], [])
        with pytest.raises(ValueError, match=r"IDX image count field of .*images\.idx is 0"):
            load_idx(images, labels)

    def test_one_class_names_the_labels_and_the_class_count(self, tmp_path):
        images, labels = _write_idx_pair(tmp_path, [0] * 8, [0, 0])
        with pytest.raises(
            ValueError, match=r"IDX labels .*labels\.idx give 1 class \(largest label \+ 1\)"
        ):
            load_idx(images, labels)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.lists(st.integers(0, 5), min_size=1, max_size=20).filter(lambda ls: max(ls) >= 1),
        st.data(),
    )
    def test_roundtrip(self, tmp_path, rows, cols, labels, data):
        pixels = data.draw(
            st.lists(st.integers(0, 255), min_size=len(labels) * rows * cols,
                     max_size=len(labels) * rows * cols)
        )
        images_path, labels_path = _write_idx_pair(tmp_path, pixels, labels, rows=rows, cols=cols)
        loaded = load_idx(images_path, labels_path)
        assert loaded.features.shape == (len(labels), rows * cols)
        assert np.array_equal(np.rint(loaded.features * 255.0), np.reshape(pixels, loaded.features.shape))
        assert loaded.labels.tolist() == labels and loaded.num_classes == max(labels) + 1


class TestPartitionPlanIO:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="more than one client"):
            PartitionPlan(((0, 1), (1, 2)), 1.0, 0)
