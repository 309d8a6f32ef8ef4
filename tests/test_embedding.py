import numpy as np
import pytest

from gradcheck import check_gradients, sum_all
from sentibert.embedding import EmbeddingTables, embed, init_tables
from sentibert.errors import ConfigError
from sentibert.tensor import Graph, Tensor, cross_entropy, gather_rows, matmul, parameter
from sentibert.tokenizer import EncodedSequence


def _seq(token_ids, segments=None):
    return EncodedSequence(token_ids=list(token_ids), segment_ids=list(segments) if segments else [0] * len(token_ids))


def _zero_tables(v=6, d=4, max_len=5):
    return EmbeddingTables(
        token=Tensor(np.zeros((v, d))),
        segment=Tensor(np.zeros((2, d))),
        position=Tensor(np.zeros((max_len, d))),
    )


class TestEmbed:
    def test_all_zero_tables(self):
        out = embed([_seq([2, 5, 3])], _zero_tables())
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_one_hot_probe(self):
        tables = _zero_tables()
        tables.token.data[5, 0] = 1.0  # e1 at token id 5
        out = embed([_seq([2, 5, 3, 5])], tables).data
        np.testing.assert_array_equal(out[:, 0], [0.0, 1.0, 0.0, 1.0])
        assert np.all(out[:, 1:] == 0.0)

    def test_position_rows_decide_order_sensitivity(self):
        # same tokens, swapped order: the outputs are row-permutations of each
        # other exactly when the touched position rows are identical
        rng = np.random.default_rng(14)
        tables = _zero_tables(v=7)
        tables.token.data[:] = rng.normal(size=tables.token.data.shape)
        seq_a = _seq([2, 5, 6])
        seq_b = _seq([2, 6, 5])

        def sorted_rows(seq):
            out = embed([seq], tables).data
            return out[np.lexsort(out.T)]

        np.testing.assert_array_equal(sorted_rows(seq_a), sorted_rows(seq_b))  # constant positions
        tables.position.data[1, :] = rng.normal(size=4)  # now rows 1 and 2 differ
        assert not np.array_equal(sorted_rows(seq_a), sorted_rows(seq_b))

    def test_additive_in_tables(self):
        rng = np.random.default_rng(3)
        seq = _seq([2, 5, 3], segments=[0, 1, 0])
        full = EmbeddingTables(
            token=Tensor(rng.normal(size=(6, 4))),
            segment=Tensor(rng.normal(size=(2, 4))),
            position=Tensor(rng.normal(size=(5, 4))),
        )
        out = embed([seq], full).data
        for field in ("token", "segment", "position"):
            zeroed = EmbeddingTables(full.token, full.segment, full.position)
            setattr(zeroed, field, Tensor(np.zeros_like(getattr(full, field).data)))
            contribution = getattr(full, field).data[
                {"token": seq.token_ids, "segment": seq.segment_ids, "position": [0, 1, 2]}[field]
            ]
            np.testing.assert_allclose(out - embed([seq], zeroed).data, contribution, atol=1e-12)

    def test_batch_packs_rows_and_restarts_positions(self):
        rng = np.random.default_rng(5)
        tables = EmbeddingTables(*(Tensor(rng.normal(size=shape)) for shape in ((6, 4), (2, 4), (5, 4))))
        seqs = [_seq([2, 5, 3]), _seq([2, 3]), _seq([2, 4, 3, 5, 3], segments=[0, 0, 0, 1, 1])]
        packed = embed(seqs, tables).data
        np.testing.assert_array_equal(packed, np.vstack([embed([s], tables).data for s in seqs]))
        np.testing.assert_array_equal(packed[3], tables.token.data[2] + tables.segment.data[0] + tables.position.data[0])

    def test_out_of_range_id(self):
        with pytest.raises(IndexError):
            embed([_seq([2, 99, 3])], _zero_tables())

    def test_gradient_hits_only_used_token_rows(self):
        tables = init_tables(8, 4, 6, seed=0)
        tables_params = {"token": tables.token, "segment": tables.segment, "position": tables.position}
        seq = _seq([2, 5, 7, 3])
        with Graph() as g:
            out = embed([seq], tables)
            g.backward(sum_all(out))
        used = {2, 5, 7, 3}
        for row in range(8):
            row_grad = tables.token.grad[row]
            if row in used:
                assert np.any(row_grad != 0.0)
            else:
                assert np.all(row_grad == 0.0)
        assert tables_params["position"].grad is not None

    def test_gradcheck_through_embedding(self):
        rng = np.random.default_rng(8)
        tables = init_tables(7, 3, 5, seed=1)
        head = parameter(rng.normal(size=(3, 2)))
        seq = _seq([2, 5, 6, 3])

        def build():
            return cross_entropy(matmul(gather_rows(embed([seq], tables), [0]), head), [1])

        params = {"token": tables.token, "segment": tables.segment, "position": tables.position, "head": head}
        check_gradients(build, params, rng, probes=40)


class TestInitTables:
    def test_deterministic_per_seed(self):
        a = init_tables(10, 4, 8, seed=42)
        b = init_tables(10, 4, 8, seed=42)
        for field in ("token", "segment", "position"):
            np.testing.assert_array_equal(getattr(a, field).data, getattr(b, field).data)

    def test_different_seeds_differ(self):
        a = init_tables(10, 4, 8, seed=1)
        b = init_tables(10, 4, 8, seed=2)
        assert not np.array_equal(a.token.data, b.token.data)

    def test_half_normal_mean(self):
        # |N(0, 0.02^2)| has mean 0.02 * sqrt(2/pi); check within 3 standard errors
        tables = init_tables(20000, 1, 5, seed=7)
        draws = np.abs(tables.token.data.ravel())
        expected = 0.02 * np.sqrt(2.0 / np.pi)
        stderr = np.sqrt(0.02**2 * (1.0 - 2.0 / np.pi) / draws.size)
        assert abs(draws.mean() - expected) < 3.0 * stderr

    def test_tables_are_trainable(self):
        tables = init_tables(6, 2, 4, seed=0)
        assert tables.token.requires_grad and tables.segment.requires_grad and tables.position.requires_grad

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            init_tables(4, 2, 4, seed=0)
        with pytest.raises(ConfigError):
            init_tables(6, 0, 4, seed=0)
