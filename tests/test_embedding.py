import numpy as np
import pytest

from gradcheck import check_gradients, sum_all
from sentibert.embedding import embed
from sentibert.encoder import EncoderConfig
from sentibert.errors import ShapeError
from sentibert.model import SentimentModel
from sentibert.tensor import Graph, Tensor, batch_layout, cross_entropy, linear, parameter
from sentibert.tokenizer import NUM_SPECIALS, SPECIAL_TOKENS, EncodedSequence, Vocab


def _seq(token_ids, segments=None):
    return EncodedSequence(token_ids=list(token_ids), segment_ids=list(segments) if segments else [0] * len(token_ids))


def init_tables(vocab_size, width, max_len, seed) -> dict:
    """The embeddings.* tables SentimentModel.init draws first from seed."""
    vocab = Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(vocab_size - NUM_SPECIALS)])
    config = EncoderConfig(num_layers=0, num_heads=1, d_model=width, d_ff=1, max_len=max_len)
    return {n: t for n, t in SentimentModel.init(vocab, config, seed).params.items() if n.startswith("embeddings.")}


def _tables(token, segment, position) -> dict:
    return {"embeddings.token": token, "embeddings.segment": segment, "embeddings.position": position}


def _zero_tables(v=6, d=4, max_len=5):
    return _tables(Tensor(np.zeros((v, d))), Tensor(np.zeros((2, d))), Tensor(np.zeros((max_len, d))))


class TestEmbed:
    def test_all_zero_tables(self):
        out = embed([_seq([2, 5, 3])], _zero_tables())
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_one_hot_probe(self):
        tables = _zero_tables()
        tables["embeddings.token"].data[5, 0] = 1.0  # e1 at token id 5
        out = embed([_seq([2, 5, 3, 5])], tables).data
        np.testing.assert_array_equal(out[:, 0], [0.0, 1.0, 0.0, 1.0])
        assert np.all(out[:, 1:] == 0.0)

    def test_position_rows_decide_order_sensitivity(self):
        # same tokens, swapped order: the outputs are row-permutations of each
        # other exactly when the touched position rows are identical
        rng = np.random.default_rng(14)
        tables = _zero_tables(v=7)
        tables["embeddings.token"].data[:] = rng.normal(size=(7, 4))
        seq_a = _seq([2, 5, 6])
        seq_b = _seq([2, 6, 5])

        def sorted_rows(seq):
            out = embed([seq], tables).data
            return out[np.lexsort(out.T)]

        np.testing.assert_array_equal(sorted_rows(seq_a), sorted_rows(seq_b))  # constant positions
        tables["embeddings.position"].data[1, :] = rng.normal(size=4)  # now rows 1 and 2 differ
        assert not np.array_equal(sorted_rows(seq_a), sorted_rows(seq_b))

    def test_additive_in_tables(self):
        rng = np.random.default_rng(3)
        seq = _seq([2, 5, 3], segments=[0, 1, 0])
        full = _tables(*(Tensor(rng.normal(size=shape)) for shape in ((6, 4), (2, 4), (5, 4))))
        out = embed([seq], full).data
        for field in ("token", "segment", "position"):
            name = f"embeddings.{field}"
            zeroed = {**full, name: Tensor(np.zeros_like(full[name].data))}
            contribution = full[name].data[
                {"token": seq.token_ids, "segment": seq.segment_ids, "position": [0, 1, 2]}[field]
            ]
            np.testing.assert_allclose(out - embed([seq], zeroed).data, contribution, atol=1e-12)

    def test_batch_packs_rows_and_restarts_positions(self):
        rng = np.random.default_rng(5)
        token, segment, position = (Tensor(rng.normal(size=shape)) for shape in ((6, 4), (2, 4), (5, 4)))
        tables = _tables(token, segment, position)
        seqs = [_seq([2, 5, 3]), _seq([2, 3]), _seq([2, 4, 3, 5, 3], segments=[0, 0, 0, 1, 1])]
        packed = embed(seqs, tables).data
        np.testing.assert_array_equal(packed, np.vstack([embed([s], tables).data for s in seqs]))
        np.testing.assert_array_equal(packed[3], (token.data[2] + segment.data[0]) + position.data[0])

    def test_tables_of_different_widths_raise_shape_error(self):
        tables = _zero_tables()
        tables["embeddings.segment"] = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            embed([_seq([2, 5, 3])], tables)

    def test_out_of_range_id(self):
        with pytest.raises(IndexError):
            embed([_seq([2, 99, 3])], _zero_tables())

    @pytest.mark.parametrize("tokens, segments", [([2, -1, 3], None), ([2, 5, 3], [0, 2, 0]), ([2, 5, 3], [0, -1, 0])])
    def test_negative_or_out_of_range_ids_raise(self, tokens, segments):
        with pytest.raises(IndexError):
            embed([_seq([2, 3]), _seq(tokens, segments)], _zero_tables())

    def test_positions_of_a_ragged_batch_restart_per_sequence(self):
        # the position ids come from the batch plan: each sequence's arange
        rng = np.random.default_rng(15)
        tables = _zero_tables(max_len=12)
        tables["embeddings.position"].data[:, 0] = np.arange(12)
        for _ in range(25):
            lengths = rng.integers(1, 13, size=int(rng.integers(1, 9))).tolist()
            expected = np.concatenate([np.arange(m) for m in lengths])
            # a one-sequence plan gives its positions as a slice; index a table of position ids either way
            np.testing.assert_array_equal(np.arange(12)[batch_layout(tuple(lengths)).positions], expected)
            out = embed([_seq([2] * m) for m in lengths], tables).data
            np.testing.assert_array_equal(out[:, 0], expected)

    @pytest.mark.parametrize("lengths", [(6,), (2, 6), (6, 1, 3)])
    def test_sequence_longer_than_the_position_table_raises(self, lengths):
        # a hand-built sequence past max_len = 5 positions
        with pytest.raises(IndexError, match="out of range"):
            embed([_seq([2] * m) for m in lengths], _zero_tables(max_len=5))

    def test_gradient_hits_only_used_token_rows(self):
        tables = init_tables(8, 4, 6, seed=0)
        seq = _seq([2, 5, 7, 3])
        with Graph() as g:
            out = embed([seq], tables)
            g.backward(sum_all(out))
        used = {2, 5, 7, 3}
        for row in range(8):
            row_grad = tables["embeddings.token"].grad[row]
            if row in used:
                assert np.any(row_grad != 0.0)
            else:
                assert np.all(row_grad == 0.0)
        assert tables["embeddings.position"].grad is not None

    def test_gradcheck_through_embedding(self):
        rng = np.random.default_rng(8)
        tables = init_tables(7, 3, 5, seed=1)
        head = parameter(rng.normal(size=(3, 2)))
        seq = _seq([2, 5, 6, 3])

        def build():
            return cross_entropy(linear(embed([seq], tables), head, rows=[0]), [1])

        check_gradients(build, {**tables, "head": head}, rng, probes=40)


class TestInitTables:
    def test_deterministic_per_seed(self):
        a = init_tables(10, 4, 8, seed=42)
        b = init_tables(10, 4, 8, seed=42)
        for name in ("embeddings.token", "embeddings.segment", "embeddings.position"):
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_different_seeds_differ(self):
        a = init_tables(10, 4, 8, seed=1)
        b = init_tables(10, 4, 8, seed=2)
        assert not np.array_equal(a["embeddings.token"].data, b["embeddings.token"].data)

    def test_half_normal_mean(self):
        # |N(0, 0.02^2)| has mean 0.02 * sqrt(2/pi); check within 3 standard errors
        tables = init_tables(20000, 1, 5, seed=7)
        draws = np.abs(tables["embeddings.token"].data.ravel())
        expected = 0.02 * np.sqrt(2.0 / np.pi)
        stderr = np.sqrt(0.02**2 * (1.0 - 2.0 / np.pi) / draws.size)
        assert abs(draws.mean() - expected) < 3.0 * stderr

    def test_tables_are_trainable(self):
        tables = init_tables(6, 2, 4, seed=0)
        assert len(tables) == 3 and all(t.requires_grad for t in tables.values())
