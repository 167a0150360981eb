"""Overlay/index ``lookup`` memo invalidation across mutation
interleavings, against both RAM and mapped snapshot bases.

Each committed epoch builds a fresh immutable ``OverlayIndex`` with its
own lookup memo; these tests pin that a memoized answer from epoch N
never leaks into epoch N+1 after ``remove_edge`` / ``update_text``
interleavings — and that the mapped tier (whose *base* postings
materialize lazily) behaves exactly like the RAM tier throughout.
"""

import numpy as np
import pytest

from repro.core.engine import KeywordSearchEngine
from repro.core.kernels import graph_csr
from repro.core.kernels.csr import parent_rows
from repro.core.params import SearchParams
from repro.live.dataset import MutableDataset
from repro.service.snapshot import save_engine
from repro.storage import MappedSearchGraph

MODES = ("ram", "mapped")


@pytest.fixture
def snapshot_path(toy_engine, tmp_path):
    path = tmp_path / "base.snap"
    save_engine(path, toy_engine)
    return path


def make_dataset(snapshot_path, mode) -> MutableDataset:
    ds = MutableDataset.from_snapshot(snapshot_path, storage_mode=mode)
    assert isinstance(ds.graph, MappedSearchGraph) == (mode == "mapped")
    return ds


@pytest.mark.parametrize("mode", MODES)
class TestLookupMemoInvalidation:
    def test_update_text_invalidates_memoized_lookup(self, snapshot_path, mode):
        ds = make_dataset(snapshot_path, mode)
        victim = sorted(ds.index.lookup("transaction"))[0]
        before = ds.index.lookup("transaction")  # memoized in this epoch
        assert ds.index.lookup("transaction") == before
        ds.update_text(victim, "completely different words")
        ds.commit()
        after = ds.index.lookup("transaction")
        assert victim not in after
        assert after == before - {victim}
        assert victim in ds.index.lookup("completely")

    def test_readded_term_reappears(self, snapshot_path, mode):
        ds = make_dataset(snapshot_path, mode)
        victim = sorted(ds.index.lookup("transaction"))[0]
        original_text = ds.graph.label(victim)
        ds.update_text(victim, "placeholder")
        ds.commit()
        assert victim not in ds.index.lookup("transaction")
        ds.update_text(victim, original_text)
        ds.commit()
        assert victim in ds.index.lookup("transaction")

    def test_remove_edge_between_text_updates(self, snapshot_path, mode):
        """Interleave graph and index mutations in one epoch and across
        epochs; lookups and adjacency must both track the latest commit."""
        ds = make_dataset(snapshot_path, mode)
        # Pick a forward edge whose endpoints both carry text.
        u = next(
            n for n in ds.graph.nodes()
            if any(fwd for _, _, fwd in ds.graph.out_edges(n))
        )
        v = next(t for t, _, fwd in ds.graph.out_edges(u) if fwd)
        ds.index.lookup("gray")  # warm this epoch's memo
        degree_before = len(ds.graph.out_edges(u))

        ds.remove_edge(u, v)
        ds.update_text(u, "interleaved mutation probe")
        ds.commit()

        assert len(ds.graph.out_edges(u)) < degree_before
        assert u in ds.index.lookup("interleaved")
        assert all(
            not (t == v and fwd) for t, _, fwd in ds.graph.out_edges(u)
        )

        # Second epoch: move the text again; the first epoch's memo for
        # "interleaved" must not survive.
        assert u in ds.index.lookup("interleaved")  # memoize pre-mutation
        ds.update_text(u, "settled")
        ds.commit()
        assert u not in ds.index.lookup("interleaved")
        assert u in ds.index.lookup("settled")

    def test_uncommitted_stage_not_visible_then_visible(self, snapshot_path, mode):
        ds = make_dataset(snapshot_path, mode)
        node = sorted(ds.index.lookup("postgres"))[0]
        ds.update_text(node, "renamed entirely")
        # Staged but uncommitted: the serving epoch still answers old.
        assert node in ds.index.lookup("postgres")
        ds.commit()
        assert node not in ds.index.lookup("postgres")
        assert node in ds.index.lookup("renamed")


@pytest.mark.parametrize("mode", MODES)
def test_search_tracks_interleaved_mutations(snapshot_path, mode):
    """End-to-end: the per-epoch engine over an overlay answers from the
    latest epoch for both base tiers, identically."""
    ds = make_dataset(snapshot_path, mode)
    node = sorted(ds.index.lookup("transaction"))[0]
    ds.update_text(node, "xyzzyterm probe")
    ds.commit()
    engine = ds.engine
    assert isinstance(engine, KeywordSearchEngine)
    result = engine.search("xyzzyterm", k=3)
    assert result.answers
    assert any(node in answer.tree.nodes() for answer in result.answers)


def test_modes_agree_after_identical_interleavings(snapshot_path):
    """The same mutation script applied over a RAM base and a mapped
    base must leave byte-identical logical state."""
    datasets = [make_dataset(snapshot_path, mode) for mode in MODES]
    for ds in datasets:
        victim = sorted(ds.index.lookup("transaction"))[0]
        u = next(
            n for n in ds.graph.nodes()
            if any(fwd for _, _, fwd in ds.graph.out_edges(n))
        )
        v = next(t for t, _, fwd in ds.graph.out_edges(u) if fwd)
        ds.remove_edge(u, v)
        ds.update_text(victim, "rewritten after removal")
        ds.commit()
    ram, mapped = datasets
    assert ram.version == mapped.version
    for node in ram.graph.nodes():
        assert ram.graph.out_edges(node) == mapped.graph.out_edges(node)
        assert ram.graph.in_edges(node) == mapped.graph.in_edges(node)
    for term in ("transaction", "rewritten", "gray", "paper"):
        assert ram.index.lookup(term) == mapped.index.lookup(term)
    a = ram.engine.search("rewritten removal", k=5)
    b = mapped.engine.search("rewritten removal", k=5)
    assert a.scores() == b.scores()
    assert a.signatures() == b.signatures()


def _parents(edges):
    bucket = {}
    for u, w, _ in edges:
        if u not in bucket or w < bucket[u]:
            bucket[u] = w
    return list(bucket.items())


def mutated_dataset(snapshot_path, mode) -> MutableDataset:
    """One commit past the snapshot: an edge removed and re-added (so
    it moves to the end of its rows) and a new node with an edge."""
    ds = make_dataset(snapshot_path, mode)
    u = next(
        n for n in ds.graph.nodes()
        if any(fwd for _, _, fwd in ds.graph.out_edges(n))
    )
    v = next(t for t, _, fwd in ds.graph.out_edges(u) if fwd)
    ds.remove_edge(u, v)
    new = ds.add_node("csr overlay probe", text="csr overlay probe")
    ds.add_edge(new, v)
    ds.add_edge(u, v)  # re-added: now last in its rows
    ds.commit()
    return ds


@pytest.mark.parametrize("mode", MODES)
class TestKernelCSR:
    """The kernel CSR of an overlay epoch reuses its base's arrays and
    still reads exactly the epoch's adjacency; over a mapped base the
    edge arrays stay views of the snapshot."""

    def test_overlay_rows_match_graph(self, snapshot_path, mode):
        ds = mutated_dataset(snapshot_path, mode)
        graph = ds.graph
        csr = graph_csr(graph)
        assert csr.n == graph.num_nodes
        parents = parent_rows(csr)
        for v in range(graph.num_nodes):
            src, w = csr.in_side.row(v)
            assert list(zip(src.tolist(), w.tolist())) == [
                (u, wt) for u, wt, _ in graph.in_edges(v)
            ]
            dst, w = csr.out_side.row(v)
            assert list(zip(dst.tolist(), w.tolist())) == [
                (t, wt) for t, wt, _ in graph.out_edges(v)
            ]
            assert csr.in_norm[v] == graph.in_inv_weight_sum(v)
            assert csr.out_norm[v] == graph.out_inv_weight_sum(v)
            assert parents[v] == _parents(graph.in_edges(v))
        nodes = np.arange(graph.num_nodes, dtype=np.int64)
        nbr, rep, w = csr.in_side.gather(nodes)
        assert list(zip(nbr.tolist(), rep.tolist(), w.tolist())) == [
            (u, v, wt)
            for v in range(graph.num_nodes)
            for u, wt, _ in graph.in_edges(v)
        ]

    def test_overlay_shares_base_arrays(self, snapshot_path, mode):
        ds = mutated_dataset(snapshot_path, mode)
        base = graph_csr(ds.graph._base)
        csr = graph_csr(ds.graph)
        assert csr.in_side.nbr is base.in_side.nbr
        assert csr.out_side.w is base.out_side.w
        if mode == "mapped":
            assert not base.in_side.nbr.flags.owndata
            assert not base.out_side.w.flags.owndata


def test_batched_search_over_mapped_base_faults_no_rows(snapshot_path):
    ds = mutated_dataset(snapshot_path, "mapped")
    stats = ds.graph._base.storage
    before = stats.row_faults
    engine = KeywordSearchEngine(
        ds.graph, ds.index, params=SearchParams(expansion_backend="vectorized")
    )
    for algorithm in ("si-backward", "bidirectional"):
        result = engine.search("gray transaction", algorithm=algorithm)
        assert result.answers
        assert result.stats.kernel_batches > 0
    assert stats.row_faults == before
