from __future__ import annotations

import random

import pytest

from linkscope import decomposition
from linkscope.connectivity import _separation, cut_vertices
from linkscope.decomposition import BiconnectedComponent, biconnected_components, triconnected_components
from linkscope.errors import DisconnectedError
from linkscope.graph import Graph, edge, is_connected

from .conftest import all_connected_graphs, c_n, k_n, path_n, random_connected_graph
from .oracles import brute_blocks, first_separation_pair, reference_split_components


def two_k4s_sharing_edge() -> Graph:
    # K4 on 1..4 and K4 on 1,2,5,6 glued along edge 1-2
    return Graph(
        edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 5), (1, 6), (2, 5), (2, 6), (5, 6)]
    )


PETERSEN = Graph(
    edges=[(i, i % 5 + 1) for i in range(1, 6)]
    + [(i, i + 5) for i in range(1, 6)]
    + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
)


def subdivided(g: Graph, seed: int) -> tuple[Graph, frozenset[int], dict]:
    """g with each edge, in sorted order, replaced by a chain of 1-8 links
    drawn from random.Random(seed), and every node relabeled by a seeded
    shuffle of 1..n, so that chain nodes and base nodes interleave in the
    split's pair order and chains are cut into fragments that must be
    fused.  Also returns the base nodes and the number of links of each base
    edge, both under the new labels."""
    rng = random.Random(seed)
    links = {e: rng.randint(1, 8) for e in sorted(g.edges)}
    labels = list(range(1, g.node_count + sum(links.values()) - len(links) + 1))
    rng.shuffle(labels)
    new = dict(zip(sorted(g.nodes), labels))
    fresh = iter(labels[g.node_count :])
    edges, chains = [], {}
    for (u, v), k in links.items():
        chain = [new[u], *(next(fresh) for _ in range(k - 1)), new[v]]
        edges += zip(chain, chain[1:])
        chains[edge(new[u], new[v])] = k
    return Graph(edges=edges), frozenset(new.values()), chains


class TestBlocks:
    def test_bowtie(self, bowtie):
        blocks = biconnected_components(bowtie)
        assert [(sorted(b.nodes), b.c_b) for b in blocks] == [([1, 2, 5], 1), ([3, 4, 5], 1)]

    def test_k4_single_block(self, k4):
        blocks = biconnected_components(k4)
        assert len(blocks) == 1
        assert blocks[0].nodes == {1, 2, 3, 4}
        assert blocks[0].c_b == 0

    def test_path_blocks(self):
        blocks = biconnected_components(path_n(3))
        assert [sorted(b.edges) for b in blocks] == [[(1, 2)], [(2, 3)]]
        assert [b.c_b for b in blocks] == [1, 1]

    def test_blocks_partition_edges(self):
        for seed in range(6):
            g = random_connected_graph(9, 0.25, 40 + seed)
            blocks = biconnected_components(g)
            seen = [e for b in blocks for e in b.edges]
            assert len(seen) == len(set(seen)) == len(g.edges)

    def test_blocks_match_definition(self):
        for n in range(1, 7):
            for g in all_connected_graphs(n):
                got = sorted((b.nodes for b in biconnected_components(g)), key=sorted)
                assert got == brute_blocks(g), sorted(g.edges)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            biconnected_components(Graph([1, 2, 3], [(1, 2)]))


class TestTriconnected:
    def test_k4_is_rigid(self, k4):
        block = biconnected_components(k4)[0]
        comps = triconnected_components(block)
        assert len(comps) == 1
        assert comps[0].nodes == {1, 2, 3, 4}
        assert comps[0].virtual_edges == frozenset()
        assert comps[0].s_t == 0

    def test_c5_is_one_polygon(self):
        g = c_n(5)
        block = biconnected_components(g)[0]
        comps = triconnected_components(block)
        assert len(comps) == 1
        assert comps[0].nodes == set(range(1, 6))
        assert comps[0].real_edges == g.edges
        assert comps[0].s_t == 0

    def test_two_k4s_sharing_an_edge(self):
        g = two_k4s_sharing_edge()
        block = biconnected_components(g)[0]
        comps = triconnected_components(block)
        assert len(comps) == 2
        for comp in comps:
            assert len(comp.nodes) == 4
            assert comp.s_t == 2
            assert comp.separation_vertices == {1, 2} and comp.virtual_edges <= {(1, 2)}
            # each component carries the shared pair edge, real in exactly one
            assert (1, 2) in comp.real_edges or (1, 2) in comp.virtual_edges
        reals = [comp for comp in comps if (1, 2) in comp.real_edges]
        assert len(reals) == 1

    def test_small_block_rejected(self):
        g = path_n(3)
        block = biconnected_components(g)[0]
        with pytest.raises(ValueError):
            triconnected_components(block)

    @pytest.mark.parametrize(
        "links",
        [
            [(1, 2), (1, 3), (1, 4)],
            [(1, 2), (2, 3), (3, 4)],
            [(1, 2), (1, 5), (2, 5), (3, 4), (3, 5), (4, 5)],
            [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)],
        ],
        ids=["star", "path", "bowtie", "two-k4s-sharing-a-node"],
    )
    def test_non_biconnected_block_rejected(self, links):
        g = Graph(edges=links)
        with pytest.raises(ValueError, match="^component is not biconnected$"):
            triconnected_components(BiconnectedComponent(g.nodes, g.edges, frozenset()))

    @pytest.mark.parametrize(
        "links",
        [
            [(1, 2), (1, 3), (2, 3), (3, 4)],
            [(1, 2), (1, 3), (2, 3), (3, 3)],
            [(1, 2), (1, 3), (2, 3), (2, 1)],
        ],
        ids=["end-outside-nodes", "self-loop", "reversed-duplicate"],
    )
    def test_malformed_block_edges_rejected(self, links):
        block = BiconnectedComponent(frozenset({1, 2, 3}), frozenset(links), frozenset())
        with pytest.raises(ValueError, match=r"^block edges must be \(u, v\) with u < v, both ends among its nodes$"):
            triconnected_components(block)

    def test_cycle_is_kept_whole(self, monkeypatch):
        # a cycle block is one polygon without a separation-pair scan
        def no_scan(*args):
            raise AssertionError("a cycle piece was scanned for separation pairs")

        monkeypatch.setattr(decomposition, "_separation", no_scan)
        g = c_n(50)
        comps = triconnected_components(biconnected_components(g)[0])
        assert [(c.nodes, c.real_edges, c.virtual_edges, c.s_t) for c in comps] == [
            (g.nodes, g.edges, frozenset(), 0)
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("base", [k_n(4), k_n(5), PETERSEN], ids=["k4", "k5", "petersen"])
    def test_subdivided_rigid_graph(self, base, seed):
        """A 3-connected graph with each edge subdivided into 1-8 links is one
        rigid component on the base nodes, plus one polygon of L + 1 nodes,
        closed by the virtual base edge, per base edge of L >= 2 links."""
        g, base_nodes, links = subdivided(base, seed)
        block = biconnected_components(g)[0]
        comps = triconnected_components(block)
        chains = sorted(e for e, k in links.items() if k >= 2)
        rigid = [c for c in comps if len(c.real_edges) + len(c.virtual_edges) > len(c.nodes)]
        assert [(c.nodes, sorted(c.virtual_edges)) for c in rigid] == [(base_nodes, chains)]
        polygons = sorted((sorted(c.virtual_edges), len(c.nodes)) for c in comps if c not in rigid)
        assert polygons == [([e], links[e] + 1) for e in chains]
        got = {(c.nodes, c.real_edges, c.virtual_edges) for c in comps}
        assert got == set(reference_split_components(block.nodes, block.edges))

    def test_separation_vertices_examples(self, k4):
        block = biconnected_components(k4)[0]
        comp = triconnected_components(block)[0]
        assert comp.separation_vertices == frozenset()

        g2 = two_k4s_sharing_edge()
        for comp in triconnected_components(biconnected_components(g2)[0]):
            assert comp.separation_vertices == {1, 2}

        # rigid block hanging off a cut vertex
        g3 = Graph(
            edges=[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5), (4, 6), (5, 6)]
        )
        k4_block = next(b for b in biconnected_components(g3) if len(b.nodes) == 4)
        comp = triconnected_components(k4_block)[0]
        assert comp.separation_vertices == {4}
        assert comp.s_t == 1


class TestInvariants:
    def _all_blocks(self):
        graphs = list(all_connected_graphs(5))
        graphs += [g for i, g in enumerate(all_connected_graphs(6)) if i % 97 == 0]
        graphs += [random_connected_graph(8 + (s % 3), 0.35, 70 + s) for s in range(6)]
        for g in graphs:
            for block in biconnected_components(g):
                if len(block.nodes) >= 3:
                    yield g, block

    def test_real_edges_partition_block(self):
        for g, block in self._all_blocks():
            comps = triconnected_components(block)
            reals = [e for c in comps for e in c.real_edges]
            assert len(reals) == len(set(reals))
            assert set(reals) == set(block.edges)

    def test_virtual_pairs_are_separation_pairs(self):
        for g, block in self._all_blocks():
            block_graph = Graph(block.nodes, block.edges)
            for comp in triconnected_components(block):
                for a, b in comp.virtual_edges:
                    rest = [e for e in block_graph.edges if a not in e and b not in e]
                    assert not is_connected(Graph(block_graph.nodes - {a, b}, rest))

    def test_component_counts_stable_under_relabeling(self):
        for seed in range(5):
            g = random_connected_graph(7, 0.4, 90 + seed)
            relabel = {v: v + 10 for v in g.nodes}
            h = Graph(relabel.values(), [(relabel[u], relabel[v]) for u, v in g.edges])
            for bg, bh in zip(biconnected_components(g), biconnected_components(h)):
                if len(bg.nodes) < 3:
                    continue
                cg = triconnected_components(bg)
                ch = triconnected_components(bh)
                assert sorted(len(c.nodes) for c in cg) == sorted(len(c.nodes) for c in ch)
                assert sorted(c.s_t for c in cg) == sorted(c.s_t for c in ch)

    def test_agrees_with_reference_splitter(self):
        for g, block in self._all_blocks():
            got = {
                (c.nodes, c.real_edges, c.virtual_edges)
                for c in triconnected_components(block)
            }
            want = set(reference_split_components(block.nodes, block.edges))
            assert got == want, (sorted(block.nodes), sorted(block.edges))

    def test_separation_vertex_definition(self):
        for g, block in self._all_blocks():
            cuts = cut_vertices(g)
            comps = triconnected_components(block)
            for comp in comps:
                # the pairs it meets its siblings at: its virtual edges, and
                # each real edge that a sibling holds as a virtual copy
                sibling_virtual = set().union(*(c.virtual_edges for c in comps if c is not comp))
                pairs = comp.virtual_edges | (comp.real_edges & sibling_virtual)
                expect = (cuts & comp.nodes) | {v for e in pairs for v in e}
                assert comp.separation_vertices == expect


class TestSplitPair:
    def test_scan_pair_is_the_first_separation_pair(self):
        """The split takes its pair from the 3-connectivity scan.  On every
        block of the corpus (all connected graphs on 3-6 nodes) and of 100
        seeded graphs on 7-10 nodes, that pair is the lexicographically first
        separation pair, as before the split read the scan."""
        graphs = [g for n in range(3, 7) for g in all_connected_graphs(n)]
        graphs += [random_connected_graph(7 + s % 4, 0.35, 300 + s) for s in range(100)]
        blocks = pairs = 0
        for g in graphs:
            for block in biconnected_components(g):
                if len(block.nodes) < 3:
                    continue
                blocks += 1
                found = _separation({v: g.adj[v] & block.nodes for v in block.nodes}, 3)
                got = None if found is None else (*found[0], found[1])
                want = first_separation_pair(block.nodes, block.edges)
                assert got == want, sorted(block.edges)
                pairs += want is not None
        assert (blocks, pairs) == (27294, 20230)
