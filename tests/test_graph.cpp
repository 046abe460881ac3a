#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "graph/digraph.hpp"
#include "topo/zoo.hpp"

namespace gddr::graph {
namespace {

DiGraph diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3 with distinct capacities.
  DiGraph g(4, "diamond");
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 3, 10.0);
  g.add_edge(0, 2, 5.0);
  g.add_edge(2, 3, 5.0);
  return g;
}

TEST(DiGraph, ConstructionCounts) {
  const DiGraph g = diamond();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.name(), "diamond");
}

TEST(DiGraph, NegativeNodeCountRejected) {
  EXPECT_THROW(DiGraph(-1), std::invalid_argument);
  EXPECT_EQ(DiGraph(0).num_nodes(), 0);
}

TEST(DiGraph, EdgeAccess) {
  const DiGraph g = diamond();
  EXPECT_EQ(g.edge(0).src, 0);
  EXPECT_EQ(g.edge(0).dst, 1);
  EXPECT_DOUBLE_EQ(g.edge(2).capacity, 5.0);
}

TEST(DiGraph, AdjacencyLists) {
  const DiGraph g = diamond();
  EXPECT_EQ(g.out_edges(0).size(), 2U);
  EXPECT_EQ(g.in_edges(3).size(), 2U);
  EXPECT_EQ(g.out_edges(3).size(), 0U);
}

TEST(DiGraph, FindEdge) {
  const DiGraph g = diamond();
  EXPECT_TRUE(g.find_edge(0, 1).has_value());
  EXPECT_FALSE(g.find_edge(1, 0).has_value());
  EXPECT_FALSE(g.find_edge(0, 3).has_value());
}

TEST(DiGraph, SelfLoopRejected) {
  DiGraph g(2);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), std::invalid_argument);
}

TEST(DiGraph, NonPositiveCapacityRejected) {
  DiGraph g(2);
  EXPECT_THROW(g.add_edge(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), std::invalid_argument);
}

TEST(DiGraph, InvalidNodeRejected) {
  DiGraph g(2);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), std::out_of_range);
}

TEST(DiGraph, AddBidirectionalCreatesBoth) {
  DiGraph g(2);
  g.add_bidirectional(0, 1, 3.0);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.find_edge(0, 1).has_value());
  EXPECT_TRUE(g.find_edge(1, 0).has_value());
}

TEST(DiGraph, AddNodeGrows) {
  DiGraph g(1);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 1);
  EXPECT_EQ(g.num_nodes(), 2);
}

TEST(DiGraph, WithoutEdgeCompacts) {
  const DiGraph g = diamond();
  const DiGraph h = g.without_edge(1);  // removes 1 -> 3
  EXPECT_EQ(h.num_edges(), 3);
  EXPECT_FALSE(h.find_edge(1, 3).has_value());
  EXPECT_TRUE(h.find_edge(0, 1).has_value());
}

TEST(DiGraph, WithoutNodeRenumbers) {
  const DiGraph g = diamond();
  const DiGraph h = g.without_node(1);
  EXPECT_EQ(h.num_nodes(), 3);
  // Old node 2 becomes node 1; old node 3 becomes node 2.
  EXPECT_TRUE(h.find_edge(0, 1).has_value());   // was 0 -> 2
  EXPECT_TRUE(h.find_edge(1, 2).has_value());   // was 2 -> 3
  EXPECT_EQ(h.num_edges(), 2);
}

TEST(DiGraph, TotalCapacity) {
  EXPECT_DOUBLE_EQ(diamond().total_capacity(), 30.0);
}

TEST(DiGraph, EqualityStructural) {
  EXPECT_TRUE(diamond() == diamond());
  DiGraph g = diamond();
  g.add_edge(3, 0, 1.0);
  EXPECT_FALSE(g == diamond());
}

TEST(Dijkstra, UnitWeightsHopCount) {
  const DiGraph g = diamond();
  const auto sp = dijkstra(g, 0, unit_weights(g));
  EXPECT_DOUBLE_EQ(sp.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(sp.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(sp.dist[3], 2.0);
}

TEST(Dijkstra, WeightedChoosesCheaperPath) {
  DiGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<double> w{10.0, 10.0, 1.0, 1.0};
  const auto sp = dijkstra(g, 0, w);
  EXPECT_DOUBLE_EQ(sp.dist[3], 2.0);
  const auto path = extract_path(g, sp, 0, 3);
  ASSERT_EQ(path.size(), 3U);
  EXPECT_EQ(path[1], 2);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  DiGraph g(3);
  g.add_edge(0, 1, 1.0);
  const auto sp = dijkstra(g, 0, unit_weights(g));
  EXPECT_EQ(sp.dist[2], kInfDist);
  EXPECT_TRUE(extract_path(g, sp, 0, 2).empty());
}

TEST(Dijkstra, NegativeWeightRejected) {
  DiGraph g(2);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(dijkstra(g, 0, {-1.0}), std::invalid_argument);
}

TEST(Dijkstra, WrongWeightSizeRejected) {
  DiGraph g(2);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(dijkstra(g, 0, {1.0, 2.0}), std::invalid_argument);
}

TEST(DijkstraTo, ReverseDistances) {
  const DiGraph g = diamond();
  const auto sp = dijkstra_to(g, 3, unit_weights(g));
  EXPECT_DOUBLE_EQ(sp.dist[3], 0.0);
  EXPECT_DOUBLE_EQ(sp.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(sp.dist[0], 2.0);
}

TEST(DijkstraTo, ParentEdgeLeadsTowardSink) {
  const DiGraph g = diamond();
  const auto sp = dijkstra_to(g, 3, unit_weights(g));
  const EdgeId pe = sp.parent_edge[1];
  EXPECT_EQ(g.edge(pe).src, 1);
  EXPECT_EQ(g.edge(pe).dst, 3);
}

TEST(TopologicalOrder, DagOrdered) {
  const DiGraph g = diamond();
  const std::vector<bool> all(4, true);
  const auto order = topological_order(g, all);
  ASSERT_TRUE(order.has_value());
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<size_t>((*order)[i])] = i;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_LT(pos[static_cast<size_t>(g.edge(e).src)],
              pos[static_cast<size_t>(g.edge(e).dst)]);
  }
}

TEST(TopologicalOrder, CycleDetected) {
  DiGraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 1.0);
  EXPECT_FALSE(topological_order(g, {true, true}).has_value());
  EXPECT_TRUE(has_cycle(g, {true, true}));
}

TEST(TopologicalOrder, MaskBreaksCycle) {
  DiGraph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 1.0);
  EXPECT_TRUE(topological_order(g, {true, false}).has_value());
  EXPECT_FALSE(has_cycle(g, {true, false}));
}

TEST(StronglyConnected, PathGraphBidirectionalIs) {
  DiGraph g(3);
  g.add_bidirectional(0, 1, 1.0);
  g.add_bidirectional(1, 2, 1.0);
  // Bidirectional path is strongly connected: 2->1->0 exists.
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(StronglyConnected, DirectedChainIsNot) {
  DiGraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  EXPECT_FALSE(is_strongly_connected(g));
}

TEST(StronglyConnected, DirectedCycleIs) {
  DiGraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 0, 1.0);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(AllPairs, MatchesSingleSource) {
  const DiGraph g = topo::abilene();
  const auto w = unit_weights(g);
  const auto all = all_pairs_distances(g, w);
  for (NodeId s = 0; s < g.num_nodes(); s += 3) {
    const auto sp = dijkstra(g, s, w);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_DOUBLE_EQ(all[static_cast<size_t>(s)][static_cast<size_t>(t)],
                       sp.dist[static_cast<size_t>(t)]);
    }
  }
}

TEST(ShortestPathDag, DiamondKeepsBothBranches) {
  DiGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const auto dag = shortest_path_dag_to(g, 3, unit_weights(g));
  EXPECT_EQ(dag[0].size(), 2U);  // both branches are shortest
  EXPECT_EQ(dag[1].size(), 1U);
  EXPECT_EQ(dag[3].size(), 0U);
}

TEST(ShortestPathDag, AsymmetricWeightsKeepOnlyShortest) {
  DiGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const std::vector<double> w{1.0, 1.0, 2.0, 2.0};
  const auto dag = shortest_path_dag_to(g, 3, w);
  ASSERT_EQ(dag[0].size(), 1U);
  EXPECT_EQ(g.edge(dag[0][0]).dst, 1);
}

TEST(KShortestPaths, FindsDistinctLooplessPaths) {
  const DiGraph g = topo::abilene();
  const auto paths = k_shortest_paths(g, 0, 10, unit_weights(g), 4);
  ASSERT_GE(paths.size(), 2U);
  for (const auto& p : paths) {
    EXPECT_EQ(p.front(), 0);
    EXPECT_EQ(p.back(), 10);
    std::vector<NodeId> sorted = p;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "path contains a repeated node";
  }
  // Paths must be pairwise distinct.
  for (size_t i = 0; i < paths.size(); ++i) {
    for (size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_NE(paths[i], paths[j]);
    }
  }
}

TEST(KShortestPaths, SortedByLength) {
  const DiGraph g = topo::abilene();
  const auto w = unit_weights(g);
  const auto paths = k_shortest_paths(g, 0, 7, w, 5);
  for (size_t i = 0; i + 1 < paths.size(); ++i) {
    EXPECT_LE(paths[i].size(), paths[i + 1].size());
  }
}

TEST(KShortestPaths, KZeroEmpty) {
  const DiGraph g = diamond();
  EXPECT_TRUE(k_shortest_paths(g, 0, 3, unit_weights(g), 0).empty());
}

TEST(KShortestPaths, UnreachableEmpty) {
  DiGraph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_TRUE(k_shortest_paths(g, 0, 2, unit_weights(g), 3).empty());
}

}  // namespace
}  // namespace gddr::graph
