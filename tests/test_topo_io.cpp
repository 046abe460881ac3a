// Tests for the gddr-topology file format (src/topo/io.hpp).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "topo/generators.hpp"
#include "topo/io.hpp"
#include "topo/mutate.hpp"
#include "topo/zoo.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gddr::topo {
namespace {

TEST(TopologyIo, RoundTripPreservesStructure) {
  for (const auto& name : catalogue_names()) {
    const graph::DiGraph original = by_name(name);
    std::stringstream ss;
    save_topology(ss, original);
    const graph::DiGraph loaded = load_topology(ss);
    EXPECT_EQ(loaded.num_nodes(), original.num_nodes()) << name;
    EXPECT_EQ(loaded.num_edges(), original.num_edges()) << name;
    EXPECT_EQ(loaded.name(), original.name()) << name;
    // Same connectivity and capacities (edge order may differ).
    for (graph::EdgeId e = 0; e < original.num_edges(); ++e) {
      const auto& ed = original.edge(e);
      const auto found = loaded.find_edge(ed.src, ed.dst);
      ASSERT_TRUE(found.has_value()) << name << " edge " << e;
      EXPECT_DOUBLE_EQ(loaded.edge(*found).capacity, ed.capacity) << name;
    }
    EXPECT_TRUE(graph::is_strongly_connected(loaded)) << name;
  }
}

TEST(TopologyIo, DirectedOnlyEdgesUseEdgeKeyword) {
  graph::DiGraph g(3, "mixed");
  g.add_bidirectional(0, 1, 100.0);
  g.add_edge(1, 2, 50.0);  // one-way
  std::stringstream ss;
  save_topology(ss, g);
  const std::string text = ss.str();
  EXPECT_NE(text.find("link 0 1 100"), std::string::npos);
  EXPECT_NE(text.find("edge 1 2 50"), std::string::npos);
  std::stringstream rs(text);
  const graph::DiGraph loaded = load_topology(rs);
  EXPECT_EQ(loaded.num_edges(), 3);
  EXPECT_FALSE(loaded.find_edge(2, 1).has_value());
}

TEST(TopologyIo, AsymmetricCapacitiesNotMergedIntoLink) {
  graph::DiGraph g(2, "asym");
  g.add_edge(0, 1, 100.0);
  g.add_edge(1, 0, 200.0);
  std::stringstream ss;
  save_topology(ss, g);
  std::stringstream rs(ss.str());
  const graph::DiGraph loaded = load_topology(rs);
  EXPECT_DOUBLE_EQ(loaded.edge(*loaded.find_edge(0, 1)).capacity, 100.0);
  EXPECT_DOUBLE_EQ(loaded.edge(*loaded.find_edge(1, 0)).capacity, 200.0);
}

TEST(TopologyIo, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(
      "gddr-topology v1\n"
      "# a comment\n"
      "\n"
      "name Test\n"
      "nodes 2\n"
      "   # indented comment\n"
      "link 0 1 10\n");
  const graph::DiGraph g = load_topology(ss);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.name(), "Test");
}

TEST(TopologyIo, MissingHeaderRejected) {
  std::stringstream ss("nodes 2\nlink 0 1 10\n");
  EXPECT_THROW(load_topology(ss), std::runtime_error);
}

TEST(TopologyIo, MissingNodesRejected) {
  std::stringstream ss("gddr-topology v1\nname X\n");
  EXPECT_THROW(load_topology(ss), std::runtime_error);
}

TEST(TopologyIo, OutOfRangeNodeRejected) {
  std::stringstream ss("gddr-topology v1\nnodes 2\nlink 0 5 10\n");
  EXPECT_THROW(load_topology(ss), std::runtime_error);
}

TEST(TopologyIo, BadCapacityRejected) {
  std::stringstream ss("gddr-topology v1\nnodes 2\nlink 0 1 -3\n");
  EXPECT_THROW(load_topology(ss), std::runtime_error);
}

TEST(TopologyIo, SelfLoopRejected) {
  std::stringstream ss("gddr-topology v1\nnodes 2\nlink 1 1 10\n");
  EXPECT_THROW(load_topology(ss), std::runtime_error);
}

TEST(TopologyIo, UnknownKeywordRejected) {
  std::stringstream ss("gddr-topology v1\nnodes 2\nwormhole 0 1 10\n");
  EXPECT_THROW(load_topology(ss), std::runtime_error);
}

TEST(TopologyIo, MalformedEdgeLineRejected) {
  std::stringstream ss("gddr-topology v1\nnodes 2\nlink 0\n");
  EXPECT_THROW(load_topology(ss), std::runtime_error);
}

TEST(TopologyIo, MissingFileRejected) {
  EXPECT_THROW(load_topology_file("/nonexistent/path.topo"),
               std::runtime_error);
}

TEST(TopologyIo, ErrorsCarryLineNumbers) {
  std::stringstream ss("gddr-topology v1\nnodes 2\nlink 0 9 10\n");
  try {
    load_topology(ss);
    FAIL() << "expected exception";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("line 3"), std::string::npos)
        << ex.what();
  }
}

TEST(TopologyIo, NodeCountAboveBoundRejected) {
  for (const char* count : {"65537", "2000000000"}) {
    std::stringstream ss(std::string("gddr-topology v1\nnodes ") + count +
                         "\n");
    EXPECT_THROW(load_topology(ss), util::IoError) << count;
  }
  std::stringstream ss("gddr-topology v1\nnodes " +
                       std::to_string(kMaxTopologyNodes) + "\nlink 0 1 10\n");
  EXPECT_EQ(load_topology(ss).num_nodes(), kMaxTopologyNodes);
}

// Requires load_topology(text) to throw util::IoError naming `line`.
void expect_rejected_at(const std::string& text, int line) {
  std::stringstream ss(text);
  try {
    (void)load_topology(ss);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const util::IoError& ex) {
    EXPECT_NE(std::string(ex.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << ex.what();
  }
}

TEST(TopologyIo, TrailingTokensRejected) {
  std::stringstream ss("gddr-topology v1\nnodes 3 999\nlink 0 1 10\n");
  try {
    (void)load_topology(ss);
    FAIL() << "trailing count accepted";
  } catch (const util::IoError& ex) {
    EXPECT_NE(std::string(ex.what()).find("line 2: unexpected token '999'"),
              std::string::npos)
        << ex.what();
  }
  expect_rejected_at("gddr-topology v1\nnodes 3\nlink 0 1 10 junk\n", 3);
  expect_rejected_at("gddr-topology v1\nnodes 3\nedge 0 1 10 20\n", 3);
  expect_rejected_at("gddr-topology v1\nname two words\nnodes 3\n", 2);
  expect_rejected_at("gddr-topology v1 extra\nnodes 3\n", 1);
  expect_rejected_at("gddr-topology v1\nnodes 3\nlink 0 1 10x\n", 3);
}

TEST(TopologyIo, RepeatedDirectedPairRejected) {
  expect_rejected_at(
      "gddr-topology v1\nnodes 3\nlink 1 2 10\nlink 0 1 10\nlink 1 2 10\n",
      5);
  // A link repeats each direction of an earlier edge, and vice versa.
  expect_rejected_at("gddr-topology v1\nnodes 3\nedge 2 1 10\nlink 1 2 10\n",
                     4);
  expect_rejected_at("gddr-topology v1\nnodes 3\nlink 1 2 10\nedge 1 2 5\n",
                     4);
  // Opposite directions are two different pairs.
  std::stringstream ss("gddr-topology v1\nnodes 3\nedge 1 2 10\nedge 2 1 5\n");
  EXPECT_EQ(load_topology(ss).num_edges(), 2);
}

TEST(TopologyIo, RepeatedDeclarationsRejected) {
  expect_rejected_at("gddr-topology v1\nnodes 3\nnodes 4\n", 3);
  expect_rejected_at("gddr-topology v1\nname A\nnodes 3\nname B\n", 4);
}

TEST(TopologyIo, CommentAfterTokensIgnored) {
  std::stringstream ss(
      "gddr-topology v1  # format header\n"
      "nodes 2\t# two routers\n"
      "link 0 1 10 # bidirectional\n");
  const graph::DiGraph g = load_topology(ss);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(TopologyIo, GeneratedGraphsRoundTrip) {
  util::Rng rng(17);
  std::vector<graph::DiGraph> graphs;
  for (int i = 0; i < 4; ++i) {
    graphs.push_back(erdos_renyi(12 + i, 0.3, rng));
    graphs.push_back(watts_strogatz(14 + i, 4, 0.3, rng));
    graphs.push_back(barabasi_albert(20 + 10 * i, 2, rng));
    graphs.push_back(topo::mutate(abilene(), 1 + i % 2, rng));
  }
  for (const graph::DiGraph& original : graphs) {
    std::stringstream ss;
    save_topology(ss, original);
    const graph::DiGraph loaded = load_topology(ss);
    ASSERT_EQ(loaded.num_edges(), original.num_edges()) << original.name();
    EXPECT_EQ(loaded.num_nodes(), original.num_nodes());
    EXPECT_EQ(loaded.name(), original.name());
    for (const graph::Edge& e : original.edges()) {
      const auto found = loaded.find_edge(e.src, e.dst);
      ASSERT_TRUE(found.has_value()) << original.name();
      EXPECT_EQ(loaded.edge(*found).capacity, e.capacity);
    }
  }
}

TEST(TopologyIo, CapacitiesRoundTripBitExactly) {
  // The stream default of six significant digits would save 1234567 as
  // 1.23457e+06 and load it back as 1234570.
  for (const double capacity : {1234567.0, 0.1, 9920.000000001}) {
    graph::DiGraph original(3, "caps");
    original.add_bidirectional(0, 1, capacity);  // saved as a link
    original.add_edge(1, 2, capacity);           // saved as edges
    original.add_edge(2, 0, capacity);
    std::stringstream ss;
    save_topology(ss, original);
    const graph::DiGraph loaded = load_topology(ss);
    ASSERT_EQ(loaded.num_edges(), original.num_edges());
    for (const graph::Edge& e : original.edges()) {
      const auto found = loaded.find_edge(e.src, e.dst);
      ASSERT_TRUE(found.has_value());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.edge(*found).capacity),
                std::bit_cast<std::uint64_t>(capacity))
          << ss.str();
    }
  }
}

TEST(TopologyIo, SaveRejectsWhatLoadWouldReject) {
  for (const char* name : {"two words", "tab\tname", "#hash"}) {
    graph::DiGraph g(2, name);
    g.add_bidirectional(0, 1, 10.0);
    std::stringstream ss;
    EXPECT_THROW(save_topology(ss, g), util::IoError) << name;
    EXPECT_TRUE(ss.str().empty()) << name;
  }
  graph::DiGraph parallel(2, "parallel");
  parallel.add_edge(0, 1, 10.0);
  parallel.add_edge(0, 1, 20.0);
  std::stringstream ss;
  EXPECT_THROW(save_topology(ss, parallel), util::IoError);
}

// Deterministic mutation `seed` of a saved topology file: byte flips,
// truncations, inserted digits and keyword swaps.
std::string mutate(const std::string& original, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_index(n));
  };
  std::string text = original;
  switch (seed % 4) {
    case 0: {  // byte flips anywhere
      const auto flips = rng.uniform_int(1, 3);
      for (std::int64_t i = 0; i < flips; ++i) {
        text[pick(text.size())] ^= static_cast<char>(rng.uniform_int(1, 255));
      }
      break;
    }
    case 1:  // truncation
      text.resize(pick(text.size()));
      break;
    case 2: {  // inserted digits, sometimes signed: counts, ids, capacities
      std::string digits = rng.bernoulli(0.2) ? "-" : "";
      const auto n = rng.uniform_int(1, 12);
      for (std::int64_t i = 0; i < n; ++i) {
        digits += static_cast<char>('0' + rng.uniform_int(0, 9));
      }
      text.insert(pick(text.size() + 1), digits);
      break;
    }
    default: {  // one keyword replaced by another (or by an unknown one)
      static const std::array<std::string, 6> keywords = {
          "gddr-topology", "name", "nodes", "link", "edge", "wormhole"};
      std::vector<std::size_t> at;
      for (const std::string& k : keywords) {
        for (auto p = text.find(k); p != std::string::npos;
             p = text.find(k, p + 1)) {
          at.push_back(p);
        }
      }
      const std::size_t p = at[pick(at.size())];
      std::size_t len = 0;
      while (p + len < text.size() && text[p + len] != ' ' &&
             text[p + len] != '\n') {
        ++len;
      }
      text.replace(p, len, keywords[pick(keywords.size())]);
      break;
    }
  }
  return text;
}

// Every mutated file either parses into a well-formed graph or throws
// util::IoError; nothing else escapes, and no count in the file can
// size an allocation past kMaxTopologyNodes.
TEST(TopologyIo, MutatedFilesParseOrThrowIoError) {
  int parsed = 0;
  int rejected = 0;
  for (const char* name : {"Abilene", "SmallRing", "Nsfnet"}) {
    std::stringstream saved;
    save_topology(saved, by_name(name));
    const std::string original = saved.str();
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
      std::stringstream in(mutate(original, seed));
      try {
        const graph::DiGraph g = load_topology(in);
        ++parsed;
        EXPECT_LE(g.num_nodes(), kMaxTopologyNodes) << name << " " << seed;
        for (graph::EdgeId id = 0; id < g.num_edges(); ++id) {
          const graph::Edge& e = g.edge(id);
          ASSERT_TRUE(g.valid_node(e.src) && g.valid_node(e.dst))
              << name << " " << seed;
          ASSERT_NE(e.src, e.dst) << name << " " << seed;
          ASSERT_GT(e.capacity, 0.0) << name << " " << seed;
          // No parallel pair: the first edge from src to dst is this one.
          ASSERT_EQ(g.find_edge(e.src, e.dst), id) << name << " " << seed;
        }
      } catch (const util::IoError&) {
        ++rejected;
      } catch (const std::exception& ex) {
        ADD_FAILURE() << name << " seed " << seed << ": non-IoError "
                      << ex.what();
      }
    }
  }
  // Both outcomes occur: flips inside names and comments, and trailing
  // truncations, still parse.  The strict parser rejects 924 of the 1200
  // (the lenient one before it, which ignored trailing tokens and
  // repeated links, rejected 833).
  EXPECT_GT(parsed, 200);
  EXPECT_GT(rejected, 850);
}

}  // namespace
}  // namespace gddr::topo
