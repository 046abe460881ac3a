// Workload definitions and the seed -> inputs generators.
//
// Every workload measures both GDDR paths on inputs drawn from one seed:
// serving (requests through serve::Engine, from a seeded, untrained
// policy) and training (PPO against the LP reward oracle, then
// core::evaluate_policy).  The workloads differ in
// graph size and traffic regime, and so in which layer dominates:
//
//   abilene       serving on Abilene (11 nodes): the GNN forward dominates
//                 a decision.  Training on AbileneHet with the paper's
//                 cyclical traffic, where the LP cache answers most rewards
//                 and the PPO update dominates.
//   ba100-nsfnet  serving on a fixed Barabasi-Albert(100, 2) graph (394
//                 edges): softmin translation and simulation dominate.
//                 Training on Nsfnet with non-repeating traffic: almost
//                 every reward is a fresh simplex solve.
//
// The program receives only what these generators produce; the seeds of
// the policy weights and of the trainer's own sampling are fixed, so the
// same --seed always gives bit-identical decisions and training results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "graph/digraph.hpp"
#include "serve/router.hpp"
#include "traffic/demand.hpp"

namespace gddr::perfbench {

// Fixed seed of the BA100 serving graph, so that changing --seed changes the
// traffic but never the graph size or shape.
inline constexpr std::uint64_t kBa100GraphSeed = 100;
inline constexpr int kMemory = 5;
inline constexpr std::uint64_t kPolicySeed = 7;
inline constexpr std::uint64_t kTrainerSeed = 11;
// Seed of the reference traffic the serving feature scales come from.
inline constexpr std::uint64_t kFeatureScaleSeed = 13;
inline constexpr int kCyclicTestSequences = 30;

enum class ServeGraph { kAbilene, kBa100 };
enum class TrainKind { kAbileneCyclic, kNsfnetFresh };

struct WorkloadSpec {
  std::string name;
  ServeGraph serve_graph = ServeGraph::kAbilene;
  double open_rate = 0.0;  // open-loop requests/s (see all_workloads())
  // Shares of --seconds spent in the closed- and open-loop serving phases.
  double closed_share = 0.0;
  double open_share = 0.0;
  TrainKind train = TrainKind::kAbileneCyclic;
  // Timed PPO iterations per 10 s of --seconds (at least 1 in total).
  double iterations_per_10s = 0.0;
  // Requests replayed serially (bit-identity check, traced stage timing).
  int replay_samples = 0;
  // Engine micro-batch cap.  Batching amortises the GNN forward, which
  // dominates a decision on Abilene; on BA100 the forward is a
  // few percent of one, and a batch only serialises routing work on one
  // worker while the other idles, so that workload serves unbatched.
  int max_batch = 0;
};

// Throws std::invalid_argument for an unknown name.
const WorkloadSpec& workload(const std::string& name);
const std::vector<WorkloadSpec>& all_workloads();

// Independent sub-seed `stream` of a run seed (splitmix64 mix).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

// Training scenario: paper Fig. 6/7 traffic (60-matrix sequences, memory
// 5, 7 train sequences).  kAbileneCyclic runs on AbileneHet, keeps cycle
// 10 and evaluates on kCyclicTestSequences test sequences; kNsfnetFresh
// sets the cycle length to the sequence length, with 200 train and 3 test
// sequences.
core::Scenario training_scenario(TrainKind kind, std::uint64_t seed);

// Serving traffic on `g`: `sequences` cyclical bimodal 60-matrix sequences
// (cycle 10, the training traffic model) as the test sequences, with the
// feature scales make_scenario derives from kFeatureScaleSeed traffic.
core::Scenario serving_scenario(graph::DiGraph g, int sequences,
                                std::uint64_t seed);

// The serving graph of a workload, and its number of serving sequences:
// enough distinct matrices that u_max_mean is steady from seed to seed.
graph::DiGraph serving_graph(ServeGraph graph);
int serving_sequences(ServeGraph graph);

// Request i of a stream: window i (round robin over every position t >=
// memory of every test sequence, time-major: t = memory for every
// sequence, then memory + 1, ...) as demand seq[t] with history
// seq[t-memory, t).  `scenario` must outlive the stream.
class RequestStream {
 public:
  RequestStream(const core::Scenario& scenario, int memory);
  std::size_t distinct() const { return positions_.size(); }
  serve::RouteRequest make(std::size_t i) const;

 private:
  const core::Scenario* scenario_;
  int memory_;
  std::vector<std::pair<std::size_t, int>> positions_;
};

// Open-loop schedule: `controllers` independent senders, each at a fixed
// rate of rate/controllers with a seeded phase, each sending exactly
// round(rate * seconds / controllers) requests.  Returns the merged send
// offsets in seconds, ascending.
std::vector<double> open_loop_offsets(double rate, double seconds,
                                      int controllers, std::uint64_t seed);

}  // namespace gddr::perfbench
