// Which demand sequence an episode reads — the part both routing
// environments share.
//
// The one-shot environment (core/routing_env.hpp, paper §V) and the
// iterative one (core/iterative_env.hpp, §VII-B) differ only in how an
// episode walks a demand sequence.  Choosing the sequence is common: in
// train mode a (scenario, train sequence) pair is sampled from the
// cursor's own RNG; in test mode every (scenario, test sequence) pair — a
// test *unit* — is swept in a fixed, scenario-major order, so evaluation
// is deterministic and can be farmed out per unit (core/evaluate.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "util/rng.hpp"

namespace gddr::core {

class EpisodeCursor {
 public:
  enum class Mode { kTrain, kTest };

  // Everything a checkpoint records, in blob order.
  struct State {
    util::Rng rng;
    Mode mode = Mode::kTrain;
    std::size_t scenario = 0;
    std::size_t sequence = 0;
    std::size_t test_cursor = 0;  // the unit the next test advance() takes
  };

  // Throws std::invalid_argument, naming `owner`, unless there is a
  // scenario, each has train and test sequences, and every sequence is
  // longer than `memory`: an episode's first observation reads the
  // `memory` matrices before the first one it routes.
  EpisodeCursor(std::vector<Scenario> scenarios, int memory,
                std::uint64_t seed, const char* owner);

  // Switches mode and restarts the test sweep at unit 0.
  void set_mode(Mode mode);
  Mode mode() const { return state_.mode; }

  // Moves to the next episode's sequence.  Train mode draws the scenario,
  // then the train sequence, with one uniform_index each; test mode takes
  // the next test unit, wrapping after the last.
  void advance();

  std::size_t num_test_units() const;
  // The test sequence of unit `unit` (modulo num_test_units()).
  const traffic::DemandSequence& test_unit(std::size_t unit) const;
  // Makes the next advance() take unit `unit`; requires kTest mode.
  void seek_test_unit(std::size_t unit);

  const Scenario& scenario(const State& state) const {
    return scenarios_[state.scenario];
  }
  const Scenario& scenario() const { return scenario(state_); }
  const traffic::DemandSequence& sequence(const State& state) const;
  const traffic::DemandSequence& sequence() const { return sequence(state_); }

  // Checkpoint I/O of the State fields.  read_state validates the indices
  // and returns the fields without touching the cursor, so an env can
  // check its own fields against the staged state before restore()
  // commits it.  check_position validates an env's position t in the
  // staged sequence: 0 before the first episode, else within [memory,
  // sequence length].  Every util::IoError names `owner`.
  void write_state(std::ostream& os) const;
  State read_state(std::istream& is) const;
  void check_position(const State& state, std::int32_t t) const;
  void restore(const State& state) { state_ = state; }

 private:
  // (scenario, test sequence) of unit `unit` modulo num_test_units().
  std::pair<std::size_t, std::size_t> locate_test_unit(
      std::size_t unit) const;

  std::vector<Scenario> scenarios_;
  int memory_;
  const char* owner_;
  State state_;
};

}  // namespace gddr::core
