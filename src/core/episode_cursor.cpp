#include "core/episode_cursor.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <tuple>

#include "nn/serialize.hpp"
#include "rl/checkpoint.hpp"
#include "util/error.hpp"

namespace gddr::core {

EpisodeCursor::EpisodeCursor(std::vector<Scenario> scenarios, int memory,
                             std::uint64_t seed, const char* owner)
    : scenarios_(std::move(scenarios)),
      memory_(memory),
      owner_(owner),
      state_{util::Rng(seed)} {
  const std::string who(owner_);
  if (scenarios_.empty()) throw std::invalid_argument(who + ": no scenarios");
  for (const auto& s : scenarios_) {
    if (s.train_sequences.empty() || s.test_sequences.empty()) {
      throw std::invalid_argument(who + ": scenario missing sequences");
    }
    for (const SharedSequences* sequences :
         {&s.train_sequences, &s.test_sequences}) {
      for (const auto& seq : *sequences) {
        if (static_cast<int>(seq.size()) <= memory_) {
          throw std::invalid_argument(
              who + ": a sequence of " + std::to_string(seq.size()) +
              " demand matrices is not longer than memory " +
              std::to_string(memory_));
        }
      }
    }
  }
}

void EpisodeCursor::set_mode(Mode mode) {
  state_.mode = mode;
  state_.test_cursor = 0;
}

void EpisodeCursor::advance() {
  if (state_.mode == Mode::kTrain) {
    state_.scenario = state_.rng.uniform_index(scenarios_.size());
    state_.sequence = state_.rng.uniform_index(
        scenarios_[state_.scenario].train_sequences.size());
    return;
  }
  std::tie(state_.scenario, state_.sequence) =
      locate_test_unit(state_.test_cursor);
  state_.test_cursor = (state_.test_cursor + 1) % num_test_units();
}

std::size_t EpisodeCursor::num_test_units() const {
  std::size_t total = 0;
  for (const auto& s : scenarios_) total += s.test_sequences.size();
  return total;
}

std::pair<std::size_t, std::size_t> EpisodeCursor::locate_test_unit(
    std::size_t unit) const {
  std::size_t idx = unit % num_test_units();
  std::size_t scenario = 0;
  while (idx >= scenarios_[scenario].test_sequences.size()) {
    idx -= scenarios_[scenario].test_sequences.size();
    ++scenario;
  }
  return {scenario, idx};
}

const traffic::DemandSequence& EpisodeCursor::test_unit(
    std::size_t unit) const {
  const auto [scenario, sequence] = locate_test_unit(unit);
  return scenarios_[scenario].test_sequences[sequence];
}

void EpisodeCursor::seek_test_unit(std::size_t unit) {
  if (state_.mode != Mode::kTest) {
    throw std::logic_error(std::string(owner_) +
                           "::seek_test_unit: requires kTest mode");
  }
  state_.test_cursor = unit % num_test_units();
}

const traffic::DemandSequence& EpisodeCursor::sequence(
    const State& state) const {
  const Scenario& s = scenario(state);
  return state.mode == Mode::kTrain ? s.train_sequences[state.sequence]
                                    : s.test_sequences[state.sequence];
}

void EpisodeCursor::write_state(std::ostream& os) const {
  rl::write_rng_state(os, state_.rng);
  nn::write_pod(os, static_cast<std::uint8_t>(state_.mode == Mode::kTest));
  nn::write_pod(os, static_cast<std::uint64_t>(state_.scenario));
  nn::write_pod(os, static_cast<std::uint64_t>(state_.sequence));
  nn::write_pod(os, static_cast<std::uint64_t>(state_.test_cursor));
}

EpisodeCursor::State EpisodeCursor::read_state(std::istream& is) const {
  const std::string who(owner_);
  State state;
  rl::read_rng_state(is, state.rng, who + " rng");
  const auto mode_flag = nn::read_pod<std::uint8_t>(is, who + " mode");
  if (mode_flag > 1) {
    throw util::IoError("corrupt value in field '" + who + " mode'");
  }
  state.mode = mode_flag != 0 ? Mode::kTest : Mode::kTrain;
  const auto scenario =
      nn::read_pod<std::uint64_t>(is, who + " scenario index");
  const auto sequence =
      nn::read_pod<std::uint64_t>(is, who + " sequence index");
  state.test_cursor = static_cast<std::size_t>(
      nn::read_pod<std::uint64_t>(is, who + " test cursor"));

  if (scenario >= scenarios_.size()) {
    throw util::IoError(who + " scenario index " + std::to_string(scenario) +
                        " out of range (" + std::to_string(scenarios_.size()) +
                        " scenarios)");
  }
  state.scenario = static_cast<std::size_t>(scenario);
  const Scenario& s = scenarios_[state.scenario];
  if (sequence >= (state.mode == Mode::kTrain ? s.train_sequences.size()
                                              : s.test_sequences.size())) {
    throw util::IoError(who + " sequence index " + std::to_string(sequence) +
                        " out of range");
  }
  state.sequence = static_cast<std::size_t>(sequence);
  return state;
}

void EpisodeCursor::check_position(const State& state, std::int32_t t) const {
  const auto length = static_cast<std::int32_t>(sequence(state).size());
  if (t != 0 && (t < memory_ || t > length)) {
    throw util::IoError(std::string(owner_) + " t " + std::to_string(t) +
                        " out of range: 0 or [" + std::to_string(memory_) +
                        ", " + std::to_string(length) + "]");
  }
}

}  // namespace gddr::core
