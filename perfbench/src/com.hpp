#pragma once
// A fixed-round COM protocol: every node exchanges views for `rounds`
// rounds and then outputs nothing. It is the meter and sweep workloads'
// protocol and the do-nothing replay the elect workload subtracts to
// isolate decision hooks.

#include <memory>
#include <vector>

#include "sim/full_info.hpp"

namespace perfbench {

class ComForRounds final : public anole::sim::FullInfoProgram {
 public:
  explicit ComForRounds(int rounds) : rounds_(rounds) {}
  [[nodiscard]] bool has_output() const override { return done_; }
  [[nodiscard]] std::vector<int> output() const override { return {}; }

 protected:
  void on_view(int rounds) override { done_ = rounds >= rounds_; }

 private:
  int rounds_;
  bool done_ = false;
};

using Programs = std::vector<std::unique_ptr<anole::sim::NodeProgram>>;

/// One ComForRounds object per node.
[[nodiscard]] inline Programs com_programs(std::size_t n, int rounds) {
  Programs p;
  p.reserve(n);
  for (std::size_t v = 0; v < n; ++v)
    p.push_back(std::make_unique<ComForRounds>(rounds));
  return p;
}

}  // namespace perfbench
