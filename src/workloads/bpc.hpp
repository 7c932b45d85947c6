// Bouncing Producer-Consumer benchmark (paper §5.2.1).
//
// One producer task spawns n consumer tasks plus one child producer, down
// to a configured depth. The producer is spawned *first*, so it sits
// nearest the queue tail — the first task to be stolen — and therefore
// "bounces" between PEs, stressing work discovery and dispersal.
//
// Task durations are charged to the virtual clock, so the paper's 5 ms
// consumers cost nothing in wall time under the DES backend.
#pragma once

#include <cstdint>

#include "core/scheduler.hpp"

namespace sws::workloads {

struct BpcParams {
  std::uint32_t consumers_per_producer = 64;  ///< paper: 8192
  std::uint32_t depth = 50;                   ///< paper: 500
  net::Nanos consumer_ns = 5'000'000;         ///< paper: 5 ms
  net::Nanos producer_ns = 1'000'000;         ///< paper: 1 ms

  /// Tasks the run will execute: producers (depth+1) + depth*n consumers.
  std::uint64_t expected_tasks() const noexcept {
    return std::uint64_t{depth} * consumers_per_producer + depth + 1;
  }
  /// Total charged compute — the ideal-runtime numerator for the
  /// parallel-efficiency figure (7c).
  net::Nanos total_compute_ns() const noexcept {
    return std::uint64_t{depth} * consumers_per_producer * consumer_ns +
           (std::uint64_t{depth} + 1) * producer_ns;
  }
};

/// Registers the BPC task functions on construction; reusable across runs.
class BpcBenchmark {
 public:
  BpcBenchmark(core::TaskRegistry& registry, BpcParams params);

  /// Seed the pool: PE 0 spawns the root producer.
  void seed(core::Worker& w) const;

 private:
  struct Payload {
    std::uint32_t remaining_depth;
  };

  BpcParams params_;
  core::TaskFnId producer_fn_ = 0;
  core::TaskFnId consumer_fn_ = 0;
};

}  // namespace sws::workloads
