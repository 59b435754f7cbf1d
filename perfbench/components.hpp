// Component pass of the X-Search benchmark: single-threaded timings of the
// public functions one request runs through, on the workload's own
// generated inputs. Each figure is the median time of one call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/search_engine.hpp"

namespace xsbench {

struct ComponentInputs {
  /// History warm-up order (the train split, shuffled by the workload seed).
  const std::vector<std::string>* warm_order = nullptr;
  /// The workload's queries, in the order its first session sends them.
  const std::vector<std::string>* queries = nullptr;
  /// OR queries the engine observer saw during the workload (may be empty:
  /// the engine-off workloads never reach the engine).
  std::vector<std::string> observed_or;
  const xsearch::engine::SearchEngine* engine = nullptr;
  std::size_t k = 3;
  std::size_t history_capacity = 1'000'000;
  std::uint32_t results_per_subquery = 20;
  /// Queries per request record (1, or the batch size).
  std::size_t batch = 1;
  /// Whether the workload's replies carry engine results.
  bool engine_on = true;
  std::uint64_t seed = 0;
};

struct ComponentTimes {
  double obfuscate_us = 0;     // Obfuscator::obfuscate, one query
  double filter_us = 0;        // ResultFilter::filter, one query's results
  double wire_batch_us = 0;    // batch codec round for `kBatch` queries
  double search_or_us = 0;     // SearchEngine::search_or, one OR query
  double channel_seal_us = 0;  // seal of one reply record
  double channel_open_us = 0;  // open of one request record
  double handshake_us = 0;     // X25519 + quote sign/verify of one handshake
  double ecall_us = 0;         // EnclaveRuntime::ecall into a trivial handler
  /// Output checks made on the way (codec order, channel round trips).
  std::uint64_t checks = 0;
  std::uint64_t check_failures = 0;
};

/// Queries per batch frame in the `batch` workload and the wire timing.
inline constexpr std::size_t kBatch = 16;

[[nodiscard]] ComponentTimes run_components(const ComponentInputs& in);

/// Splits an engine-observed OR query back into its sub-queries.
[[nodiscard]] std::vector<std::string> split_or_query(const std::string& or_query);

/// Median of `samples` (reorders it); 0 when empty.
[[nodiscard]] double median(std::vector<double>& samples);

/// Nearest-rank percentile, `q` in [0, 1], of `samples` (reorders it).
[[nodiscard]] double percentile(std::vector<double>& samples, double q);

}  // namespace xsbench
