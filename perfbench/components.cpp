#include "components.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/random.hpp"
#include "crypto/secure_channel.hpp"
#include "crypto/x25519.hpp"
#include "sgx/attestation.hpp"
#include "sgx/enclave.hpp"
#include "xsearch/filter.hpp"
#include "xsearch/history.hpp"
#include "xsearch/obfuscator.hpp"
#include "xsearch/wire.hpp"

namespace xsbench {

namespace wire = xsearch::core::wire;
using xsearch::Bytes;
using xsearch::ByteSpan;
using xsearch::engine::SearchResult;

namespace {

using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Times `op(i)` for i in [0, rounds) and returns the median call time.
template <typename Op>
double time_median(std::size_t rounds, Op&& op) {
  std::vector<double> samples;
  samples.reserve(rounds);
  for (std::size_t i = 0; i < rounds; ++i) {
    const auto t0 = Clock::now();
    op(i);
    samples.push_back(micros_since(t0));
  }
  return median(samples);
}

/// What the proxy does with the engine's answer before sealing it.
std::vector<SearchResult> filtered(const xsearch::core::ResultFilter& filter,
                                   const xsearch::core::ObfuscatedQuery& q,
                                   std::vector<SearchResult> results) {
  return filter.filter(q.original, q.fakes, std::move(results));
}

bool same_items(const std::vector<wire::BatchItem>& a,
                const std::vector<wire::BatchItem>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].ok != b[i].ok || a[i].error != b[i].error ||
        a[i].results != b[i].results) {
      return false;
    }
  }
  return true;
}

}  // namespace

double median(std::vector<double>& samples) { return percentile(samples, 0.5); }

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(samples.size() - 1, static_cast<std::size_t>(rank) - 1);
  return samples[index];
}

std::vector<std::string> split_or_query(const std::string& or_query) {
  static constexpr std::string_view kSep = " OR ";
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t at = or_query.find(kSep, start);
    parts.push_back(or_query.substr(start, at - start));
    if (at == std::string::npos) break;
    start = at + kSep.size();
  }
  return parts;
}

ComponentTimes run_components(const ComponentInputs& in) {
  ComponentTimes out;
  const std::vector<std::string>& queries = *in.queries;

  // Algorithm 1 over a bench-owned history warmed exactly like the proxy's.
  xsearch::core::QueryHistory history(in.history_capacity);
  for (const auto& q : *in.warm_order) history.add(q);
  const xsearch::core::Obfuscator obfuscator(history, in.k);
  xsearch::Rng rng(in.seed ^ 0x0bf5);
  constexpr std::size_t kObfuscateRounds = 4000;
  std::vector<xsearch::core::ObfuscatedQuery> obfuscated(kObfuscateRounds);
  out.obfuscate_us = time_median(kObfuscateRounds, [&](std::size_t i) {
    obfuscated[i] = obfuscator.obfuscate(queries[i % queries.size()], rng);
  });

  // Engine retrieval on what the engine actually saw, else on the bench's
  // own OR queries (engine-off workloads).
  constexpr std::size_t kEngineRounds = 200;
  std::vector<std::vector<std::string>> or_queries;
  for (const auto& seen : in.observed_or) {
    if (or_queries.size() == kEngineRounds) break;
    or_queries.push_back(split_or_query(seen));
  }
  for (std::size_t i = 0; or_queries.size() < kEngineRounds; ++i) {
    or_queries.push_back(obfuscated[i].sub_queries);
  }
  out.search_or_us = time_median(kEngineRounds, [&](std::size_t i) {
    auto results = in.engine->search_or(or_queries[i], in.results_per_subquery);
    (void)results;
  });

  // Algorithm 2 on replayed engine results of the bench's own obfuscations
  // (their original/fake split is known here).
  const xsearch::core::ResultFilter filter;
  std::vector<std::vector<SearchResult>> raw(kEngineRounds);
  for (std::size_t i = 0; i < kEngineRounds; ++i) {
    raw[i] = in.engine->search_or(obfuscated[i].sub_queries, in.results_per_subquery);
  }
  std::vector<std::vector<SearchResult>> inputs = raw;
  out.filter_us = time_median(kEngineRounds, [&](std::size_t i) {
    auto kept = filter.filter(obfuscated[i].original, obfuscated[i].fakes,
                              std::move(inputs[i]));
    (void)kept;
  });

  // Reply payloads as the workload's replies carry them.
  auto reply_results = [&](std::size_t i) {
    return in.engine_on ? filtered(filter, obfuscated[i], raw[i])
                        : std::vector<SearchResult>{};
  };
  std::vector<std::string> batch_queries;
  std::vector<wire::BatchItem> batch_items;
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch_queries.push_back(queries[i % queries.size()]);
    wire::BatchItem item;
    item.ok = true;
    item.results = reply_results(i);
    batch_items.push_back(std::move(item));
  }

  // Batch codec: frame the request, parse it, frame the per-item reply.
  out.wire_batch_us = time_median(2000, [&](std::size_t) {
    const Bytes request = wire::frame_query_batch(batch_queries);
    auto parsed = wire::parse_client_message(request);
    const Bytes reply = wire::frame_results_batch(batch_items);
    (void)parsed;
    (void)reply;
  });
  // Order check: a batch reply of distinct items must decode item by item
  // in request order.
  {
    std::vector<wire::BatchItem> distinct;
    for (std::size_t i = 0; i < kBatch; ++i) {
      wire::BatchItem item;
      item.ok = i % 4 != 3;
      if (item.ok) {
        item.results = filtered(filter, obfuscated[i], raw[i]);
      } else {
        item.error = "item " + std::to_string(i);
      }
      distinct.push_back(std::move(item));
    }
    auto request = wire::parse_client_message(wire::frame_query_batch(batch_queries));
    auto reply = wire::parse_client_message(wire::frame_results_batch(distinct));
    ++out.checks;
    if (!request.is_ok() || request.value().queries != batch_queries ||
        !reply.is_ok() || !same_items(reply.value().batch, distinct)) {
      ++out.check_failures;
    }
  }

  // Channel records at the workload's sizes: the proxy opens the client's
  // request record and seals its reply record.
  xsearch::crypto::SecureRandom key_rng(xsearch::crypto::domain_seed(in.seed, 0xc4));
  const auto server_static = xsearch::crypto::x25519_keypair_from_seed(key_rng.key());
  const auto server_eph = xsearch::crypto::x25519_keypair_from_seed(key_rng.key());
  const auto client_eph = xsearch::crypto::x25519_keypair_from_seed(key_rng.key());
  auto client = xsearch::crypto::SecureChannel::initiator(
      client_eph, server_static.public_key, server_eph.public_key);
  auto server = xsearch::crypto::SecureChannel::responder(server_static, server_eph,
                                                          client_eph.public_key);
  const Bytes request_plain = in.batch > 1 ? wire::frame_query_batch(batch_queries)
                                           : wire::frame_query(queries[0]);
  const Bytes reply_plain = in.batch > 1 ? wire::frame_results_batch(batch_items)
                                         : wire::frame_results(reply_results(0));
  constexpr std::size_t kChannelRounds = 2000;
  std::vector<double> open_samples;
  std::vector<double> seal_samples;
  Bytes sample_record;
  for (std::size_t i = 0; i < kChannelRounds; ++i) {
    const Bytes request = client.seal(request_plain);
    auto t0 = Clock::now();
    auto opened = server.open(request);
    open_samples.push_back(micros_since(t0));
    t0 = Clock::now();
    const Bytes reply = server.seal(reply_plain);
    seal_samples.push_back(micros_since(t0));
    auto back = client.open(reply);
    ++out.checks;
    if (!opened.is_ok() || opened.value() != request_plain || !back.is_ok() ||
        back.value() != reply_plain) {
      ++out.check_failures;
    }
    if (i == 0) sample_record = request;
  }
  out.channel_open_us = median(open_samples);
  out.channel_seal_us = median(seal_samples);

  // One attested handshake's key agreement and quote work, both ends.
  const xsearch::sgx::AttestationAuthority authority(xsearch::to_bytes("perfbench-root"));
  xsearch::sgx::EnclaveRuntime::Config config;
  config.code_identity = xsearch::to_bytes("perfbench-enclave");
  xsearch::sgx::EnclaveRuntime enclave(config);
  std::uint64_t handshake_failures = 0;
  out.handshake_us = time_median(200, [&](std::size_t) {
    const auto c_eph = xsearch::crypto::x25519_keypair_from_seed(key_rng.key());
    const auto s_eph = xsearch::crypto::x25519_keypair_from_seed(key_rng.key());
    auto responder = xsearch::crypto::SecureChannel::responder(
        server_static, s_eph, c_eph.public_key);
    const auto quote = xsearch::sgx::quote_channel_key(authority, enclave,
                                                       server_static.public_key);
    auto static_pub = xsearch::sgx::verify_and_extract_channel_key(
        authority, quote, enclave.measurement());
    if (!static_pub.is_ok()) {
      ++handshake_failures;
      return;
    }
    auto initiator = xsearch::crypto::SecureChannel::initiator(
        c_eph, static_pub.value(), s_eph.public_key);
    if (initiator.session_id() != responder.session_id()) ++handshake_failures;
  });
  ++out.checks;
  if (handshake_failures != 0) ++out.check_failures;

  // One enclave transition into a handler that does nothing, carrying a
  // request record of the workload's size.
  enclave.register_ecall(xsearch::sgx::EcallId::kRequest,
                         [](ByteSpan) -> xsearch::Result<Bytes> { return Bytes{}; });
  std::uint64_t ecall_failures = 0;
  out.ecall_us = time_median(4000, [&](std::size_t) {
    if (!enclave.ecall(xsearch::sgx::EcallId::kRequest, sample_record).is_ok()) {
      ++ecall_failures;
    }
  });
  ++out.checks;
  if (ecall_failures != 0) ++out.check_failures;
  return out;
}

}  // namespace xsbench
