// X-Search end-to-end benchmark.
//
// Drives the deployed path — net::RemoteBroker -> loopback TCP ->
// net::ProxyServer (reactor + dispatch pool) -> core::ProxyHandler
// (XSearchProxy or net::ProxyFleet) -> enclave -> channel, Algorithm 1 and
// history -> engine ocalls -> Algorithm 2 -> seal -> reply — with closed-loop
// client sessions, one thread each, every session waiting for its reply
// before sending its next query.
//
//   xsbench --workload search|saturate|batch|churn --seed N --seconds S
//           --trace 0|1 [--corrupt-every N]
//
// --trace 0 measures one untraced window and prints the end-to-end metrics.
// --trace 1 splits the time into an untraced and a traced window (spans
// recorded by a bench-side ProxyHandler wrapping the real one), then runs
// the single-threaded component pass, and prints the per-layer metrics.
// Every timing is taken here, around calls into the layers' public
// functions; the program itself is not modified. --corrupt-every N makes
// the wrapping handler damage every Nth reply record, which the output
// checks must count as failed calls (used by the self-check).
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 when every output check passed, 1 when one failed,
// and 2 on a usage or set-up error (no JSON printed).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "components.hpp"
#include "engine/analytics.hpp"
#include "net/proxy_fleet.hpp"
#include "net/proxy_server.hpp"
#include "net/remote_broker.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/proxy.hpp"

namespace {

namespace core = xsearch::core;
namespace net = xsearch::net;
using xsbench::kBatch;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  bool engine_on;             // XSearchProxy::Options::contact_engine
  std::size_t batch;          // queries per client call
  std::size_t fleet_workers;  // 0 = one XSearchProxy, else a ProxyFleet
  bool churn;                 // sessions attest, send kChurnQueries, close
  std::uint64_t warm_calls;   // untimed calls per session before measuring
};

// Warm-up is a fixed amount of work (about half a second here), so the
// memory figures taken after it do not scale with throughput.
constexpr Workload kWorkloads[] = {
    {"search", true, 1, 0, false, 400},
    {"saturate", false, 1, 0, false, 6000},
    {"batch", false, kBatch, 0, false, 1000},
    {"churn", false, 1, 2, true, 1500},
};

constexpr std::size_t kSessions = 4;       // client threads = live connections
constexpr std::size_t kChurnQueries = 4;   // queries per churn session
constexpr std::size_t kSetupRepeats = 15;  // setup_s is their median
constexpr std::size_t kSubWindows = 25;    // throughput samples per window
constexpr std::chrono::milliseconds kLeadIn{1000};  // before the first sample
constexpr std::size_t kCapturedOrQueries = 256;
constexpr double kInf = std::numeric_limits<double>::infinity();

double per(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Process probes

double process_cpu_us() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host-wide CPU ticks from /proc/stat: hypervisor steal and the total.
struct CpuTicks {
  double steal = 0;
  double total = 0;
};

CpuTicks read_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    double value = 0;
    if (!(stat >> value)) return {};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

/// Share of host CPU time stolen by the hypervisor between two readings.
double steal_pct(const CpuTicks& a, const CpuTicks& b) {
  return 100.0 * per(b.steal - a.steal, b.total - a.total);
}

// ---------------------------------------------------------------------------
// Seeded inputs: the program only ever receives these strings and seeds.

template <typename T>
void shuffle(std::vector<T>& items, xsearch::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform(i)]);
  }
}

struct Inputs {
  std::vector<std::string> warm_order;                   // history warm-up
  std::vector<std::vector<std::string>> session_order;   // test-split walk
  std::vector<std::uint64_t> key_seeds;                  // broker seeds
};

Inputs make_inputs(const xsearch::bench::Testbed& bed, std::uint64_t seed) {
  Inputs in;
  xsearch::Rng rng(seed);
  for (const auto& record : bed.split.train.records()) in.warm_order.push_back(record.text);
  shuffle(in.warm_order, rng);
  std::vector<std::string> test;
  for (const auto& record : bed.split.test.records()) test.push_back(record.text);
  for (std::size_t s = 0; s < kSessions; ++s) {
    in.session_order.push_back(test);
    shuffle(in.session_order.back(), rng);
    in.key_seeds.push_back(rng.next());
  }
  return in;
}

// ---------------------------------------------------------------------------
// Engine observer: counts what the engine sees and checks that every OR
// query carries exactly k fakes (k + 1 sub-queries).

class EngineObserver {
 public:
  explicit EngineObserver(std::size_t k) : k_(k) {}

  void observe(std::string_view or_query) {
    const std::uint64_t n = calls_.fetch_add(1, std::memory_order_relaxed);
    const std::string text(or_query);
    const auto parts = xsbench::split_or_query(text);
    bool ok = parts.size() == k_ + 1;
    for (const auto& part : parts) ok = ok && !part.empty();
    if (!ok) violations_.fetch_add(1, std::memory_order_relaxed);
    if (n >= kCapturedOrQueries) return;
    std::lock_guard lock(mutex_);
    captured_.push_back(text);
  }

  [[nodiscard]] std::uint64_t calls() const { return calls_.load(); }
  [[nodiscard]] std::uint64_t violations() const { return violations_.load(); }
  [[nodiscard]] std::vector<std::string> captured() {
    std::lock_guard lock(mutex_);
    return captured_;
  }

 private:
  const std::size_t k_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::mutex mutex_;
  std::vector<std::string> captured_;
};

// ---------------------------------------------------------------------------
// Bench-side ProxyHandler: forwards to the real handler. While tracing it
// times each call and keeps the span in memory, keyed by (session id,
// per-session sequence number); sequence 0 is the handshake. It can also
// corrupt reply records to prove the output checks fire.

class BenchHandler final : public core::ProxyHandler {
 public:
  explicit BenchHandler(core::ProxyHandler& inner) : inner_(inner) {}

  void set_tracing(bool on) {
    std::lock_guard lock(mutex_);
    tracing_ = on;
  }
  void set_corrupt_every(std::uint64_t n) { corrupt_every_ = n; }

  using ProxyHandler::handshake;
  xsearch::Result<core::HandshakeResponse> handshake(
      const xsearch::crypto::X25519Key& client_pub, std::uint64_t proposed) override {
    const auto t0 = Clock::now();
    auto response = inner_.handshake(client_pub, proposed);
    const double us = seconds_since(t0) * 1e6;
    if (response.is_ok()) {
      std::lock_guard lock(mutex_);
      if (tracing_) handshake_us_[response.value().session_id] = us;
    }
    return response;
  }

  xsearch::Result<xsearch::Bytes> handle_query_record(std::uint64_t session,
                                                      xsearch::ByteSpan record) override {
    return handle_query_record(session, record, xsearch::Deadline());
  }

  xsearch::Result<xsearch::Bytes> handle_query_record(
      std::uint64_t session, xsearch::ByteSpan record,
      const xsearch::Deadline& deadline) override {
    const auto t0 = Clock::now();
    auto reply = inner_.handle_query_record(session, record, deadline);
    const double us = seconds_since(t0) * 1e6;
    if (reply.is_ok() && corrupt_every_ != 0 &&
        replies_.fetch_add(1, std::memory_order_relaxed) % corrupt_every_ ==
            corrupt_every_ - 1 &&
        !reply.value().empty()) {
      reply.value().back() ^= 0x5a;  // breaks the record's AEAD tag
    }
    std::lock_guard lock(mutex_);
    if (tracing_) query_us_[session].push_back(us);
    return reply;
  }

  xsearch::sgx::Measurement measurement() const override { return inner_.measurement(); }

  /// Handler span of (session, seq), or a negative value when none exists.
  [[nodiscard]] double span_us(std::uint64_t session, std::uint64_t seq) {
    std::lock_guard lock(mutex_);
    if (seq == 0) {
      auto it = handshake_us_.find(session);
      return it == handshake_us_.end() ? -1.0 : it->second;
    }
    auto it = query_us_.find(session);
    if (it == query_us_.end() || seq > it->second.size()) return -1.0;
    return it->second[seq - 1];
  }

  [[nodiscard]] std::vector<double> all_query_us() {
    std::lock_guard lock(mutex_);
    std::vector<double> out;
    for (const auto& [session, spans] : query_us_) out.insert(out.end(), spans.begin(), spans.end());
    return out;
  }
  [[nodiscard]] std::vector<double> all_handshake_us() {
    std::lock_guard lock(mutex_);
    std::vector<double> out;
    for (const auto& [session, us] : handshake_us_) out.push_back(us);
    return out;
  }

 private:
  core::ProxyHandler& inner_;
  std::atomic<std::uint64_t> corrupt_every_{0};
  std::atomic<std::uint64_t> replies_{0};
  std::mutex mutex_;
  bool tracing_ = false;
  std::unordered_map<std::uint64_t, std::vector<double>> query_us_;
  std::unordered_map<std::uint64_t, double> handshake_us_;
};

// ---------------------------------------------------------------------------
// Deployment: proxy or fleet, the bench handler, the TCP server.

struct Deployment {
  std::unique_ptr<core::XSearchProxy> proxy;
  std::unique_ptr<net::ProxyFleet> fleet;
  std::unique_ptr<BenchHandler> handler;
  std::unique_ptr<net::ProxyServer> server;

  /// The enclave proxies behind the handler. Fleet workers are never
  /// respawned here, so the fleet keeps each one alive.
  [[nodiscard]] std::vector<const core::XSearchProxy*> workers() const {
    std::vector<const core::XSearchProxy*> out;
    if (proxy) out.push_back(proxy.get());
    if (fleet) {
      for (std::size_t i = 0; i < fleet->worker_count(); ++i) {
        out.push_back(fleet->worker_proxy(i).get());
      }
    }
    return out;
  }
  [[nodiscard]] xsearch::sgx::Measurement measurement() const {
    return handler->measurement();
  }
};

xsearch::Result<std::unique_ptr<Deployment>> deploy(
    const Workload& w, const xsearch::bench::Testbed& bed, const Inputs& in,
    const xsearch::sgx::AttestationAuthority& authority) {
  auto d = std::make_unique<Deployment>();
  core::XSearchProxy::Options options;
  options.contact_engine = w.engine_on;
  const xsearch::engine::SearchEngine* engine = w.engine_on ? bed.engine.get() : nullptr;
  core::ProxyHandler* target = nullptr;
  if (w.fleet_workers == 0) {
    auto proxy = core::XSearchProxy::create(engine, authority, options);
    if (!proxy.is_ok()) return proxy.status();
    d->proxy = std::move(proxy).value();
    d->proxy->warm_history(in.warm_order);
    target = d->proxy.get();
  } else {
    net::ProxyFleet::Options fleet_options;
    fleet_options.workers = w.fleet_workers;
    fleet_options.proxy = options;
    auto fleet = net::ProxyFleet::create(engine, authority, fleet_options);
    if (!fleet.is_ok()) return fleet.status();
    d->fleet = std::move(fleet).value();
    for (std::size_t i = 0; i < w.fleet_workers; ++i) {
      d->fleet->worker_proxy(i)->warm_history(in.warm_order);
    }
    target = d->fleet.get();
  }
  d->handler = std::make_unique<BenchHandler>(*target);
  auto server = net::ProxyServer::start(*d->handler);
  if (!server.is_ok()) return server.status();
  d->server = std::move(server).value();
  return d;
}

// ---------------------------------------------------------------------------
// Client sessions and measurement windows

struct Session {
  std::vector<std::string> order;
  std::size_t cursor = 0;
  xsearch::Rng key_rng;
  std::unique_ptr<net::RemoteBroker> broker;  // long-lived sessions only
  std::uint64_t seq = 0;                      // traced calls on this session

  Session(std::vector<std::string> walk, std::uint64_t key_seed)
      : order(std::move(walk)), key_rng(key_seed) {}

  const std::string& next_query() {
    const std::string& q = order[cursor];
    cursor = (cursor + 1) % order.size();
    return q;
  }
};

struct ClientSpan {
  std::uint64_t session = 0;
  std::uint64_t seq = 0;
  double us = 0;
};

/// Counters read before and after a window.
struct Snapshot {
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
  std::uint64_t evicted = 0;
  std::vector<std::uint64_t> routed;
  std::uint64_t shed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t engine_calls = 0;
  double process_cpu_us = 0;
  CpuTicks ticks;
};

Snapshot snapshot(const Deployment& d, const EngineObserver& observer) {
  Snapshot s;
  for (const auto& worker : d.workers()) {
    const auto transitions = worker->enclave().transition_stats();
    s.ecalls += transitions.ecalls;
    s.ocalls += transitions.ocalls;
    s.evicted += worker->session_stats().evicted_lru;
  }
  if (d.fleet) {
    for (std::size_t i = 0; i < d.fleet->worker_count(); ++i) {
      s.routed.push_back(d.fleet->worker_stats(i).routed);
    }
  }
  s.shed = d.server->connections_shed() + d.server->deadline_expired();
  s.accepted = d.server->connections_served();
  s.engine_calls = observer.calls();
  s.process_cpu_us = process_cpu_us();
  s.ticks = read_cpu_ticks();
  return s;
}

/// One equal slice of a timed window.
struct SubWindow {
  double qps = 0;
  double cpu_us_per_query = kInf;  // process CPU; kInf when nothing completed
  double p50_us = 0;               // client call latency
  double steal_pct = 0;            // host-wide hypervisor steal
};

struct Window {
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t queries = 0;
  std::vector<double> latency_us;  // failed calls are +inf
  double client_cpu_us = 0;
  std::vector<SubWindow> subs;
  std::vector<ClientSpan> spans;
  Snapshot before;
  Snapshot after;
};

/// The timed figures of a window: medians over the sub-windows whose host
/// steal is at most the window's median steal. Stolen time stalls the closed loop's threads
/// and lock holders, so a few percent of steal moves throughput by tens of
/// percent; the quieter half measures the program, not its neighbours.
struct Figures {
  double qps = 0;
  double cpu_us_per_query = 0;
  double p50_us = 0;
};

Figures quiet_figures(const std::vector<SubWindow>& subs) {
  std::vector<double> steal;
  for (const auto& sub : subs) steal.push_back(sub.steal_pct);
  const double threshold = xsbench::median(steal);  // ties all count as quiet
  std::vector<double> qps, cpu, p50;
  for (const auto& sub : subs) {
    if (sub.steal_pct > threshold) continue;
    qps.push_back(sub.qps);
    cpu.push_back(sub.cpu_us_per_query);
    p50.push_back(sub.p50_us);
  }
  return {xsbench::median(qps), xsbench::median(cpu), xsbench::median(p50)};
}

struct Bench {
  const Workload* workload = nullptr;
  const xsearch::sgx::AttestationAuthority* authority = nullptr;
  Deployment* deployment = nullptr;
  EngineObserver* observer = nullptr;
  std::vector<std::unique_ptr<Session>> sessions;
};

bool clean_results(const std::vector<xsearch::engine::SearchResult>& results) {
  for (const auto& r : results) {
    if (xsearch::engine::extract_target_url(r.url).has_value()) return false;
  }
  return true;
}

/// One search or batch call on a connected broker, with its output checks.
/// A call the broker had to retry counts as failed: it received a malformed
/// or refused reply on the way.
bool query_call(net::RemoteBroker& broker, Session& s, std::size_t batch,
                std::uint64_t& queries) {
  const std::uint64_t reconnects = broker.reconnects();
  bool ok = false;
  if (batch == 1) {
    auto reply = broker.search(s.next_query());
    ok = reply.is_ok() && clean_results(reply.value());
  } else {
    std::vector<std::string> qs;
    qs.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) qs.push_back(s.next_query());
    auto reply = broker.search_batch(qs);
    ok = reply.is_ok() && reply.value().size() == qs.size();
    for (std::size_t i = 0; ok && i < qs.size(); ++i) {
      ok = reply.value()[i].status.is_ok() && clean_results(reply.value()[i].results);
    }
  }
  ok = ok && broker.reconnects() == reconnects;
  if (ok) queries += batch;
  return ok;
}

/// One client thread's record of a window. The atomics publish progress to
/// the sub-window sampler while the window runs.
struct alignas(64) ThreadTally {
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t queries = 0;
  std::atomic<std::uint64_t> queries_done{0};
  std::atomic<std::size_t> calls_done{0};
  std::vector<double> latency_us;
  std::vector<ClientSpan> spans;
  double cpu_us = 0;

  void record(bool ok, double us, bool traced, std::uint64_t session, std::uint64_t seq) {
    ++calls;
    if (!ok) ++failed;
    latency_us.push_back(ok ? us : kInf);
    if (traced && ok) spans.push_back({session, seq, us});
    queries_done.store(queries, std::memory_order_relaxed);
    calls_done.store(latency_us.size(), std::memory_order_relaxed);
  }
};

/// A window runs for `seconds` or, when `calls_per_session` is set, until
/// every session has made that many calls.
struct WindowPlan {
  double seconds = 0;
  std::uint64_t calls_per_session = 0;
  bool traced = false;
};

void session_loop(Bench& b, Session& s, const std::atomic<bool>& stop, const WindowPlan& plan,
                  ThreadTally& tally) {
  const Workload& w = *b.workload;
  const double cpu0 = thread_cpu_us();
  const std::uint16_t port = b.deployment->server->port();
  const auto measurement = b.deployment->measurement();
  auto more = [&] {
    return !stop.load(std::memory_order_relaxed) &&
           (plan.calls_per_session == 0 || tally.calls < plan.calls_per_session);
  };
  while (more()) {
    if (!w.churn) {
      const std::uint64_t session = s.broker->session_id();
      const auto t0 = Clock::now();
      const bool ok = query_call(*s.broker, s, w.batch, tally.queries);
      tally.record(ok, seconds_since(t0) * 1e6, plan.traced, session, ++s.seq);
      continue;
    }
    // Churn: a whole session per cycle — attest, query, close. The stop
    // condition is read only between cycles, so every session is complete.
    net::RemoteBroker broker("127.0.0.1", port, *b.authority, measurement,
                             s.key_rng.next());
    auto t0 = Clock::now();
    const bool connected = broker.connect().is_ok();
    tally.record(connected, seconds_since(t0) * 1e6, plan.traced, broker.session_id(), 0);
    if (!connected) continue;
    const std::uint64_t session = broker.session_id();
    for (std::size_t q = 1; q <= kChurnQueries; ++q) {
      t0 = Clock::now();
      const bool ok = query_call(broker, s, w.batch, tally.queries);
      tally.record(ok, seconds_since(t0) * 1e6, plan.traced, session, q);
    }
  }
  tally.cpu_us = thread_cpu_us() - cpu0;
}

Window run_window(Bench& b, const WindowPlan& plan) {
  Window win;
  b.deployment->handler->set_tracing(plan.traced);
  for (auto& s : b.sessions) s->seq = 0;
  std::vector<ThreadTally> tallies(b.sessions.size());
  for (auto& t : tallies) {
    t.latency_us.reserve(static_cast<std::size_t>(plan.seconds * 20000.0) + 64);
  }
  // marks[i][t]: latency samples thread t had recorded at the end of
  // sub-window i, which is where its slice of latency_us ends.
  std::vector<std::vector<std::size_t>> marks(1, std::vector<std::size_t>(tallies.size(), 0));
  std::atomic<bool> stop{false};
  win.before = snapshot(*b.deployment, *b.observer);
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < b.sessions.size(); ++i) {
      threads.emplace_back([&, i] { session_loop(b, *b.sessions[i], stop, plan, tallies[i]); });
    }
    if (plan.calls_per_session == 0) {
      // Fresh client threads start on few cores and take a few hundred
      // milliseconds to spread out; the sub-windows begin after a lead-in.
      std::this_thread::sleep_for(kLeadIn);
      const auto t0 = Clock::now();
      auto tick = t0;
      std::uint64_t queries = 0;
      for (std::size_t t = 0; t < tallies.size(); ++t) {
        queries += tallies[t].queries_done.load(std::memory_order_relaxed);
        marks[0][t] = tallies[t].calls_done.load(std::memory_order_relaxed);
      }
      double cpu = process_cpu_us();
      CpuTicks ticks = read_cpu_ticks();
      for (std::size_t i = 1; i <= kSubWindows; ++i) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
                     plan.seconds * static_cast<double>(i) / kSubWindows)));
        const auto now = Clock::now();
        std::uint64_t q = 0;
        marks.emplace_back();
        for (const auto& t : tallies) {
          q += t.queries_done.load(std::memory_order_relaxed);
          marks.back().push_back(t.calls_done.load(std::memory_order_relaxed));
        }
        const double c = process_cpu_us();
        const CpuTicks tk = read_cpu_ticks();
        SubWindow sub;
        sub.qps = static_cast<double>(q - queries) / std::chrono::duration<double>(now - tick).count();
        if (q > queries) sub.cpu_us_per_query = (c - cpu) / static_cast<double>(q - queries);
        sub.steal_pct = steal_pct(ticks, tk);
        win.subs.push_back(sub);
        tick = now;
        queries = q;
        cpu = c;
        ticks = tk;
      }
      stop.store(true, std::memory_order_relaxed);
    }
  }
  win.after = snapshot(*b.deployment, *b.observer);
  b.deployment->handler->set_tracing(false);
  for (std::size_t i = 0; i < win.subs.size(); ++i) {
    std::vector<double> slice;
    for (std::size_t t = 0; t < tallies.size(); ++t) {
      const auto& lat = tallies[t].latency_us;
      slice.insert(slice.end(), lat.begin() + static_cast<std::ptrdiff_t>(marks[i][t]),
                   lat.begin() + static_cast<std::ptrdiff_t>(marks[i + 1][t]));
    }
    win.subs[i].p50_us = slice.empty() ? kInf : xsbench::percentile(slice, 0.5);
  }
  for (auto& t : tallies) {
    win.calls += t.calls;
    win.failed += t.failed;
    win.queries += t.queries;
    win.client_cpu_us += t.cpu_us;
    win.latency_us.insert(win.latency_us.end(), t.latency_us.begin(), t.latency_us.end());
    win.spans.insert(win.spans.end(), t.spans.begin(), t.spans.end());
  }
  return win;
}

// ---------------------------------------------------------------------------
// Set-up: creation, warm-up, server start, first attestation of every
// session. Repeated; the last deployment is the one measured.

struct SetupResult {
  std::unique_ptr<Deployment> deployment;
  std::vector<std::unique_ptr<net::RemoteBroker>> brokers;
};

xsearch::Result<SetupResult> set_up_once(const Workload& w, const xsearch::bench::Testbed& bed,
                                         const Inputs& in,
                                         const xsearch::sgx::AttestationAuthority& authority) {
  SetupResult out;
  auto d = deploy(w, bed, in, authority);
  if (!d.is_ok()) return d.status();
  out.deployment = std::move(d).value();
  for (std::size_t s = 0; s < kSessions; ++s) {
    auto broker = std::make_unique<net::RemoteBroker>(
        "127.0.0.1", out.deployment->server->port(), authority,
        out.deployment->measurement(), in.key_seeds[s]);
    XS_RETURN_IF_ERROR(broker->connect());
    out.brokers.push_back(std::move(broker));
  }
  return out;
}

/// Fills every fleet worker's session table to capacity (handshakes made
/// straight into the fleet), so each timed churn handshake also evicts.
void fill_session_tables(net::ProxyFleet& fleet, std::uint64_t seed) {
  const std::size_t capacity = core::XSearchProxy::Options{}.session_capacity;
  xsearch::Rng rng(seed ^ 0xf111);
  auto full = [&] {
    for (std::size_t i = 0; i < fleet.worker_count(); ++i) {
      if (fleet.worker_stats(i).sessions.active < capacity) return false;
    }
    return true;
  };
  while (!full()) {
    for (int i = 0; i < 256; ++i) {
      xsearch::crypto::X25519Key key{};
      for (std::size_t j = 0; j < key.size(); j += 8) {
        const std::uint64_t word = rng.next();
        std::memcpy(key.data() + j, &word, 8);
      }
      (void)fleet.handshake(key, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = -1.0;  // only reachable when every call failed
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
        << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

/// Per-layer metrics of a traced run; perfbench/README.md maps each one to
/// the end-to-end metric it should move. Count ratios come from the
/// untraced window, spans from the traced one.
std::vector<Metric> per_layer_metrics(const Workload& w, BenchHandler& handler,
                                      const Window& measured, const Window& traced,
                                      const xsbench::ComponentTimes& ct, double host_steal) {
  const double q = static_cast<double>(measured.queries);
  // Matched spans: client span minus the handler span of the same call.
  std::vector<double> net_self;
  for (const auto& span : traced.spans) {
    const double handler_us = handler.span_us(span.session, span.seq);
    if (handler_us >= 0) net_self.push_back(span.us - handler_us);
  }
  std::vector<double> handler_query = handler.all_query_us();
  std::vector<double> handler_handshake = handler.all_handshake_us();
  std::vector<double> client_us = traced.latency_us;

  const double batch = static_cast<double>(w.batch);
  const double path_us = ct.channel_open_us + ct.channel_seal_us + ct.ecall_us +
                         batch * ct.obfuscate_us +
                         (w.engine_on ? batch * (ct.search_or_us + ct.filter_us) : 0.0) +
                         (w.batch > 1 ? ct.wire_batch_us : 0.0);
  const double handler_p50 = xsbench::percentile(handler_query, 0.5);

  double routed_total = 0;
  double routed_max = 0;
  for (std::size_t i = 0; i < measured.after.routed.size(); ++i) {
    const double routed = static_cast<double>(measured.after.routed[i] - measured.before.routed[i]);
    routed_total += routed;
    routed_max = std::max(routed_max, routed);
  }
  const double client_cpu = per(measured.client_cpu_us, q);
  const double all_cpu = per(measured.after.process_cpu_us - measured.before.process_cpu_us, q);
  const double untraced_qps = quiet_figures(measured.subs).qps;
  const double traced_qps = quiet_figures(traced.subs).qps;
  const double calls = static_cast<double>(measured.calls + traced.calls);
  return {
      {"net.self_us.p50", xsbench::percentile(net_self, 0.5), "us"},
      {"net.self_us.p99", xsbench::percentile(net_self, 0.99), "us"},
      {"client.cpu_us_per_query", client_cpu, "us"},
      {"server.cpu_us_per_query", all_cpu - client_cpu, "us"},
      {"client.p99_ms", xsbench::percentile(client_us, 0.99) / 1e3, "ms"},
      {"client.samples", static_cast<double>(traced.latency_us.size()), "count"},
      {"xsearch.handler_query_us.p50", handler_p50, "us"},
      {"xsearch.handler_query_us.p99", xsbench::percentile(handler_query, 0.99), "us"},
      {"xsearch.handler_handshake_us.p50", xsbench::percentile(handler_handshake, 0.5), "us"},
      {"xsearch.sessions_evicted",
       static_cast<double>(traced.after.evicted - measured.before.evicted), "count"},
      {"xsearch.obfuscate_us", ct.obfuscate_us, "us"},
      {"xsearch.filter_us", ct.filter_us, "us"},
      {"xsearch.wire_batch_us", ct.wire_batch_us, "us"},
      {"engine.search_or_us", ct.search_or_us, "us"},
      {"engine.calls_per_query",
       per(static_cast<double>(measured.after.engine_calls - measured.before.engine_calls), q), "ratio"},
      {"crypto.channel_seal_us", ct.channel_seal_us, "us"},
      {"crypto.channel_open_us", ct.channel_open_us, "us"},
      {"crypto.handshake_us", ct.handshake_us, "us"},
      {"sgx.ecalls_per_query",
       per(static_cast<double>(measured.after.ecalls - measured.before.ecalls), q), "ratio"},
      {"sgx.ocalls_per_query",
       per(static_cast<double>(measured.after.ocalls - measured.before.ocalls), q), "ratio"},
      {"sgx.ecall_us", ct.ecall_us, "us"},
      {"net.shed", static_cast<double>(traced.after.shed - measured.before.shed), "count"},
      {"net.accepted", static_cast<double>(traced.after.accepted - measured.before.accepted), "count"},
      {"fleet.routed_max_share", per(routed_max, routed_total), "ratio"},
      {"fail_ratio",
       per(static_cast<double>(measured.failed + traced.failed), calls), "ratio"},
      {"host.steal_pct", host_steal, "%"},
      {"trace.overhead_pct", 100.0 * per(untraced_qps - traced_qps, untraced_qps), "%"},
      {"trace.unattributed_pct", 100.0 * per(handler_p50 - path_us, handler_p50), "%"},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t corrupt_every = 0;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--corrupt-every") {
      args.corrupt_every = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

int fail_setup(const char* what, const xsearch::Status& status) {
  std::fprintf(stderr, "xsbench: %s: %s\n", what, status.to_string().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: xsbench --workload search|saturate|batch|churn --seed N "
                 "--seconds S --trace 0|1 [--corrupt-every N]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "xsbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  const core::XSearchProxy::Options defaults;

  // Standard figure testbed; its generation is not part of set-up.
  auto bed = xsearch::bench::make_testbed();
  const Inputs inputs = make_inputs(*bed, args.seed);
  EngineObserver observer(defaults.k);
  bed->engine->set_observer([&observer](std::string_view q) { observer.observe(q); });
  const xsearch::sgx::AttestationAuthority authority(xsearch::to_bytes("perfbench-root"));

  std::vector<double> setup_s;
  SetupResult setup;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    setup.brokers.clear();  // tear the previous repeat down first
    setup.deployment.reset();
    const auto t0 = Clock::now();
    auto once = set_up_once(w, *bed, inputs, authority);
    if (!once.is_ok()) return fail_setup("set-up", once.status());
    setup_s.push_back(seconds_since(t0));
    setup = std::move(once).value();
  }
  Deployment& deployment = *setup.deployment;
  deployment.handler->set_corrupt_every(args.corrupt_every);

  Bench b;
  b.workload = &w;
  b.authority = &authority;
  b.deployment = &deployment;
  b.observer = &observer;
  for (std::size_t s = 0; s < kSessions; ++s) {
    b.sessions.push_back(std::make_unique<Session>(inputs.session_order[s], inputs.key_seeds[s]));
    if (!w.churn) b.sessions.back()->broker = std::move(setup.brokers[s]);
  }
  setup.brokers.clear();  // churn sessions open their own connections
  if (w.churn) fill_session_tables(*deployment.fleet, args.seed);

  // Warm-up (not measured): caches, allocator pools. Memory is read right
  // after it, at a fixed amount of work; the enclave history keeps growing
  // with every query, so a reading after the timed window would rise with
  // throughput.
  const Window warm = run_window(b, {.calls_per_session = w.warm_calls});
  double epc_bytes = 0;
  for (const auto& worker : deployment.workers()) {
    epc_bytes += static_cast<double>(worker->enclave().epc().in_use());
  }
  const double rss_mb = peak_rss_mb();

  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Window measured = run_window(b, {.seconds = untraced_seconds});
  Window traced;
  if (args.trace) traced = run_window(b, {.seconds = args.seconds / 2, .traced = true});
  const auto end_ticks = read_cpu_ticks();
  const std::uint64_t observer_violations = observer.violations();
  bed->engine->set_observer({});

  std::uint64_t attempted = warm.calls + measured.calls + traced.calls;
  std::uint64_t failed = warm.failed + measured.failed + traced.failed + observer_violations;
  const double host_steal = steal_pct(measured.before.ticks, args.trace ? traced.after.ticks : end_ticks);
  std::printf("# perfbench workload=%s seed=%llu nproc=%ld seconds=%g trace=%d "
              "host.steal_pct=%.3f\n",
              w.name, static_cast<unsigned long long>(args.seed), sysconf(_SC_NPROCESSORS_ONLN),
              args.seconds, args.trace ? 1 : 0, host_steal);

  std::printf("# sub-windows (qps cpu_us_per_query p50_us steal_pct):");
  for (const auto& sub : measured.subs) {
    std::printf(" %.0f/%.1f/%.1f/%.1f", sub.qps, sub.cpu_us_per_query, sub.p50_us, sub.steal_pct);
  }
  std::printf("\n");

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Figures figures = quiet_figures(measured.subs);
    metrics = {
        {"qps", figures.qps, "1/s"},
        {"p50_ms", figures.p50_us / 1e3, "ms"},
        {"cpu_us_per_query", figures.cpu_us_per_query, "us"},
        {"ok_ratio", per(static_cast<double>(measured.calls - measured.failed), static_cast<double>(measured.calls)), "ratio"},
        {"setup_s", xsbench::median(setup_s), "s"},
        {"epc_mb", epc_bytes / (1024.0 * 1024.0), "MB"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    // Component pass on the workload's own inputs, single-threaded.
    xsbench::ComponentInputs ci;
    ci.warm_order = &inputs.warm_order;
    ci.queries = &inputs.session_order[0];
    ci.observed_or = observer.captured();
    ci.engine = bed->engine.get();
    ci.k = defaults.k;
    ci.history_capacity = defaults.history_capacity;
    ci.results_per_subquery = defaults.results_per_subquery;
    ci.batch = w.batch;
    ci.engine_on = w.engine_on;
    ci.seed = args.seed;
    const xsbench::ComponentTimes ct = xsbench::run_components(ci);
    attempted += ct.checks;
    failed += ct.check_failures;

    metrics = per_layer_metrics(w, *deployment.handler, measured, traced, ct, host_steal);
  }
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
