// The benchmark's workloads. Each one builds its servers and clients
// inside this process (setup), measures its end-to-end metrics with
// tracing off (measure), runs a closed-loop window with or without
// spans so the traced run can price its own overhead (window), and
// times calls into each layer's public functions on its live servers
// (probe).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/server.hpp"
#include "rpc/protocol.hpp"

namespace perfbench {

struct Context {
  std::uint64_t seed = 1;
  /// Scratch directory inside the checkout for data dirs and file roots.
  std::string work_dir;
  /// Every checked reply is counted here.
  Ledger* ledger = nullptr;
  /// Self-check hook: corrupt one expected value so the correctness
  /// checks must report a failure.
  bool inject_fault = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds servers and warm clients. `full` is the measured scale; the
  /// small scale serves the layer probes of other workloads' traced runs.
  virtual void setup(bool full) = 0;
  /// Stops every server and joins every thread setup() started.
  virtual void teardown() = 0;
  /// Untimed calls that fill caches and settle dispatch costs.
  virtual void warm() = 0;
  /// End-to-end run over `seconds`. `e2e` receives the BENCHMARK.json
  /// metrics, `table` the per-workload names printed for humans.
  virtual void measure(double seconds, Metrics& e2e, Metrics& table) = 0;
  /// Closed loop over `seconds`; spans go to `tracer` when non-null.
  /// Returns the operations completed.
  virtual std::uint64_t window(double seconds, Tracer* tracer) = 0;
  /// Per-layer metrics from calls into each layer on the live fixture.
  virtual void probe(Tracer& tracer, Metrics& layers) = 0;
};

std::unique_ptr<Workload> make_rpc_hot(const Context& context);
std::unique_ptr<Workload> make_login_churn(const Context& context);
std::unique_ptr<Workload> make_fed_files(const Context& context);

/// Does a system.list_methods reply equal the registry's method list?
bool same_methods(const clarens::rpc::Value& reply,
                  const std::vector<std::string>& expected);

// ---------------------------------------------------------------------------
// Replay: split a server's share of one call into its layers.

/// The HTTP request bytes ClarensClient::call writes for this call (the
/// same construction), so a live call and its in-process replay carry
/// the same bytes up to the request id.
std::string request_wire(clarens::rpc::Protocol protocol,
                         const std::string& session, const std::string& method,
                         const std::vector<clarens::rpc::Value>& params);

/// Feeds `wire` through the live server's layer functions in the order
/// the request path runs them — HTTP parse, protocol detect + decode,
/// session lookup, method ACL, registry dispatch, response encode — with
/// one span per layer under a "server.replay" root of operation `op`.
/// Returns the dispatched result for the caller to check.
clarens::rpc::Value replay(clarens::core::ClarensServer& server,
                           const std::string& wire, Tracer::Buffer& spans,
                           std::uint64_t op);

/// Layer metrics from the replay spans plus the live round trips
/// recorded as "client.call" spans: per-layer median self times,
/// net.transport_us (round trip minus replay), and trace.unaccounted_frac
/// (how far the layer medians plus transport fall from the round trip).
void replay_metrics(const Tracer& tracer, Metrics& layers);

/// Median duration of `n` calls of `fn`, each recorded as a root span
/// `name`; sets layers[metric].
template <typename Fn>
void time_calls(Tracer& tracer, const char* name, const std::string& metric,
                int n, Metrics& layers, Fn&& fn) {
  Tracer::Buffer spans(&tracer);
  Samples samples;
  for (int i = 0; i < n; ++i) {
    std::uint64_t id = spans.next_id();
    Clock::time_point t0 = Clock::now();
    fn(i);
    Clock::time_point t1 = Clock::now();
    spans.add(name, id, 0, id, t0, t1);
    samples.add(us_between(t0, t1));
  }
  layers[metric] = {samples.median(), "us", samples.size()};
}

}  // namespace perfbench
