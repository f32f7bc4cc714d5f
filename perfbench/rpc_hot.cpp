// rpc_hot: the paper's Fig. 4 path. One standalone plaintext server, one
// warm session, 4 keep-alive connections; 9 in 10 calls are
// system.list_methods and 1 in 10 is echo.echo with a 32 KiB string
// (above the 16 KiB inline cap, so it takes the worker pool).
//
// Two phases: a closed-loop capacity phase drives all connections flat
// out; an open-loop paced phase sends seeded Poisson arrivals at a fixed
// offered rate and times each call from its due time.
#include <sys/prctl.h>

#include <cmath>
#include <thread>

#include "bench_common.hpp"
#include "client/client.hpp"
#include "net/socket.hpp"
#include "rpc/fault.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace clarens;

namespace {

constexpr int kConnections = 4;
constexpr std::size_t kEchoBytes = 32 * 1024;
constexpr int kEchoPayloads = 8;
constexpr std::uint64_t kEchoOneIn = 10;
/// Offered rate of the paced phase, calls per second over all
/// connections: about half the capacity phase's rate on a 4-core host.
/// A fixed workload constant; it never adapts at run time.
constexpr double kPacedRate = 10000;
/// Share of the measured seconds given to the capacity phase, whose
/// figures are the gated ones; the rest is the paced phase.
constexpr double kCapacityShare = 0.6;

/// Slice lengths: statistics are medians over slices (see Sliced). A
/// capacity slice holds about 1300 echoes and a paced slice about 2500
/// calls, so each slice's p99 has at least ten samples beyond it.
constexpr double kCapacitySlice = 0.5;
constexpr double kPacedSlice = 0.25;

struct PacedResult {
  PacedResult(Clock::time_point start, double seconds)
      : calls(start, seconds, kPacedSlice), late(start, seconds, kPacedSlice) {}
  void merge(const PacedResult& other) {
    calls.merge(other.calls);
    late.merge(other.late);
  }
  Sliced calls;  // every paced call, from its due time
  Sliced late;   // send time minus due time
};

class RpcHot final : public Workload {
 public:
  explicit RpcHot(const Context& context) : ctx_(context) {}

  void setup(bool) override {
    const bench::BenchPki& pki = bench::BenchPki::instance();
    server_ = std::make_unique<core::ClarensServer>(bench::paper_server_config());
    server_->start();
    client::ClientOptions options;
    options.port = server_->port();
    options.credential = pki.user;
    options.trust = &pki.trust;
    client::ClarensClient login(options);
    login.connect();
    session_ = login.authenticate();
    for (int i = 0; i < kConnections; ++i) {
      clients_.push_back(std::make_unique<client::ClarensClient>(options));
      clients_.back()->connect();
      clients_.back()->set_session(session_);
    }
    expected_methods_ = server_->registry().list();
    if (ctx_.inject_fault) expected_methods_.pop_back();
    payloads_.clear();
    for (int i = 0; i < kEchoPayloads; ++i) {
      Rng rng(ctx_.seed, 100 + i);
      payloads_.push_back(seeded_text(rng, kEchoBytes));
    }
  }

  void teardown() override {
    clients_.clear();
    if (server_) server_->stop();
    server_.reset();
  }

  void warm() override { window(0.25, nullptr); }

  /// The gated figures come from the capacity phase: ops_per_s, call_*
  /// (list_methods round trips) and heavy_* (32 KiB echo round trips).
  /// The paced phase's figures are printed for reading only. On the 4-vCPU
  /// VM host the open loop's latencies followed host load, not the code:
  /// across ten runs their p50 went from 0.09 to 1.2 ms.
  void measure(double seconds, Metrics& e2e, Metrics& table) override {
    const double capacity_s = seconds * kCapacityShare;
    const Clock::time_point start = Clock::now();
    Sliced done(start, capacity_s, kCapacitySlice);
    Sliced lists(start, capacity_s, kCapacitySlice);
    Sliced echoes(start, capacity_s, kCapacitySlice);
    closed_loop(start, capacity_s, nullptr, &done, &lists, &echoes);
    const std::uint64_t served0 = server_->requests_served();
    const std::uint64_t inlined0 = server_->requests_inlined();
    PacedResult paced = run_paced(seconds - capacity_s, nullptr, 1);
    e2e["ops_per_s"] = {done.rate(), "1/s", done.size()};
    e2e["call_p50_us"] = {lists.median(), "us", lists.size()};
    e2e["call_p99_us"] = {lists.percentile(0.99), "us", lists.size()};
    e2e["heavy_p50_us"] = {echoes.median(), "us", echoes.size()};
    e2e["heavy_p99_us"] = {echoes.percentile(0.99), "us", echoes.size()};
    table["ops_per_s"] = e2e["ops_per_s"];
    table["call_p50_us"] = e2e["call_p50_us"];
    table["call_p99_us"] = e2e["call_p99_us"];
    table["echo_p50_us"] = e2e["heavy_p50_us"];
    table["echo_p99_us"] = e2e["heavy_p99_us"];
    table["paced_call_p50_us"] = {paced.calls.median(), "us",
                                  paced.calls.size()};
    table["paced_call_p99_us"] = {paced.calls.percentile(0.99), "us",
                                  paced.calls.size()};
    table["gen.late_p99_us"] = {paced.late.percentile(0.99), "us",
                                paced.late.size()};
    table["offered_rate"] = {kPacedRate, "1/s", paced.calls.size()};
    table["paced_inline_frac"] = {
        static_cast<double>(server_->requests_inlined() - inlined0) /
            static_cast<double>(server_->requests_served() - served0),
        "frac", server_->requests_served() - served0};
  }

  std::uint64_t window(double seconds, Tracer* tracer) override {
    return closed_loop(Clock::now(), seconds, tracer);
  }

  void probe(Tracer& tracer, Metrics& layers) override {
    Tracer::Buffer spans(&tracer);
    client::ClarensClient& client = *clients_[0];
    Rng rng(ctx_.seed, 7);
    const std::uint64_t served0 = server_->requests_served();
    const std::uint64_t inlined0 = server_->requests_inlined();
    const std::uint64_t store0 = server_->store().operations();
    constexpr int kCalls = 2000;
    for (int i = 0; i < kCalls; ++i) {
      bool echo = rng.below(kEchoOneIn) == 0;
      std::vector<rpc::Value> params;
      if (echo) params.emplace_back(payloads_[rng.below(kEchoPayloads)]);
      const char* method = echo ? "echo.echo" : "system.list_methods";
      std::string wire =
          request_wire(rpc::Protocol::XmlRpc, session_, method, params);
      std::uint64_t op = spans.next_id();
      Clock::time_point t0 = Clock::now();
      try {
        rpc::Value live = client.call(method, params);
        spans.add("client.call", op, 0, op, t0, Clock::now());
        check_reply(echo, params, live);
        check_reply(echo, params, replay(*server_, wire, spans, op));
      } catch (const std::exception& e) {
        ctx_.ledger->fail(std::string("rpc_hot probe: ") + e.what());
      }
    }
    spans.flush();
    const double served =
        static_cast<double>(server_->requests_served() - served0);
    layers["http.inline_frac"] = {
        served > 0 ? static_cast<double>(server_->requests_inlined() -
                                         inlined0) / served
                   : 0,
        "frac", static_cast<std::uint64_t>(served)};
    layers["db.head_ops_per_op"] = {
        static_cast<double>(server_->store().operations() - store0) / kCalls,
        "count", kCalls};
    replay_metrics(tracer, layers);

    time_calls(tracer, "net.connect", "net.connect_us", 200, layers,
               [&](int) {
                 net::TcpConnection tcp =
                     net::TcpConnection::connect("127.0.0.1", server_->port());
                 tcp.close();
               });

    PacedResult paced = run_paced(0.5, &tracer, 2);
    layers["gen.late_p99_us"] = {paced.late.percentile(0.99), "us",
                                 paced.late.size()};
  }

 private:
  /// All connections flat out from `start` for `seconds`. When `done` is
  /// non-null it receives completions, `lists` the list_methods round
  /// trips and `echoes` the echo round trips.
  std::uint64_t closed_loop(Clock::time_point start, double seconds,
                            Tracer* tracer, Sliced* done = nullptr,
                            Sliced* lists = nullptr, Sliced* echoes = nullptr) {
    std::atomic<std::uint64_t> total{0};
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    const Sliced empty(start, seconds, kCapacitySlice);
    std::vector<Sliced> done_parts(kConnections, empty);
    std::vector<Sliced> list_parts(kConnections, empty);
    std::vector<Sliced> echo_parts(kConnections, empty);
    std::vector<std::thread> threads;
    for (int t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        Tracer::Buffer spans(tracer);
        Rng rng(ctx_.seed, 1000 + t + 16 * windows_);
        std::uint64_t n = 0;
        for (Clock::time_point t0 = Clock::now(); t0 < stop;) {
          const bool echo = rng.below(kEchoOneIn) == 0;
          const std::uint64_t op = spans.next_id();
          call(*clients_[t], echo, rng);
          const Clock::time_point t1 = Clock::now();
          spans.add(echo ? "client.echo" : "client.list_methods", op, 0, op,
                    t0, t1);
          if (done) {
            done_parts[t].add(t1, 1);
            (echo ? echo_parts : list_parts)[t].add(t1, us_between(t0, t1));
          }
          t0 = t1;
          ++n;
        }
        total += n;
      });
    }
    for (auto& thread : threads) thread.join();
    for (int t = 0; done && t < kConnections; ++t) {
      done->merge(done_parts[t]);
      lists->merge(list_parts[t]);
      echoes->merge(echo_parts[t]);
    }
    ++windows_;
    return total.load();
  }

  void call(client::ClarensClient& client, bool echo, Rng& rng) {
    try {
      if (echo) {
        const std::string& payload = payloads_[rng.below(kEchoPayloads)];
        rpc::Value reply = client.call("echo.echo", {rpc::Value(payload)});
        ctx_.ledger->check(reply.type() == rpc::Value::Type::String &&
                               reply.as_string() == payload,
                           "rpc_hot: echo reply differs from the payload");
      } else {
        rpc::Value reply = client.call("system.list_methods");
        check_methods(reply);
      }
    } catch (const std::exception& e) {
      ctx_.ledger->fail(std::string("rpc_hot: ") + e.what());
    }
  }

  void check_methods(const rpc::Value& reply) {
    ctx_.ledger->check(same_methods(reply, expected_methods_),
                       "rpc_hot: list_methods differs from the registry");
  }

  void check_reply(bool echo, const std::vector<rpc::Value>& params,
                   const rpc::Value& reply) {
    if (echo) {
      ctx_.ledger->check(reply == params[0],
                         "rpc_hot: echo reply differs from the payload");
    } else {
      check_methods(reply);
    }
  }

  /// Open loop: each connection sends its own seeded Poisson stream at a
  /// quarter of kPacedRate (four independent Poisson streams sum to one
  /// at kPacedRate). A call whose connection is still busy waits, and its
  /// latency counts that wait.
  PacedResult run_paced(double seconds, Tracer* tracer, std::uint64_t stream) {
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    std::vector<PacedResult> parts(kConnections, PacedResult(start, seconds));
    std::vector<std::thread> threads;
    for (int t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        // Wake-ups within a microsecond of the due time instead of the
        // default 50 us timer slack.
        prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
        Tracer::Buffer spans(tracer);
        Rng arrivals(ctx_.seed, 5000 + 64 * stream + t);
        Rng choices(ctx_.seed, 6000 + 64 * stream + t);
        const double rate = kPacedRate / kConnections;
        double due_s = 0;
        PacedResult& out = parts[t];
        while (true) {
          due_s += -std::log(1.0 - arrivals.uniform()) / rate;
          if (due_s >= seconds) break;
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due_s));
          if (Clock::now() < due) std::this_thread::sleep_until(due);
          const Clock::time_point sent = Clock::now();
          call(*clients_[t], choices.below(kEchoOneIn) == 0, choices);
          const Clock::time_point done = Clock::now();
          out.late.add(due, us_between(due, sent));
          out.calls.add(due, us_between(due, done));
          const std::uint64_t op = spans.next_id();
          spans.add("gen.paced_call", op, 0, op, due, done);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    PacedResult merged(start, seconds);
    for (const PacedResult& part : parts) merged.merge(part);
    return merged;
  }

  Context ctx_;
  std::unique_ptr<core::ClarensServer> server_;
  std::vector<std::unique_ptr<client::ClarensClient>> clients_;
  std::string session_;
  std::vector<std::string> expected_methods_;
  std::vector<std::string> payloads_;
  std::uint64_t windows_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_rpc_hot(const Context& context) {
  return std::make_unique<RpcHot>(context);
}

}  // namespace perfbench
