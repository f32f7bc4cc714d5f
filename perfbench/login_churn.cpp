// login_churn: the write side of the session layer. One TLS server with a
// persistent data_dir at default journaling; 4 caller threads in a closed
// loop, each running user sessions back to back. One user session is:
// TLS connect, system.auth, 8 system.list_methods, system.logout, a check
// that the logged-out token is refused, close.
#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "client/client.hpp"
#include "http/message.hpp"
#include "net/socket.hpp"
#include "rpc/fault.hpp"
#include "tls/channel.hpp"
#include "tls/engine.hpp"
#include "util/buffer.hpp"
#include "util/clock.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace clarens;

namespace {

constexpr int kCallers = 4;
constexpr int kCallsPerSession = 8;

/// Slice lengths: statistics are medians over slices (see Sliced). A
/// login slice holds about 1000 logins, so its p99 has ten beyond it.
constexpr double kSlice = 1.0;
constexpr double kLoginSlice = 2.5;

struct SessionSamples {
  SessionSamples(Clock::time_point start, double seconds)
      : login(start, seconds, kLoginSlice),
        calls(start, seconds, kSlice),
        sessions(start, seconds, kSlice) {}
  void merge(const SessionSamples& other) {
    login.merge(other.login);
    calls.merge(other.calls);
    sessions.merge(other.sessions);
  }
  Sliced login;     // TLS connect until the session token arrives
  Sliced calls;     // in-session list_methods round trips
  Sliced sessions;  // completed user sessions
};

class LoginChurn final : public Workload {
 public:
  explicit LoginChurn(const Context& context) : ctx_(context) {}

  void setup(bool) override {
    const bench::BenchPki& pki = bench::BenchPki::instance();
    data_dir_ = ctx_.work_dir + "/login-" + std::to_string(setups_++);
    std::filesystem::remove_all(data_dir_);
    core::ClarensConfig config = bench::paper_server_config(/*use_tls=*/true);
    config.data_dir = data_dir_;
    server_ = std::make_unique<core::ClarensServer>(std::move(config));
    server_->start();
    options_ = client::ClientOptions{};
    options_.port = server_->port();
    options_.credential = pki.user;
    options_.trust = &pki.trust;
    options_.use_tls = true;
    expected_methods_ = server_->registry().list();
    if (ctx_.inject_fault) expected_methods_.pop_back();
    // One user session proves the path end to end before measuring.
    Tracer::Buffer none(nullptr);
    run_session(none, nullptr);
  }

  void teardown() override {
    if (server_) server_->stop();
    server_.reset();
    std::filesystem::remove_all(data_dir_);
  }

  void warm() override { window(0.25, nullptr); }

  void measure(double seconds, Metrics& e2e, Metrics& table) override {
    const Clock::time_point start = Clock::now();
    SessionSamples samples(start, seconds);
    loop(start, seconds, nullptr, &samples);
    e2e["ops_per_s"] = {samples.sessions.rate(), "1/s",
                        samples.sessions.size()};
    e2e["call_p50_us"] = {samples.calls.median(), "us", samples.calls.size()};
    e2e["call_p99_us"] = {samples.calls.percentile(0.99), "us",
                          samples.calls.size()};
    e2e["heavy_p50_us"] = {samples.login.median(), "us", samples.login.size()};
    e2e["heavy_p99_us"] = {samples.login.percentile(0.99), "us",
                           samples.login.size()};
    table["ops_per_s"] = e2e["ops_per_s"];
    table["call_p50_us"] = e2e["call_p50_us"];
    table["call_p99_us"] = e2e["call_p99_us"];
    table["login_p50_us"] = e2e["heavy_p50_us"];
    table["login_p99_us"] = e2e["heavy_p99_us"];
  }

  std::uint64_t window(double seconds, Tracer* tracer) override {
    return loop(Clock::now(), seconds, tracer, nullptr);
  }

  void probe(Tracer& tracer, Metrics& layers) override {
    const bench::BenchPki& pki = bench::BenchPki::instance();
    // In-session calls on one live TLS connection, each replayed through
    // the server's layers.
    client::ClarensClient client(options_);
    client.connect();
    const std::string token = client.authenticate();
    {
      Tracer::Buffer spans(&tracer);
      const std::string wire =
          request_wire(rpc::Protocol::XmlRpc, token, "system.list_methods", {});
      for (int i = 0; i < 1000; ++i) {
        std::uint64_t op = spans.next_id();
        Clock::time_point t0 = Clock::now();
        try {
          rpc::Value live = client.call("system.list_methods");
          spans.add("client.call", op, 0, op, t0, Clock::now());
          check_methods(live);
          check_methods(replay(*server_, wire, spans, op));
        } catch (const std::exception& e) {
          ctx_.ledger->fail(std::string("login_churn probe: ") + e.what());
        }
      }
    }
    replay_metrics(tracer, layers);

    // Store operations per user session on this (head) server.
    {
      const std::uint64_t store0 = server_->store().operations();
      constexpr int kSessions = 50;
      Tracer::Buffer none(nullptr);
      for (int i = 0; i < kSessions; ++i) run_session(none, nullptr);
      layers["db.head_ops_per_op"] = {
          static_cast<double>(server_->store().operations() - store0) /
              kSessions,
          "count", kSessions};
    }

    time_calls(tracer, "net.connect", "net.connect_us", 100, layers, [&](int) {
      net::TcpConnection tcp =
          net::TcpConnection::connect("127.0.0.1", server_->port());
      tcp.close();
    });

    tls::TlsConfig client_tls;
    client_tls.credential = pki.user;
    client_tls.trust = &pki.trust;
    time_calls(tracer, "tls.handshake", "tls.handshake_us", 100, layers,
               [&](int) {
                 auto tcp = std::make_unique<net::TcpConnection>(
                     net::TcpConnection::connect("127.0.0.1", server_->port()));
                 auto channel =
                     tls::SecureChannel::connect(std::move(tcp), client_tls);
                 channel->close();
               });

    probe_record_layer(tracer, layers, token);

    const std::vector<pki::Certificate> chain = {pki.user.certificate};
    time_calls(tracer, "pki.chain_verify", "pki.chain_verify_us", 300, layers,
               [&](int) {
                 pki::TrustStore::Result result =
                     pki.trust.verify(chain, util::unix_now());
                 ctx_.ledger->check(result.ok,
                                    "login_churn: chain verification failed");
               });

    const std::string user_dn = pki.user.dn().str();
    std::vector<std::string> ids(300);
    time_calls(tracer, "core.session_create", "core.session_create_us", 300,
               layers, [&](int i) {
                 ids[i] = server_->sessions().create(user_dn, false).id;
               });
    time_calls(tracer, "core.session_destroy", "core.session_destroy_us", 300,
               layers, [&](int i) {
                 ctx_.ledger->check(server_->sessions().destroy(ids[i]),
                                    "login_churn: session destroy missed");
               });

    Rng rng(ctx_.seed, 9);
    const std::string value = seeded_text(rng, 256);
    time_calls(tracer, "db.put", "db.put_us", 500, layers, [&](int i) {
      server_->store().put("perfbench_probe", "k" + std::to_string(i), value);
    });
    server_->store().drop_table("perfbench_probe");
  }

 private:
  /// Record-layer cost of one call: the request encrypted by a client
  /// engine and decrypted by a server engine, the response the other way,
  /// over an in-memory handshake with this workload's credentials.
  void probe_record_layer(Tracer& tracer, Metrics& layers,
                          const std::string& token) {
    const bench::BenchPki& pki = bench::BenchPki::instance();
    tls::TlsConfig client_cfg;
    client_cfg.credential = pki.user;
    client_cfg.trust = &pki.trust;
    tls::TlsConfig server_cfg;
    server_cfg.credential = pki.server;
    server_cfg.trust = &pki.trust;
    tls::Engine client_engine(tls::Engine::Role::Client, client_cfg);
    tls::Engine server_engine(tls::Engine::Role::Server, server_cfg);
    util::Buffer to_server, to_client;
    auto bytes = [](util::Buffer& buffer) {
      std::string_view view = buffer.peek_view();
      std::vector<std::uint8_t> out(view.begin(), view.end());
      buffer.clear();
      return out;
    };
    client_engine.start(to_server);
    for (int round = 0; round < 8 && !(client_engine.handshake_done() &&
                                       server_engine.handshake_done());
         ++round) {
      std::vector<std::uint8_t> flight = bytes(to_server);
      server_engine.feed(flight, to_client);
      flight = bytes(to_client);
      client_engine.feed(flight, to_server);
    }
    if (!client_engine.handshake_done() || !server_engine.handshake_done()) {
      ctx_.ledger->fail("login_churn: in-memory TLS handshake did not finish");
      return;
    }
    const std::string request =
        request_wire(rpc::Protocol::XmlRpc, token, "system.list_methods", {});
    rpc::Value list = rpc::Value::array();
    for (const std::string& name : server_->registry().list()) list.push(name);
    const std::string response =
        http::Response::make(200,
                             rpc::serialize_response(rpc::Protocol::XmlRpc,
                                                     rpc::Response::success(list)),
                             "text/xml")
            .serialize();
    std::vector<std::uint8_t> plain(std::max(request.size(), response.size()));
    time_calls(tracer, "tls.record", "tls.call_overhead_us", 1000, layers,
               [&](int) {
                 util::Buffer wire, unused;
                 std::string_view req[] = {request};
                 client_engine.encrypt(req, wire);
                 std::vector<std::uint8_t> flight = bytes(wire);
                 server_engine.feed(flight, unused);
                 std::size_t got = server_engine.read_plain(plain);
                 std::string_view resp[] = {response};
                 server_engine.encrypt(resp, wire);
                 flight = bytes(wire);
                 client_engine.feed(flight, unused);
                 got += client_engine.read_plain(plain);
                 ctx_.ledger->check(got == request.size() + response.size(),
                                    "login_churn: TLS record round trip lost bytes");
               });
  }

  void check_methods(const rpc::Value& reply) {
    ctx_.ledger->check(same_methods(reply, expected_methods_),
                       "login_churn: list_methods differs from the registry");
  }

  /// One user session. Returns true when it completed.
  bool run_session(Tracer::Buffer& spans, SessionSamples* samples) {
    const std::uint64_t op = spans.next_id();
    const Clock::time_point begin = Clock::now();
    try {
      client::ClarensClient client(options_);
      client.connect();
      const std::string token = client.authenticate();
      const Clock::time_point logged_in = Clock::now();
      ctx_.ledger->check(!token.empty(), "login_churn: empty session token");
      spans.add("client.login", spans.next_id(), op, op, begin, logged_in);
      if (samples) samples->login.add(logged_in, us_between(begin, logged_in));
      for (int i = 0; i < kCallsPerSession; ++i) {
        const Clock::time_point t0 = Clock::now();
        rpc::Value reply = client.call("system.list_methods");
        const Clock::time_point t1 = Clock::now();
        check_methods(reply);
        spans.add("client.call", spans.next_id(), op, op, t0, t1);
        if (samples) samples->calls.add(t1, us_between(t0, t1));
      }
      const Clock::time_point t0 = Clock::now();
      rpc::Value out = client.call("system.logout");
      spans.add("client.logout", spans.next_id(), op, op, t0, Clock::now());
      ctx_.ledger->check(out.type() == rpc::Value::Type::Bool && out.as_bool(),
                         "login_churn: logout did not destroy the session");
      bool refused = false;
      try {
        client.call("system.list_methods");
      } catch (const rpc::Fault&) {
        refused = true;
      }
      ctx_.ledger->check(refused, "login_churn: logged-out token accepted");
      client.close();
      const Clock::time_point end = Clock::now();
      spans.add("client.session", op, 0, op, begin, end);
      if (samples) samples->sessions.add(end, 1);
      return true;
    } catch (const std::exception& e) {
      ctx_.ledger->fail(std::string("login_churn: ") + e.what());
      return false;
    }
  }

  std::uint64_t loop(Clock::time_point start, double seconds, Tracer* tracer,
                     SessionSamples* samples) {
    std::atomic<std::uint64_t> total{0};
    std::vector<SessionSamples> parts(kCallers, SessionSamples(start, seconds));
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int t = 0; t < kCallers; ++t) {
      threads.emplace_back([&, t] {
        Tracer::Buffer spans(tracer);
        std::uint64_t done = 0;
        while (Clock::now() < stop) {
          if (run_session(spans, samples ? &parts[t] : nullptr)) ++done;
        }
        total += done;
      });
    }
    for (auto& thread : threads) thread.join();
    if (samples) {
      for (const SessionSamples& part : parts) samples->merge(part);
    }
    return total.load();
  }

  Context ctx_;
  std::unique_ptr<core::ClarensServer> server_;
  client::ClientOptions options_;
  std::string data_dir_;
  std::vector<std::string> expected_methods_;
  int setups_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_login_churn(const Context& context) {
  return std::make_unique<LoginChurn>(context);
}

}  // namespace perfbench
