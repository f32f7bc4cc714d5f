// fed_files: the federated data path. One head and 2 storage nodes form a
// discovery-fed ring at placement_replicas=1; one caller uses RoutedClient
// over the binary protocol (head + one pooled connection per node).
//
// Set-up pre-writes 64 prefixes x 4 files; 7 in 8 files are 8 KiB and 1
// in 8 is 256 KiB (above the 64 KiB sendfile threshold). The seeded mix
// is 1 overwrite to 3 whole-file reads, each on a Zipf-skewed prefix, so
// some prefixes are hot and some cold.
#include <sched.h>

#include <cmath>
#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "client/client.hpp"
#include "client/peer_pool.hpp"
#include "client/routed.hpp"
#include "crypto/md5.hpp"
#include "db/store.hpp"
#include "discovery/discovery_server.hpp"
#include "discovery/station.hpp"
#include "federation/node_ticket.hpp"
#include "federation/router.hpp"
#include "rpc/binding.hpp"
#include "util/clock.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace clarens;

namespace {

constexpr const char* kSecret = "perfbench-federation-secret";
constexpr int kFilesPerPrefix = 4;
constexpr std::size_t kSmallFile = 8 * 1024;
constexpr std::size_t kLargeFile = 256 * 1024;
constexpr std::uint64_t kWriteOneIn = 4;  // 1 overwrite : 3 reads
constexpr double kZipfExponent = 1.1;

core::ClarensConfig node_config(const std::string& node, core::NodeRole role,
                                const std::string& root,
                                const std::string& head_url,
                                std::uint16_t station_port) {
  core::ClarensConfig config = bench::paper_server_config();
  core::FileAcl open_acl;
  open_acl.read = bench::allow_anyone();
  open_acl.write = bench::allow_anyone();
  config.initial_file_acls = {{"/data", open_acl}};
  // Storage-node commit notifications (replica.committed) run the method
  // ACL against the writer identity.
  config.initial_method_acls.push_back({"replica", bench::allow_anyone()});
  config.farm = "perfbench";
  config.node = node;
  config.node_role = role;
  config.node_ticket_secret = kSecret;
  config.head_url = head_url;
  config.station = {{"127.0.0.1", station_port}};
  config.publish_interval_ms = 100;
  config.federation_refresh_ms = 100;
  if (!root.empty()) config.file_roots = {{"/data", root}};
  return config;
}

std::vector<std::uint8_t> seeded_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t word = rng.next();
    for (std::size_t b = 0; b < 8 && i + b < n; ++b) {
      out[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return out;
}

struct FileState {
  std::string path;
  std::vector<std::uint8_t> content;  // last content written
};

/// Slice lengths: statistics are medians over slices (see Sliced). A
/// write slice holds about 1000 writes, so its p99 has ten beyond it.
constexpr double kSlice = 1.0;
constexpr double kWriteSlice = 2.0;

struct OpSamples {
  OpSamples(Clock::time_point start, double seconds)
      : reads(start, seconds, kSlice),
        writes(start, seconds, kWriteSlice),
        ops(start, seconds, kSlice) {}
  Sliced reads;
  Sliced writes;
  Sliced ops;
  double bytes = 0;  // verified payload bytes read plus written
};

class FedFiles final : public Workload {
 public:
  explicit FedFiles(const Context& context) : ctx_(context) {}

  void setup(bool full) override {
    const bench::BenchPki& pki = bench::BenchPki::instance();
    const Clock::time_point begin = Clock::now();
    pin_to_one_cpu();
    root_ = ctx_.work_dir + "/fed-" + std::to_string(setups_++);
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ + "/fst1");
    std::filesystem::create_directories(root_ + "/fst2");

    station_ = std::make_unique<discovery::StationServer>();
    discovery_store_ = std::make_unique<db::Store>();
    discovery_ = std::make_unique<discovery::DiscoveryServer>(*discovery_store_,
                                                              3600);
    discovery_->subscribe("127.0.0.1", station_->port());
    head_ = std::make_unique<core::ClarensServer>(node_config(
        "head", core::NodeRole::Head, "", "", station_->port()));
    head_->attach_discovery(*discovery_);
    head_->start();
    for (const char* name : {"fst1", "fst2"}) {
      nodes_.push_back(std::make_unique<core::ClarensServer>(
          node_config(name, core::NodeRole::Storage, root_ + "/" + name,
                      head_->url(), station_->port())));
      nodes_.back()->start();
    }
    while (!head_->router() || head_->router()->storage_nodes().size() < 2) {
      if (seconds_between(begin, Clock::now()) > 30) {
        throw std::runtime_error("fed_files: storage ring never formed");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ring_ready_s_ = seconds_between(begin, Clock::now());

    base_ = client::ClientOptions{};
    base_.protocol = rpc::Protocol::Binary;
    base_.credential = pki.user;
    base_.trust = &pki.trust;
    routed_ = std::make_unique<client::RoutedClient>(head_->url(), base_,
                                                     /*max_attempts=*/10,
                                                     /*retry_backoff_ms=*/50);
    routed_->authenticate();

    // Seeded namespace: the Zipf ranks are a seeded permutation of the
    // prefixes. Every odd rank holds one 256 KiB file at a seeded slot, so
    // 1 in 8 files is large and the share of operations that touch a large
    // file is the same for every seed.
    const int prefixes = full ? 64 : 8;
    Rng rng(ctx_.seed, 300);
    rank_.resize(prefixes);
    for (int p = 0; p < prefixes; ++p) rank_[p] = p;
    shuffle(rank_, rng);
    std::vector<int> large_slot(prefixes, -1);
    for (int k = 1; k < prefixes; k += 2) {
      large_slot[rank_[k]] = static_cast<int>(rng.below(kFilesPerPrefix));
    }
    files_.clear();
    for (int p = 0; p < prefixes; ++p) {
      const std::string dir = "/data/p" + std::to_string(p);
      routed_->call("file.mkdir", {rpc::Value(dir)});
      for (int f = 0; f < kFilesPerPrefix; ++f) {
        FileState file;
        file.path = dir + "/f" + std::to_string(f) + ".bin";
        file.content = seeded_bytes(
            rng, large_slot[p] == f ? kLargeFile : kSmallFile);
        write_file(file, file.content, nullptr);
        files_.push_back(std::move(file));
      }
    }
    zipf_cdf_.assign(prefixes, 0);
    double sum = 0;
    for (int k = 0; k < prefixes; ++k) {
      sum += 1.0 / std::pow(k + 1, kZipfExponent);
      zipf_cdf_[k] = sum;
    }
    for (double& c : zipf_cdf_) c /= sum;
  }

  void teardown() override {
    routed_.reset();
    for (auto& node : nodes_) node->stop();
    if (head_) head_->stop();
    nodes_.clear();
    head_.reset();
    discovery_.reset();
    discovery_store_.reset();
    station_.reset();
    std::filesystem::remove_all(root_);
    if (pinned_) sched_setaffinity(0, sizeof(saved_affinity_), &saved_affinity_);
    pinned_ = false;
  }

  void warm() override { window(0.25, nullptr); }

  void measure(double seconds, Metrics& e2e, Metrics& table) override {
    const Clock::time_point start = Clock::now();
    OpSamples samples(start, seconds);
    const std::uint64_t ops = loop(start, seconds, nullptr, &samples);
    e2e["ops_per_s"] = {samples.ops.rate(), "1/s", samples.ops.size()};
    e2e["call_p50_us"] = {samples.reads.median(), "us", samples.reads.size()};
    e2e["call_p99_us"] = {samples.reads.percentile(0.99), "us",
                          samples.reads.size()};
    e2e["heavy_p50_us"] = {samples.writes.median(), "us",
                           samples.writes.size()};
    e2e["heavy_p99_us"] = {samples.writes.percentile(0.99), "us",
                           samples.writes.size()};
    table["ops_per_s"] = e2e["ops_per_s"];
    table["read_p50_us"] = e2e["call_p50_us"];
    table["read_p99_us"] = e2e["call_p99_us"];
    table["write_p50_us"] = e2e["heavy_p50_us"];
    table["write_p99_us"] = e2e["heavy_p99_us"];
    table["goodput_mb_s"] = {samples.bytes / seconds / 1e6, "MB/s", ops};
  }

  std::uint64_t window(double seconds, Tracer* tracer) override {
    return loop(Clock::now(), seconds, tracer, nullptr);
  }

  void probe(Tracer& tracer, Metrics& layers) override {
    const bench::BenchPki& pki = bench::BenchPki::instance();
    const std::string user_dn = pki.user.dn().str();
    federation::Router& router = *head_->router();

    // The workload's own mix through RoutedClient: redirects, retries and
    // storage-node store operations per file operation.
    {
      const std::uint64_t redirects0 = routed_->redirects_followed();
      const std::uint64_t retries0 = routed_->failures_reported();
      const std::uint64_t node_ops0 = node_store_ops();
      OpSamples unused(Clock::now(), 1);
      Tracer::Buffer spans(&tracer);
      Rng rng(ctx_.seed, 11);
      constexpr int kOps = 400;
      for (int i = 0; i < kOps; ++i) one_op(rng, spans, &unused, "client.routed");
      auto per_op = [](std::uint64_t n) {
        return static_cast<double>(n) / kOps;
      };
      layers["federation.redirects_per_op"] = {
          per_op(routed_->redirects_followed() - redirects0), "count", kOps};
      layers["federation.retries_per_op"] = {
          per_op(routed_->failures_reported() - retries0), "count", kOps};
      layers["db.node_ops_per_op"] = {per_op(node_store_ops() - node_ops0),
                                      "count", kOps};
    }

    // Each hop of a routed write issued by hand: the head's redirect, the
    // ticketed replay on the owning node, and the commit notification
    // under a node ticket minted here with the cluster secret.
    client::ClientOptions head_options = base_;
    head_options.port = head_->port();
    client::ClarensClient head(head_options);
    head.connect();
    head.authenticate();
    client::ClarensClient notifier(head_options);
    notifier.connect();
    client::PeerPool pool(base_);
    Samples hop_sum;
    {
      Tracer::Buffer spans(&tracer);
      Rng rng(ctx_.seed, 12);
      for (int i = 0; i < 200; ++i) {
        FileState& file = pick(rng);
        std::vector<std::uint8_t> content = seeded_bytes(rng, file.content.size());
        const std::vector<rpc::Value> params = {rpc::Value(file.path),
                                                rpc::Value(content)};
        const std::uint64_t op = spans.next_id();
        try {
          const Clock::time_point t0 = Clock::now();
          rpc::Value envelope = head.call("file.write", params);
          const Clock::time_point t1 = Clock::now();
          rpc::RedirectResult redirect =
              rpc::RedirectResult::from_value(envelope);
          client::PeerPool::Lease lease = pool.lease(redirect.url);
          lease->set_header("X-Clarens-Node-Ticket", redirect.ticket);
          const Clock::time_point t2 = Clock::now();
          rpc::Value wrote = lease->call("file.write", params);
          const Clock::time_point t3 = Clock::now();
          ctx_.ledger->check(wrote.type() == rpc::Value::Type::Bool &&
                                 wrote.as_bool(),
                             "fed_files: node write not acknowledged");
          file.content = std::move(content);

          federation::NodeTicket ticket;
          ticket.dn = user_dn;
          ticket.scope = file.path;
          ticket.expires = util::unix_now() + 60;
          notifier.set_header("X-Clarens-Node-Ticket", ticket.mint(kSecret));
          const std::string md5 = crypto::Md5::hex(std::string_view(
              reinterpret_cast<const char*>(file.content.data()),
              file.content.size()));
          const Clock::time_point t4 = Clock::now();
          rpc::Value noted = notifier.call(
              "replica.committed",
              {rpc::Value(file.path), rpc::Value(node_id(redirect.url)),
               rpc::Value(md5),
               rpc::Value(static_cast<std::int64_t>(file.content.size()))});
          const Clock::time_point t5 = Clock::now();
          ctx_.ledger->check(noted.type() == rpc::Value::Type::Bool &&
                                 noted.as_bool(),
                             "fed_files: commit notification refused");
          spans.add("federation.head_redirect", spans.next_id(), op, op, t0, t1);
          spans.add("federation.node_replay", spans.next_id(), op, op, t2, t3);
          spans.add("federation.commit_notify", spans.next_id(), op, op, t4, t5);
          spans.add("fed.write_hops", op, 0, op, t0, t5);
          hop_sum.add(us_between(t0, t1) + us_between(t2, t3));
        } catch (const std::exception& e) {
          ctx_.ledger->fail(std::string("fed_files hops: ") + e.what());
        }
      }
    }
    std::size_t idle = 0;
    for (const auto& node : router.storage_nodes()) idle += pool.idle_count(node.url);
    layers["client.pool_idle"] = {static_cast<double>(idle), "count", 1};

    // Routed writes end to end, for the hop accounting.
    {
      Tracer::Buffer spans(&tracer);
      Rng rng(ctx_.seed, 13);
      OpSamples unused(Clock::now(), 1);
      for (int i = 0; i < 200; ++i) write_op(rng, spans, &unused, "client.routed_write");
    }

    // The head's share of a routed read, replayed through its layers.
    {
      Tracer::Buffer spans(&tracer);
      Rng rng(ctx_.seed, 14);
      for (int i = 0; i < 500; ++i) {
        const FileState& file = pick(rng);
        const std::vector<rpc::Value> params = {
            rpc::Value(file.path), rpc::Value(std::int64_t{0}),
            rpc::Value(static_cast<std::int64_t>(file.content.size()))};
        const std::string wire = request_wire(rpc::Protocol::Binary,
                                              head.session(), "file.read", params);
        const std::uint64_t op = spans.next_id();
        try {
          const Clock::time_point t0 = Clock::now();
          rpc::Value live = head.call("file.read", params);
          spans.add("client.call", op, 0, op, t0, Clock::now());
          ctx_.ledger->check(rpc::RedirectResult::is_redirect(live),
                             "fed_files: head read did not redirect");
          ctx_.ledger->check(
              rpc::RedirectResult::is_redirect(replay(*head_, wire, spans, op)),
              "fed_files: replayed head read did not redirect");
        } catch (const std::exception& e) {
          ctx_.ledger->fail(std::string("fed_files replay: ") + e.what());
        }
      }
    }

    Metrics self = tracer.self_time_medians();
    for (const char* hop : {"federation.head_redirect", "federation.node_replay",
                            "federation.commit_notify"}) {
      layers[std::string(hop) + "_us"] = self[hop];
    }
    replay_metrics(tracer, layers);
    // How far the hops fall from the routed write they make up.
    const double routed_write = self["client.routed_write"].value;
    layers["trace.unaccounted_frac"] = {
        routed_write > 0
            ? std::fabs(routed_write - hop_sum.median()) / routed_write
            : 0,
        "frac", hop_sum.size()};

    Rng rng(ctx_.seed, 15);
    const std::string scope = router.prefix_of(files_.front().path);
    time_calls(tracer, "federation.mint", "federation.mint_us", 500, layers,
               [&](int) { router.mint_ticket(user_dn, false, "", scope, true); });
    time_calls(tracer, "federation.route", "federation.route_us", 500, layers,
               [&](int) {
                 ctx_.ledger->check(router.route(pick(rng).path).has_value(),
                                    "fed_files: router found no owner");
               });
    const std::string token = router.mint_ticket(user_dn, false, "", scope, true);
    time_calls(tracer, "federation.ticket_verify", "federation.ticket_verify_us",
               500, layers, [&](int) {
                 ctx_.ledger->check(federation::NodeTicket::verify(
                                        kSecret, token, util::unix_now())
                                        .has_value(),
                                    "fed_files: minted ticket did not verify");
               });

    // The file layer of the node that owns a probe path, called directly.
    {
      const std::string probe_path = files_.front().path + ".probe";
      const std::string owner = router.route(probe_path)->id;
      core::ClarensServer& node = *nodes_[owner == "perfbench/fst1" ? 0 : 1];
      const pki::DistinguishedName dn = pki.user.dn();
      const std::vector<std::uint8_t> content = seeded_bytes(rng, kSmallFile);
      time_calls(tracer, "core.file_write", "core.file_write_us", 200, layers,
                 [&](int) { node.files().write(probe_path, content, dn); });
      time_calls(tracer, "core.file_read", "core.file_read_us", 200, layers,
                 [&](int) {
                   ctx_.ledger->check(
                       node.files().read(probe_path, 0, kSmallFile, dn) == content,
                       "fed_files: direct file read differs");
                 });
    }

    // One scrub of every replica after the window.
    const Clock::time_point t0 = Clock::now();
    rpc::Value fsck = routed_->call("replica.fsck", {rpc::Value("/data")});
    const double fsck_s = seconds_between(t0, Clock::now());
    const std::int64_t checked = fsck.at("replicas_checked").as_int();
    ctx_.ledger->check(fsck.at("mismatched").as_int() == 0 &&
                           fsck.at("missing").as_int() == 0 && checked > 0,
                       "fed_files: fsck found divergent replicas");
    layers["federation.fsck_replicas_per_s"] = {
        static_cast<double>(checked) / fsck_s, "1/s",
        static_cast<std::uint64_t>(checked)};
    layers["discovery.ring_ready_s"] = {ring_ready_s_, "s", 1};
  }

 private:
  /// The single caller makes every operation one serial chain of hops:
  /// at any moment one thread of it runs. The caller and every thread the
  /// servers start share one CPU, so a hop is a same-CPU switch. Spread
  /// over the 4-vCPU host, each hop instead waits for the VM host to wake
  /// an idle vCPU, and whole runs then differed by up to 2x (pinned: about
  /// 15%). Threads inherit the calling thread's mask; teardown restores it.
  void pin_to_one_cpu() {
    if (pinned_ || sched_getaffinity(0, sizeof(saved_affinity_),
                                     &saved_affinity_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_affinity_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      return;
    }
  }

  template <typename T>
  static void shuffle(std::vector<T>& v, Rng& rng) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.below(i)]);
    }
  }

  FileState& pick(Rng& rng) {
    const double u = rng.uniform();
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    const int prefix = rank_[std::min(k, rank_.size() - 1)];
    return files_[prefix * kFilesPerPrefix + rng.below(kFilesPerPrefix)];
  }

  std::uint64_t node_store_ops() const {
    std::uint64_t n = 0;
    for (const auto& node : nodes_) n += node->store().operations();
    return n;
  }

  std::string node_id(const std::string& url) {
    for (const auto& node : head_->router()->storage_nodes()) {
      if (node.url == url) return node.id;
    }
    return {};
  }

  void write_file(FileState& file, std::vector<std::uint8_t> content,
                  OpSamples* samples) {
    rpc::Value wrote = routed_->call(
        "file.write", {rpc::Value(file.path), rpc::Value(content)});
    ctx_.ledger->check(wrote.type() == rpc::Value::Type::Bool && wrote.as_bool(),
                       "fed_files: write not acknowledged");
    if (samples) samples->bytes += static_cast<double>(content.size());
    file.content = std::move(content);
  }

  void write_op(Rng& rng, Tracer::Buffer& spans, OpSamples* samples,
                const char* span) {
    FileState& file = pick(rng);
    std::vector<std::uint8_t> content = seeded_bytes(rng, file.content.size());
    const std::uint64_t op = spans.next_id();
    const Clock::time_point t0 = Clock::now();
    try {
      write_file(file, std::move(content), samples);
      const Clock::time_point t1 = Clock::now();
      spans.add(span, op, 0, op, t0, t1);
      samples->writes.add(t1, us_between(t0, t1));
      samples->ops.add(t1, 1);
    } catch (const std::exception& e) {
      ctx_.ledger->fail(std::string("fed_files write: ") + e.what());
    }
  }

  void read_op(Rng& rng, Tracer::Buffer& spans, OpSamples* samples,
               const char* span) {
    const FileState& file = pick(rng);
    const std::uint64_t op = spans.next_id();
    const Clock::time_point t0 = Clock::now();
    try {
      rpc::Value got = routed_->call(
          "file.read",
          {rpc::Value(file.path), rpc::Value(std::int64_t{0}),
           rpc::Value(static_cast<std::int64_t>(file.content.size()))});
      const Clock::time_point t1 = Clock::now();
      spans.add(span, op, 0, op, t0, t1);
      const bool good = got.type() == rpc::Value::Type::Binary &&
                        got.as_binary() == file.content &&
                        !ctx_.inject_fault;
      ctx_.ledger->check(good, "fed_files: read differs from the last write");
      if (good) samples->bytes += static_cast<double>(file.content.size());
      samples->reads.add(t1, us_between(t0, t1));
      samples->ops.add(t1, 1);
    } catch (const std::exception& e) {
      ctx_.ledger->fail(std::string("fed_files read: ") + e.what());
    }
  }

  void one_op(Rng& rng, Tracer::Buffer& spans, OpSamples* samples,
              const char* span) {
    if (rng.below(kWriteOneIn) == 0) {
      write_op(rng, spans, samples, span);
    } else {
      read_op(rng, spans, samples, span);
    }
  }

  std::uint64_t loop(Clock::time_point start, double seconds, Tracer* tracer,
                     OpSamples* samples) {
    OpSamples local(start, seconds);
    OpSamples* out = samples ? samples : &local;
    Tracer::Buffer spans(tracer);
    Rng rng(ctx_.seed, 400 + loops_++);
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::uint64_t ops = 0;
    while (Clock::now() < stop) {
      one_op(rng, spans, out, "client.op");
      ++ops;
    }
    return ops;
  }

  Context ctx_;
  std::unique_ptr<discovery::StationServer> station_;
  std::unique_ptr<db::Store> discovery_store_;
  std::unique_ptr<discovery::DiscoveryServer> discovery_;
  std::unique_ptr<core::ClarensServer> head_;
  std::vector<std::unique_ptr<core::ClarensServer>> nodes_;
  std::unique_ptr<client::RoutedClient> routed_;
  client::ClientOptions base_;
  std::string root_;
  std::vector<FileState> files_;
  std::vector<int> rank_;
  std::vector<double> zipf_cdf_;
  double ring_ready_s_ = 0;
  int setups_ = 0;
  std::uint64_t loops_ = 0;
  cpu_set_t saved_affinity_{};
  bool pinned_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_fed_files(const Context& context) {
  return std::make_unique<FedFiles>(context);
}

}  // namespace perfbench
