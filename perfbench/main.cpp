// The Clarens benchmark: one process runs one seeded workload against
// servers it starts itself, checks every reply, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   clarens_perfbench --workload rpc_hot|login_churn|fed_files --seed N
//                     --seconds S --trace 0|1 [--state-dir DIR]
//                     [--inject-fault]
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 is the separate traced run that reports per-layer metrics:
// spans around calls into each layer's public functions, kept in memory
// and written to DIR/trace-<workload>.jsonl at exit. A traced run reports
// every layer; layers its own workload does not cross are probed on a
// small instance of the workload that does (so fed_files carries tls.*
// from a small login_churn probe, and so on).
// --inject-fault corrupts one expected value so that the correctness
// checks must fail; the self-check uses it.
#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "util/logging.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 9;
/// A run that has not finished by then is stuck; it exits without a
/// result.
constexpr int kWatchdogSeconds = 170;

const char* const kEndToEnd[] = {"setup_s",      "ops_per_s",    "call_p50_us",
                                 "call_p99_us",  "heavy_p50_us", "heavy_p99_us",
                                 "rss_mb"};

const char* const kPerLayer[] = {
    "http.parse_us",          "rpc.decode_us",
    "rpc.dispatch_us",        "rpc.encode_us",
    "core.session_check_us",  "core.acl_check_us",
    "http.inline_frac",       "net.transport_us",
    "net.connect_us",         "gen.late_p99_us",
    "tls.handshake_us",       "tls.call_overhead_us",
    "pki.chain_verify_us",    "core.session_create_us",
    "core.session_destroy_us", "db.put_us",
    "db.head_ops_per_op",     "federation.head_redirect_us",
    "federation.node_replay_us", "federation.commit_notify_us",
    "federation.mint_us",     "federation.route_us",
    "federation.ticket_verify_us", "federation.redirects_per_op",
    "federation.retries_per_op", "db.node_ops_per_op",
    "core.file_read_us",      "core.file_write_us",
    "client.pool_idle",       "federation.fsck_replicas_per_s",
    "discovery.ring_ready_s", "proc.threads",
    "proc.cpu_us_per_op",     "trace.ops_per_s",
    "trace.overhead_frac",    "trace.unaccounted_frac"};

/// The end-to-end metrics of the issue, printed for humans per workload.
const char* const kTableNames[] = {
    "setup_s",      "ops_per_s",    "call_p50_us",  "call_p99_us",
    "login_p50_us", "login_p99_us", "write_p50_us", "write_p99_us",
    "read_p50_us",  "read_p99_us",  "goodput_mb_s", "failed_frac",
    "rss_mb"};

const char* const kWorkloads[] = {"rpc_hot", "login_churn", "fed_files"};

std::unique_ptr<Workload> make(const std::string& name, const Context& ctx) {
  if (name == "rpc_hot") return make_rpc_hot(ctx);
  if (name == "login_churn") return make_login_churn(ctx);
  if (name == "fed_files") return make_fed_files(ctx);
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_fault = false;
  std::string state_dir = ".bench_build/perfbench-run";
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* flag = argv[i];
    const char* v = nullptr;
    if (!std::strcmp(flag, "--inject-fault")) {
      args.inject_fault = true;
      continue;
    }
    if (!(v = value())) return false;
    if (!std::strcmp(flag, "--workload")) {
      args.workload = v;
    } else if (!std::strcmp(flag, "--seed")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (!std::strcmp(flag, "--seconds")) {
      args.seconds = std::atof(v);
    } else if (!std::strcmp(flag, "--trace")) {
      args.trace = std::atoi(v) != 0;
    } else if (!std::strcmp(flag, "--state-dir")) {
      args.state_dir = v;
    } else {
      return false;
    }
  }
  return args.seconds > 0 &&
         std::find(std::begin(kWorkloads), std::end(kWorkloads),
                   args.workload) != std::end(kWorkloads);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_metric(const std::string& name, const Metric* m) {
  if (m) {
    std::printf("  %-32s %16.6g %-6s n=%llu\n", name.c_str(), m->value,
                m->unit.c_str(), static_cast<unsigned long long>(m->samples));
  } else {
    std::printf("  %-32s %16s\n", name.c_str(), "n/a");
  }
}

/// Prints the sample counts, then the result line; returns the exit code.
int finish(const Ledger& ledger, const Metrics& metrics,
           const char* const* names, std::size_t count) {
  std::string samples = "{", result = "{";
  bool complete = true;
  for (std::size_t i = 0; i < count; ++i) {
    auto it = metrics.find(names[i]);
    if (it == metrics.end()) {
      std::fprintf(stderr, "missing metric %s\n", names[i]);
      complete = false;
      continue;
    }
    const char* sep = samples.size() > 1 ? ", " : "";
    samples += sep + std::string("\"") + names[i] + "\": " +
               std::to_string(it->second.samples);
    result += sep + std::string("\"") + names[i] + "\": {\"value\": " +
              json_number(it->second.value) + ", \"unit\": \"" +
              it->second.unit + "\"}";
  }
  for (const std::string& message : ledger.messages()) {
    std::printf("# check failed: %s\n", message.c_str());
  }
  const bool correct = complete && ledger.failed() == 0 &&
                       ledger.attempted() > 0;
  std::printf("# samples %s}\n", samples.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()),
              result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int run_end_to_end(const Args& args, const Context& ctx, const Ledger& ledger) {
  std::unique_ptr<Workload> workload = make(args.workload, ctx);
  Samples setups;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) workload->teardown();
    const Clock::time_point t0 = Clock::now();
    workload->setup(/*full=*/true);
    setups.add(seconds_between(t0, Clock::now()));
  }
  workload->warm();
  Metrics e2e, table;
  workload->measure(args.seconds, e2e, table);
  workload->teardown();
  e2e["setup_s"] = {setups.median(), "s", setups.size()};
  e2e["rss_mb"] = {peak_rss_mb(), "MB", 1};
  table["setup_s"] = e2e["setup_s"];
  table["rss_mb"] = e2e["rss_mb"];
  table["failed_frac"] = {
      ledger.attempted() ? static_cast<double>(ledger.failed()) /
                               static_cast<double>(ledger.attempted())
                         : 0,
      "frac", ledger.attempted()};

  std::printf("# %s seed=%llu seconds=%g end-to-end (tracing off)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds);
  for (const char* name : kTableNames) {
    auto it = table.find(name);
    print_metric(name, it == table.end() ? nullptr : &it->second);
  }
  for (const auto& [name, m] : table) {
    if (std::find_if(std::begin(kTableNames), std::end(kTableNames),
                     [&](const char* n) { return name == n; }) ==
        std::end(kTableNames)) {
      print_metric(name, &m);
    }
  }
  return finish(ledger, e2e, kEndToEnd, std::size(kEndToEnd));
}

int run_traced(const Args& args, const Context& ctx, const Ledger& ledger) {
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::string> sources;
  auto new_tracer = [&](const std::string& source) -> Tracer& {
    tracers.push_back(std::make_unique<Tracer>());
    sources.push_back(source);
    return *tracers.back();
  };

  Metrics layers;
  {
    std::unique_ptr<Workload> workload = make(args.workload, ctx);
    workload->setup(/*full=*/true);
    workload->warm();
    // Untraced and traced slices alternate so drift cancels; the ratio of
    // their rates is the tracing overhead.
    Tracer& window_spans = new_tracer(args.workload + ".window");
    const double slice = args.seconds / 4;
    double plain_ops = 0, traced_ops = 0;
    const double cpu0 = process_cpu_seconds();
    for (int i = 0; i < 4; ++i) {
      const bool traced = i % 2 == 1;
      double ops = static_cast<double>(
          workload->window(slice, traced ? &window_spans : nullptr));
      (traced ? traced_ops : plain_ops) += ops;
    }
    const double cpu = process_cpu_seconds() - cpu0;
    const double plain_rate = plain_ops / (2 * slice);
    const double traced_rate = traced_ops / (2 * slice);
    layers["trace.ops_per_s"] = {traced_rate, "1/s",
                                 static_cast<std::uint64_t>(traced_ops)};
    layers["trace.overhead_frac"] = {
        plain_rate > 0 ? 1 - traced_rate / plain_rate : 0, "frac",
        static_cast<std::uint64_t>(plain_ops + traced_ops)};
    layers["proc.cpu_us_per_op"] = {cpu * 1e6 / (plain_ops + traced_ops),
                                    "us",
                                    static_cast<std::uint64_t>(plain_ops +
                                                               traced_ops)};
    layers["proc.threads"] = {static_cast<double>(thread_count()), "count", 1};
    workload->probe(new_tracer(args.workload + ".probe"), layers);
    workload->teardown();
  }
  for (const char* other : kWorkloads) {
    if (args.workload == other) continue;
    std::unique_ptr<Workload> workload = make(other, ctx);
    workload->setup(/*full=*/false);
    workload->warm();
    Metrics theirs;
    workload->probe(new_tracer(std::string(other) + ".probe"), theirs);
    workload->teardown();
    for (auto& [name, m] : theirs) layers.emplace(name, m);
  }

  const std::string trace_path =
      args.state_dir + "/trace-" + args.workload + ".jsonl";
  std::size_t spans = 0;
  for (std::size_t i = 0; i < tracers.size(); ++i) {
    spans += tracers[i]->size();
    if (!tracers[i]->write(trace_path, sources[i], i > 0)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
  }

  std::printf("# %s seed=%llu seconds=%g traced run: %zu spans in %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, spans, trace_path.c_str());
  for (const char* name : kPerLayer) {
    auto it = layers.find(name);
    print_metric(name, it == layers.end() ? nullptr : &it->second);
  }
  return finish(ledger, layers, kPerLayer, std::size(kPerLayer));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: clarens_perfbench --workload rpc_hot|login_churn|"
                 "fed_files --seed N --seconds S --trace 0|1 "
                 "[--state-dir DIR] [--inject-fault]\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  clarens::util::set_log_level(clarens::util::LogLevel::Error);

  std::mutex watchdog_mutex;
  std::condition_variable watchdog_cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(watchdog_mutex);
    if (!watchdog_cv.wait_for(lock, std::chrono::seconds(kWatchdogSeconds),
                              [&] { return done; })) {
      std::fprintf(stderr, "clarens_perfbench: run exceeded %d s\n",
                   kWatchdogSeconds);
      std::_Exit(3);
    }
  });

  int code = 1;
  Ledger ledger;
  const std::string work_dir =
      args.state_dir + "/work-" + std::to_string(::getpid());
  try {
    std::filesystem::create_directories(work_dir);
    // Credentials are fixtures of the benchmark, made before any timing.
    clarens::bench::BenchPki::instance();
    Context ctx{args.seed, work_dir, &ledger, args.inject_fault};
    code = args.trace ? run_traced(args, ctx, ledger)
                      : run_end_to_end(args, ctx, ledger);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clarens_perfbench: %s\n", e.what());
    code = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(work_dir, ignored);
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex);
    done = true;
  }
  watchdog_cv.notify_all();
  watchdog.join();
  return code;
}
