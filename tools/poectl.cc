// poectl: command-line front-end for building, inspecting, querying, and
// live-upgrading expert pools.
//
// Commands are declared in one registry (kCommands): each entry carries
// its name, synopsis, summary, positional-argument bounds, and allowed
// flags, and the help text is GENERATED from the table — adding a command
// is one entry plus one handler, and usage can never drift from dispatch.
//
// Invocation grammar (uniform across every command):
//   poectl <command> [positionals...] [--flag=value | --flag]...
// Flags may appear anywhere after the command name. Exit codes are
// uniform: 0 = success, 1 = operational failure (bad pool file, failed
// query, transport error), 2 = usage error (unknown command, bad
// arguments, unknown flag).
//
// The pool lifecycle family (`poectl pool <verb>`) groups the mutation-
// oriented verbs; `pool create`, `pool info`, and `pool fsck` are the
// registry-level names of build/info/fsck (both spellings work), and
// `pool upgrade` is the zero-downtime generation swap described in
// docs/POOL_LIFECYCLE.md.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>  // kill() — <csignal> only guarantees raise()

#include "cluster/cluster_node.h"
#include "cluster/peer_rpc.h"
#include "core/expert_pool.h"
#include "core/query_service.h"
#include "core/serialization.h"
#include "core/versioned_pool.h"
#include "data/synthetic.h"
#include "distill/specialize.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "models/cost.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "serve/inference_server.h"
#include "util/fault.h"
#include "util/parallel_for.h"
#include "util/stopwatch.h"

namespace poe {
namespace {

// ------------------------------------------------------------ arg parsing

/// The one strict integer parser: all of `text` is a base-10 integer in
/// [lo, hi]. Empty text, leading blanks and trailing junk are refused.
bool ParseInt(const std::string& text, long lo, long hi, int* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  *out = static_cast<int>(v);
  return true;
}

/// A usage error: names the argument and exits 2.
[[noreturn]] void BadArgument(const std::string& what,
                              const std::string& text) {
  std::fprintf(stderr, "poectl: bad %s '%s'\n", what.c_str(), text.c_str());
  std::exit(2);
}

int IntOrExit(const std::string& text, const std::string& what) {
  int v = 0;
  if (!ParseInt(text, INT_MIN, INT_MAX, &v)) BadArgument(what, text);
  return v;
}

/// Everything after the command name, split into positionals and
/// `--name[=value]` flags. Numeric accessors exit 2 on a malformed value.
struct ParsedArgs {
  std::vector<std::string> pos;
  std::map<std::string, std::string> flags;

  bool HasFlag(const std::string& name) const {
    return flags.find(name) != flags.end();
  }
  int IntFlag(const std::string& name, int fallback) const {
    auto it = flags.find(name);
    return it != flags.end() ? IntOrExit(it->second, "--" + name) : fallback;
  }
  double DoubleFlag(const std::string& name, double fallback) const {
    auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    const std::string& text = it->second;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        errno != 0 || *end != '\0' || !std::isfinite(v)) {
      BadArgument("--" + name, text);
    }
    return v;
  }
  /// Positional `i` as int, or `fallback` when absent.
  int IntPos(size_t i, int fallback) const {
    return i < pos.size()
               ? IntOrExit(pos[i], "argument " + std::to_string(i + 1))
               : fallback;
  }
};

struct CommandSpec {
  const char* name;      ///< "build" or a two-word family name "pool upgrade"
  const char* synopsis;  ///< positional/flag synopsis for the help text
  const char* summary;   ///< one-line description
  size_t min_pos;
  size_t max_pos;
  std::vector<std::string> flags;  ///< allowed flag names
  std::function<int(const ParsedArgs&)> run;
};

/// Comma-separated task ids; exits 2 on a malformed id.
std::vector<int> ParseTaskList(const std::string& arg) {
  std::vector<int> tasks;
  std::string current;
  for (char c : arg + ",") {
    if (c == ',') {
      if (!current.empty()) tasks.push_back(IntOrExit(current, "task id"));
      current.clear();
    } else {
      current += c;
    }
  }
  return tasks;
}

/// Loads a pool or prints the error; the `Result` carries the outcome.
Result<ExpertPool> LoadPoolOrComplain(const std::string& path) {
  auto loaded = ExpertPool::Load(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
  }
  return loaded;
}

// --------------------------------------------------------------- handlers

int CmdBuild(const ParsedArgs& a) {
  const std::string path = a.pos[0];
  const int tasks = a.IntPos(1, 8);
  const int classes = a.IntPos(2, 4);
  const int epochs = a.IntPos(3, 10);
  const int seed = a.IntFlag("seed", 1);

  SyntheticDataConfig dc;
  dc.num_tasks = tasks;
  dc.classes_per_task = classes;
  dc.train_per_class = 20;
  dc.test_per_class = 8;
  dc.noise = 0.9f;
  SyntheticDataset data = GenerateSyntheticDataset(dc);
  std::printf("dataset: %d tasks x %d classes\n", tasks, classes);

  // The seed varies oracle init and distillation sampling: two builds with
  // different seeds over the same dataset yield content-distinct experts —
  // the cheap way to produce a "changed" pool for upgrade testing.
  Rng rng(seed);
  WrnConfig oracle_cfg;
  oracle_cfg.kc = 2.0;
  oracle_cfg.ks = 2.0;
  oracle_cfg.num_classes = dc.num_classes();
  Wrn oracle(oracle_cfg, rng);
  TrainOptions opts;
  opts.epochs = epochs;
  opts.lr = 0.08f;
  std::printf("training oracle %s (%d epochs)...\n",
              oracle_cfg.ToString().c_str(), epochs);
  Stopwatch sw;
  TrainScratch(oracle, data.train, opts);
  std::printf("oracle trained in %.1fs, test acc %.1f%%\n",
              sw.ElapsedSeconds(),
              100 * EvaluateAccuracy(ModelLogits(oracle), data.test));

  PoeBuildConfig build;
  build.library_config = oracle_cfg;
  build.library_config.kc = 1.0;
  build.library_config.ks = 1.0;
  build.expert_ks = 0.25;
  build.library_options = opts;
  build.expert_options = opts;
  PoeBuildStats stats;
  ExpertPool pool =
      ExpertPool::Preprocess(ModelLogits(oracle), data, build, rng, &stats);
  std::printf("preprocessing: library %.1fs, %d experts %.1fs\n",
              stats.library_seconds, pool.num_experts(),
              stats.experts_seconds);

  Status s = pool.Save(path);
  if (!s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("pool written to %s\n", path.c_str());
  return 0;
}

int CmdCalibrate(const ParsedArgs& a) {
  const std::string in_path = a.pos[0];
  const std::string out_path = a.pos[1];
  const int num_samples = a.IntPos(2, 64);
  const int hw = a.IntPos(3, 8);
  auto loaded = LoadPoolOrComplain(in_path);
  if (!loaded.ok()) return 1;
  ExpertPool pool = std::move(loaded).ValueOrDie();
  Rng rng(11);
  Tensor samples = Tensor::Randn(
      {num_samples, pool.library_config().in_channels, hw, hw}, rng);
  Stopwatch sw;
  Status s = pool.CalibrateActivations(samples);
  if (!s.ok()) {
    std::fprintf(stderr, "calibration failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("calibrated activation scales over %d samples in %.1fms\n",
              num_samples, sw.ElapsedMillis());
  s = pool.SetServingPrecision(ServingPrecision::kInt8);
  if (!s.ok()) {
    std::fprintf(stderr, "int8 conversion failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  s = pool.Save(out_path);
  if (!s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("int8 pool (static scales, %lld weight bytes) written to %s\n",
              static_cast<long long>(pool.ServingBytes()), out_path.c_str());
  return 0;
}

int CmdInfo(const ParsedArgs& a) {
  const std::string path = a.pos[0];
  auto loaded = LoadPoolOrComplain(path);
  if (!loaded.ok()) return 1;
  ExpertPool pool = std::move(loaded).ValueOrDie();
  const bool int8 = pool.serving_precision() == ServingPrecision::kInt8;
  std::printf("pool: %s (serving %s, %lld weight bytes)\n", path.c_str(),
              int8 ? "int8" : "f32",
              static_cast<long long>(pool.ServingBytes()));
  std::printf("library: %s (%lld params, %lld bytes)\n",
              pool.library_config().ToString().c_str(),
              static_cast<long long>(pool.library()->NumParams()),
              static_cast<long long>(HeldStateBytes(*pool.library())));
  TablePrinter table({"Expert", "Classes", "Params", "Bytes"});
  for (int t = 0; t < pool.num_experts(); ++t) {
    std::string classes;
    for (int c : pool.hierarchy().task_classes(t)) {
      classes += (classes.empty() ? "" : ",") + std::to_string(c);
    }
    table.AddRow({std::to_string(t), classes,
                  std::to_string(pool.expert(t)->NumParams()),
                  TablePrinter::HumanBytes(HeldStateBytes(*pool.expert(t)))});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int CmdQuery(const ParsedArgs& a) {
  auto loaded = LoadPoolOrComplain(a.pos[0]);
  if (!loaded.ok()) return 1;
  ExpertPool pool = std::move(loaded).ValueOrDie();
  std::vector<int> tasks = ParseTaskList(a.pos[1]);
  Stopwatch sw;
  auto model = pool.Query(tasks);
  const double ms = sw.ElapsedMillis();
  if (!model.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  TaskModel m = std::move(model).ValueOrDie();
  std::printf("assembled M(Q) in %.3fms: %d branches, %zu classes, %lld "
              "params\n",
              ms, m.num_branches(), m.global_classes().size(),
              static_cast<long long>(m.NumParams()));
  return 0;
}

/// One inference worker per core the net event loops leave free.
int MachineInferenceWorkers(int net_loops) {
  return InferenceWorkersFor(
      static_cast<int>(std::thread::hardware_concurrency()), net_loops);
}

/// The server's thread split, on its own line after the address line
/// (which scripts parse), then flushed.
void PrintServeThreads(int workers, int net_loops) {
  std::printf("serve threads: %d inference worker%s, %d net loop%s, "
              "intra-op %d\n",
              workers, workers == 1 ? "" : "s", net_loops,
              net_loops == 1 ? "" : "s", NumThreads());
  std::fflush(stdout);
}

int CmdFsck(const ParsedArgs& a) {
  const std::string path = a.pos[0];
  auto checked = FsckExpertPool(path);
  if (!checked.ok()) {
    std::fprintf(stderr, "fsck failed: %s\n",
                 checked.status().ToString().c_str());
    return 1;
  }
  const PoolFsckReport report = std::move(checked).ValueOrDie();
  std::printf("pool: %s (format v%u)\n", path.c_str(), report.version);
  TablePrinter table({"Section", "Tag", "Bytes", "CRC", "Detail"});
  for (const PoolSectionReport& section : report.sections) {
    char tag[16];
    std::snprintf(tag, sizeof(tag), "0x%04X", section.tag);
    table.AddRow({section.name, tag,
                  TablePrinter::HumanBytes(section.bytes),
                  section.crc_ok ? "ok" : "BAD", section.detail});
  }
  std::printf("%s", table.ToString().c_str());
  if (!report.ok) {
    std::fprintf(stderr, "fsck: CORRUPT: %s\n", report.error.c_str());
    return 1;
  }
  std::printf("fsck: clean (%zu sections verified)\n",
              report.sections.size());
  return 0;
}

int CmdPoolUpgrade(const ParsedArgs& a) {
  const std::string old_path = a.pos[0];
  const std::string new_path = a.pos[1];
  auto old_loaded = LoadPoolOrComplain(old_path);
  if (!old_loaded.ok()) return 1;
  auto new_loaded = LoadPoolOrComplain(new_path);
  if (!new_loaded.ok()) return 1;

  // Dry-run the swap through the same machinery a live service uses, so
  // the printed diff is EXACTLY what an in-process UpgradePool would see
  // (content CRCs, precision policy, adoption — all of it).
  VersionedPool versioned(std::move(old_loaded).ValueOrDie());
  auto diff = versioned.Swap(std::move(new_loaded).ValueOrDie());
  if (!diff.ok()) {
    std::fprintf(stderr, "pool upgrade: %s\n",
                 diff.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", diff.ValueOrDie().ToString().c_str());

  if (a.HasFlag("apply")) {
    // rename(2) is atomic on the same filesystem: readers see the old
    // bytes or the new bytes, never a torn file.
    if (::rename(new_path.c_str(), old_path.c_str()) != 0) {
      std::fprintf(stderr, "pool upgrade: rename %s -> %s: %s\n",
                   new_path.c_str(), old_path.c_str(), std::strerror(errno));
      return 1;
    }
    std::printf("applied: %s -> %s\n", new_path.c_str(), old_path.c_str());
  }
  if (a.HasFlag("pid")) {
    const int pid = a.IntFlag("pid", 0);
    if (pid <= 0) {
      std::fprintf(stderr, "pool upgrade: bad --pid value\n");
      return 2;
    }
    if (::kill(pid, SIGHUP) != 0) {
      std::fprintf(stderr, "pool upgrade: kill(%d, SIGHUP): %s\n", pid,
                   std::strerror(errno));
      return 1;
    }
    std::printf("sent SIGHUP to %d (net-serve reloads its pool file)\n", pid);
  }
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_reload_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }
void HandleReloadSignal(int) { g_reload_requested = 1; }

int CmdNetServe(const ParsedArgs& a) {
  const std::string path = a.pos[0];
  const int port = a.IntPos(1, 0);
  const int net_workers = std::max(1, a.IntPos(2, 2));
  auto loaded = LoadPoolOrComplain(path);
  if (!loaded.ok()) return 1;
  ModelQueryService service(std::move(loaded).ValueOrDie(),
                            /*cache_capacity=*/32);
  InferenceServer::Options sopts;
  sopts.num_workers = MachineInferenceWorkers(net_workers);
  sopts.queue_capacity = 256;
  InferenceServer server(&service, sopts);

  NetServer::Options nopts;
  nopts.port = port;
  nopts.num_workers = net_workers;
  NetServer net(&server, nopts);
  Status started = net.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "net-serve: %s\n", started.ToString().c_str());
    return 1;
  }
  // Handlers go in before the port is announced: a supervisor may signal
  // as soon as it reads the address line, and a SIGTERM that beat the
  // handler would kill the server instead of draining it.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  // SIGHUP = reload the pool FILE and hot-swap it in as the next
  // generation, without dropping a single connection or in-flight request
  // (`poectl pool upgrade old new --apply --pid=$SRV` does rename+signal).
  std::signal(SIGHUP, HandleReloadSignal);
  std::printf("listening on 127.0.0.1:%d\n", net.port());
  PrintServeThreads(sopts.num_workers, net_workers);
  // Right after the announcement (a delay armed here holds the window
  // open for the signal test).
  (void)PoeFaultHit("net_serve.ready");

  while (g_stop_requested == 0) {
    if (g_reload_requested != 0) {
      g_reload_requested = 0;
      auto next = ExpertPool::Load(path);
      if (!next.ok()) {
        std::fprintf(stderr, "reload: %s\n",
                     next.status().ToString().c_str());
      } else {
        const int64_t invalidated_before =
            service.serve_stats().cache_keys_invalidated;
        auto diff = service.UpgradePool(std::move(next).ValueOrDie());
        if (!diff.ok()) {
          std::fprintf(stderr, "upgrade failed: %s\n",
                       diff.status().ToString().c_str());
        } else {
          const int64_t invalidated =
              service.serve_stats().cache_keys_invalidated -
              invalidated_before;
          std::printf("upgraded to generation %llu: %s, %lld cache keys "
                      "invalidated\n",
                      static_cast<unsigned long long>(service.generation()),
                      diff.ValueOrDie().ToString().c_str(),
                      static_cast<long long>(invalidated));
          std::fflush(stdout);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Front-end first (no new submissions, in-flight responses flushed),
  // then the inference server drains.
  net.Stop();
  server.Shutdown();
  const NetStats n = net.stats();
  const ServeStats s = server.stats();
  std::printf("shutdown: %lld frames served (%lld bytes in, %lld out), "
              "%lld protocol errors, %lld conns; %lld submitted = "
              "%lld completed + %lld rejected + %lld expired\n",
              static_cast<long long>(n.responses_sent),
              static_cast<long long>(n.bytes_in),
              static_cast<long long>(n.bytes_out),
              static_cast<long long>(n.protocol_errors),
              static_cast<long long>(n.conns_accepted),
              static_cast<long long>(s.submitted),
              static_cast<long long>(s.completed),
              static_cast<long long>(s.rejected),
              static_cast<long long>(s.deadline_expired));
  std::printf("generation %llu (%lld swapped), %lld cache keys invalidated, "
              "%lld stale-generation pins, %lld assembly retries\n",
              static_cast<unsigned long long>(s.generation),
              static_cast<long long>(s.generations_swapped),
              static_cast<long long>(s.cache_keys_invalidated),
              static_cast<long long>(s.stale_generation_queries),
              static_cast<long long>(s.assembly_retries));
  return 0;
}

/// Parses "host:port" (or a bare port, host defaulting to 127.0.0.1);
/// false for a port outside 1..65535.
bool ParseHostPort(const std::string& target, std::string* host, int* port) {
  *host = "127.0.0.1";
  const size_t colon = target.rfind(':');
  if (colon != std::string::npos) *host = target.substr(0, colon);
  return ParseInt(colon == std::string::npos ? target
                                             : target.substr(colon + 1),
                  1, kMaxPort, port);
}

int CmdNetQuery(const ParsedArgs& a) {
  const std::vector<int> tasks = ParseTaskList(a.pos[1]);
  const int hw = a.IntPos(2, 8);
  std::string host;
  int port = 0;
  if (!ParseHostPort(a.pos[0], &host, &port)) {
    std::fprintf(stderr, "net-query: bad target '%s'\n", a.pos[0].c_str());
    return 2;
  }

  NetClient client;
  Status s = client.Connect(host, port);
  if (!s.ok()) {
    std::fprintf(stderr, "net-query: %s\n", s.ToString().c_str());
    return 1;
  }
  Rng rng(5);
  Tensor probe = Tensor::Randn({1, 3, hw, hw}, rng);
  Stopwatch sw;
  auto r = client.Query(tasks, probe);
  const double rtt_ms = sw.ElapsedMillis();
  if (!r.ok()) {
    std::fprintf(stderr, "net-query: transport: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }
  const WireResponse& res = r.ValueOrDie();
  if (!res.status.ok()) {
    std::fprintf(stderr, "net-query: server: %s\n",
                 res.status.ToString().c_str());
    return 1;
  }
  std::string preds;
  for (int32_t p : res.predictions) {
    preds += (preds.empty() ? "" : ",") + std::to_string(p);
  }
  std::printf("ok: %zu classes, predictions [%s], precision %s%s, "
              "generation %llu, rtt %.3fms (queue %.3fms, server %.3fms)\n",
              res.global_classes.size(), preds.c_str(),
              res.precision == ServingPrecision::kInt8 ? "int8" : "f32",
              res.trunk_degraded ? ", trunk degraded" : "",
              static_cast<unsigned long long>(res.generation), rtt_ms,
              res.queue_ms, res.total_ms);
  return 0;
}

/// Longest a `net-load` client waits on one send or receive.
constexpr double kLoadIoTimeoutMs = 10000.0;
/// Connections `net-load` drives; connection t queries tasks {t, t+1},
/// so the pool needs at least kLoadConns + 1 tasks.
constexpr int kLoadConns = 2;
/// Side of the square probe image every `net-load` request sends.
constexpr int kLoadHw = 8;

/// Outcome counters of a `net-load` run, shared by its client threads.
struct LoadTally {
  std::atomic<int64_t> ok{0};       ///< answered with an OK status
  std::atomic<int64_t> allowed{0};  ///< failed with an --allow'ed status
  std::atomic<int64_t> errors{0};   ///< any other failure, transport included
  std::mutex mu;
  std::string first_error;  ///< what the first error was; guarded by mu

  void Error(const std::string& what) {
    errors.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    if (first_error.empty()) first_error = what;
  }
};

/// Drives kLoadConns connections at the target for `seconds`, each
/// keeping `window` requests in flight (window 1 is a closed loop: one
/// round trip at a time). Responses are matched by request_id, since the
/// server answers in completion order. The two connections' task pairs
/// overlap in task 1, so the load exercises the model cache and expert
/// sharing.
void RunLoad(const std::string& host, int port, int window, double seconds,
             const std::vector<StatusCode>& allow, LoadTally* tally) {
  std::atomic<bool> stop{false};
  auto allowed = [&allow](StatusCode code) {
    return std::find(allow.begin(), allow.end(), code) != allow.end();
  };
  std::vector<std::thread> clients;
  for (int t = 0; t < kLoadConns; ++t) {
    clients.emplace_back([&, t] {
      NetClient client;
      // A server that stops answering fails the run instead of hanging it.
      Status connected = client.Connect(host, port);
      if (connected.ok()) connected = client.SetIoTimeout(kLoadIoTimeoutMs);
      if (!connected.ok()) {
        tally->Error("connect: " + connected.ToString());
        return;
      }
      Rng rng(100 * window + t);
      const Tensor probe = Tensor::Randn({1, 3, kLoadHw, kLoadHw}, rng);
      const std::vector<int> tasks = {t, t + 1};
      std::set<uint64_t> inflight;
      std::string broken;  // why the connection failed
      auto send_one = [&] {
        auto id = client.Send(tasks, probe);
        if (!id.ok()) {
          broken = "send: " + id.status().ToString();
          return false;
        }
        inflight.insert(id.ValueOrDie());
        return true;
      };
      auto retire_one = [&] {
        auto r = client.Receive();
        if (!r.ok()) {
          broken = "receive: " + r.status().ToString();
          return false;
        }
        const WireResponse& res = r.ValueOrDie();
        // An id that answers no request sent is a protocol failure.
        if (inflight.erase(res.request_id) == 0) {
          broken = "unmatched request_id " + std::to_string(res.request_id);
          return false;
        }
        if (res.status.ok()) {
          tally->ok.fetch_add(1);
        } else if (allowed(res.status.code())) {
          tally->allowed.fetch_add(1);
        } else {
          tally->Error("response status " + res.status.ToString());
        }
        return true;
      };
      bool alive = true;
      for (int i = 0; i < window && alive; ++i) alive = send_one();
      while (alive && !stop.load(std::memory_order_relaxed)) {
        alive = retire_one() && send_one();
      }
      // Drain what is still in flight so every request is accounted.
      while (alive && !inflight.empty()) alive = retire_one();
      if (!alive) tally->Error(broken);
    });
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1e3)));
  stop.store(true);
  for (std::thread& c : clients) c.join();
}

int CmdNetLoad(const ParsedArgs& a) {
  std::string host;
  int port = 0;
  if (!ParseHostPort(a.pos[0], &host, &port)) {
    std::fprintf(stderr, "net-load: bad target '%s'\n", a.pos[0].c_str());
    return 2;
  }
  const double seconds = a.DoubleFlag("seconds", 1.0);
  if (seconds <= 0) {
    std::fprintf(stderr, "net-load: --seconds must be positive\n");
    return 2;
  }
  // The failure whitelist names statuses a server response carries; the
  // kill-a-node smoke allows exactly the cluster statuses. A transport
  // failure (refused or broken connection, 10 s of silence, an unmatched
  // request_id) is always an error, and so is a run where nothing
  // resolves at all (a hang).
  static const std::map<std::string, StatusCode> kAllowable = {
      {"unavailable", StatusCode::kUnavailable},
      {"deadline_exceeded", StatusCode::kDeadlineExceeded},
      {"resource_exhausted", StatusCode::kResourceExhausted},
      {"io_error", StatusCode::kIoError},
  };
  std::vector<StatusCode> allow;
  std::string name;
  for (char c : (a.HasFlag("allow") ? a.flags.at("allow") : "") + ",") {
    if (c != ',') {
      name += c;
      continue;
    }
    if (name.empty()) continue;
    auto it = kAllowable.find(name);
    if (it == kAllowable.end()) {
      std::fprintf(stderr, "net-load: bad --allow status '%s' (known: "
                   "unavailable, deadline_exceeded, resource_exhausted, "
                   "io_error)\n", name.c_str());
      return 2;
    }
    allow.push_back(it->second);
    name.clear();
  }

  // A closed loop, then an open loop of 8 pipelined requests per
  // connection: the shape a fan-in front-end produces.
  LoadTally total;
  for (int window : {1, 8}) RunLoad(host, port, window, seconds, allow, &total);
  // Liveness: something must have resolved. A whitelisted failure is a
  // resolved request (the kill smoke's point); silence is a hang.
  if ((total.ok == 0 && total.allowed == 0) || total.errors > 0) {
    const std::string first = total.errors > 0 ? total.first_error
                                               : "nothing resolved";
    std::fprintf(stderr, "net-load FAILED: %lld errors, %lld ok, %lld "
                 "whitelisted; first error: %s\n",
                 static_cast<long long>(total.errors),
                 static_cast<long long>(total.ok),
                 static_cast<long long>(total.allowed), first.c_str());
    return 1;
  }
  std::printf("net-load ok: %lld requests, 0 errors, %lld whitelisted "
              "failures\n", static_cast<long long>(total.ok),
              static_cast<long long>(total.allowed));
  return 0;
}

// ------------------------------------------------------- cluster family

/// Parses `--nodes=id:port[,...]` (host 127.0.0.1) or `id:host:port`.
/// Every node starts ONLINE; the state machine takes over from there.
/// Ports outside 1..65535 are refused, 0 included: peers in other
/// processes could never learn an ephemeral port.
bool ParseClusterNodes(const std::string& spec,
                       std::vector<NodeInfo>* nodes) {
  std::string entry;
  for (char c : spec + ",") {
    if (c != ',') {
      entry += c;
      continue;
    }
    if (entry.empty()) continue;
    std::vector<std::string> fields;
    std::string field;
    for (char f : entry + ":") {
      if (f == ':') {
        fields.push_back(field);
        field.clear();
      } else {
        field += f;
      }
    }
    if (fields.size() != 2 && fields.size() != 3) return false;
    NodeInfo node;
    node.host = fields.size() == 3 ? fields[1] : "127.0.0.1";
    if (!ParseInt(fields[0], INT_MIN, INT_MAX, &node.node_id) ||
        !ParseInt(fields.back(), 1, kMaxPort, &node.port)) {
      return false;
    }
    node.state = NodeState::kOnline;
    nodes->push_back(node);
    entry.clear();
  }
  return !nodes->empty();
}

/// One membership-ping round trip. An epoch-0 `view` is a pure status
/// probe (the receiver adopts nothing); a higher-epoch view is a pushed
/// transition the receiver merges. Either way the reply is the target's
/// post-merge view.
Result<MembershipView> PeerViewExchange(const std::string& host, int port,
                                        const MembershipView& view) {
  NetClient client;
  POE_RETURN_NOT_OK(client.Connect(host, port));
  POE_RETURN_NOT_OK(client.SetIoTimeout(2000.0));
  WireHeader header;
  std::vector<uint8_t> body;
  POE_RETURN_NOT_OK(client.Call(EncodeViewFrame(1, kWireTypePing, view),
                                kWireTypePingReply, &header, &body));
  MembershipView reply;
  POE_RETURN_NOT_OK(DecodeViewBody(body.data(), body.size(), &reply));
  return reply;
}

int CmdClusterServe(const ParsedArgs& a) {
  const std::string path = a.pos[0];
  if (!a.HasFlag("nodes")) {
    std::fprintf(stderr, "cluster serve: --nodes is required\n");
    return 2;
  }
  const int self_id = a.IntFlag("id", 0);
  std::vector<NodeInfo> members;
  if (!ParseClusterNodes(a.flags.at("nodes"), &members)) {
    std::fprintf(stderr,
                 "cluster serve: bad --nodes spec '%s' (want "
                 "id:port or id:host:port, port 1..65535)\n",
                 a.flags.at("nodes").c_str());
    return 2;
  }
  NodeInfo* self = nullptr;
  for (NodeInfo& node : members) {
    if (node.node_id == self_id) self = &node;
  }
  if (self == nullptr) {
    std::fprintf(stderr, "cluster serve: --id=%d is not in --nodes\n",
                 self_id);
    return 2;
  }

  auto loaded = LoadPoolOrComplain(path);
  if (!loaded.ok()) return 1;

  MembershipView view;
  view.nodes = members;
  ClusterNodeOptions options;
  options.node_id = self_id;
  options.placement.replication = a.IntFlag("replication", 2);
  options.gossip_interval_ms = a.IntFlag("gossip-ms", 250);
  options.start_gossip = true;
  const int net_loops = std::max(1, a.IntFlag("workers", 2));
  options.serve.num_workers = MachineInferenceWorkers(net_loops);
  ClusterNode node(std::move(loaded).ValueOrDie(), view, options);
  WireTransport transport([&node] { return node.view(); });
  node.SetTransport(&transport);

  // One port per node: clients and peers share this NetServer. Peer
  // frames are refused until the endpoint is wired in below.
  NetServer::Options nopts;
  nopts.host = self->host;
  nopts.port = self->port;
  nopts.num_workers = net_loops;
  NetServer net(&node.server(), nopts);
  Status started = net.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cluster serve: %s\n", started.ToString().c_str());
    return 1;
  }
  net.SetPeerEndpoint(&node);
  started = node.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cluster serve: %s\n", started.ToString().c_str());
    return 1;
  }

  std::string owned;
  for (int t : node.OwnedExperts()) {
    owned += (owned.empty() ? "" : ",") + std::to_string(t);
  }
  // Handlers before the announcement, as in net-serve.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::printf("cluster node %d: serving on %s:%d, owns [%s]\n", self_id,
              self->host.c_str(), net.port(), owned.c_str());
  PrintServeThreads(options.serve.num_workers, net_loops);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // The port first (no new submissions, no more peer frames), then the
  // node stops gossip and drains its inference server.
  net.Stop();
  node.Stop();

  const ServeStats s = node.stats();
  std::printf("cluster shutdown node %d: %lld submitted = %lld completed + "
              "%lld rejected + %lld expired\n",
              self_id, static_cast<long long>(s.submitted),
              static_cast<long long>(s.completed),
              static_cast<long long>(s.rejected),
              static_cast<long long>(s.deadline_expired));
  std::printf("cluster fetches node %d: %lld requests = %lld ok + %lld "
              "failed (%lld replica), %lld served to peers\n",
              self_id, static_cast<long long>(s.remote_fetch_requests),
              static_cast<long long>(s.remote_fetch_ok),
              static_cast<long long>(s.remote_fetch_failed),
              static_cast<long long>(s.remote_fetch_replica),
              static_cast<long long>(s.peer_fetches_served));
  std::printf("cluster membership node %d: epoch %llu, self %s, %lld "
              "merges, %lld pings, %lld ping failures\n",
              self_id, static_cast<unsigned long long>(s.cluster_epoch),
              NodeStateName(node.SelfState()),
              static_cast<long long>(s.gossip_merges),
              static_cast<long long>(s.pings_sent),
              static_cast<long long>(s.ping_failures));
  return 0;
}

int CmdClusterStatus(const ParsedArgs& a) {
  std::string host;
  int port = 0;
  if (!ParseHostPort(a.pos[0], &host, &port)) {
    std::fprintf(stderr, "cluster status: bad target '%s'\n",
                 a.pos[0].c_str());
    return 2;
  }
  auto reply = PeerViewExchange(host, port, MembershipView{});
  if (!reply.ok()) {
    std::fprintf(stderr, "cluster status: %s\n",
                 reply.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", reply.ValueOrDie().ToString().c_str());
  return 0;
}

/// Probes the target, applies `mutate` to a local copy of its view (each
/// accepted transition bumps the epoch, so the push is strictly newer),
/// pushes it back, and verifies the reply shows `node_id` in `want`.
int PushTransition(const std::string& verb, const std::string& target,
                   int node_id, NodeState want,
                   const std::function<Status(PoolMembership&)>& mutate) {
  std::string host;
  int port = 0;
  if (!ParseHostPort(target, &host, &port)) {
    std::fprintf(stderr, "cluster %s: bad target '%s'\n", verb.c_str(),
                 target.c_str());
    return 2;
  }
  auto probe = PeerViewExchange(host, port, MembershipView{});
  if (!probe.ok()) {
    std::fprintf(stderr, "cluster %s: probe: %s\n", verb.c_str(),
                 probe.status().ToString().c_str());
    return 1;
  }
  PoolMembership membership(std::move(probe).ValueOrDie());
  const Status mutated = mutate(membership);
  if (!mutated.ok()) {
    std::fprintf(stderr, "cluster %s: %s\n", verb.c_str(),
                 mutated.ToString().c_str());
    return 1;
  }
  auto pushed = PeerViewExchange(host, port, membership.View());
  if (!pushed.ok()) {
    std::fprintf(stderr, "cluster %s: push: %s\n", verb.c_str(),
                 pushed.status().ToString().c_str());
    return 1;
  }
  const MembershipView& after = pushed.ValueOrDie();
  const NodeInfo* info = after.Find(node_id);
  if (info == nullptr || info->state != want) {
    std::fprintf(stderr,
                 "cluster %s: target did not adopt the transition:\n%s\n",
                 verb.c_str(), after.ToString().c_str());
    return 1;
  }
  std::printf("node %d is %s\n%s\n", node_id, NodeStateName(want),
              after.ToString().c_str());
  return 0;
}

int CmdClusterDrain(const ParsedArgs& a) {
  const int node_id = a.IntPos(1, -1);
  return PushTransition(
      "drain", a.pos[0], node_id, NodeState::kDraining,
      [node_id](PoolMembership& m) {
        return m.Transition(node_id, NodeState::kDraining);
      });
}

int CmdClusterJoin(const ParsedArgs& a) {
  const int node_id = a.IntPos(1, -1);
  // Walk the node to ONLINE along legal edges (OFFLINE -> REINTEGRATING
  // -> ONLINE; a DRAINING node goes through OFFLINE first). Each step
  // burns an epoch, so the whole walk pushes as one strictly-newer view.
  return PushTransition(
      "join", a.pos[0], node_id, NodeState::kOnline,
      [node_id](PoolMembership& m) -> Status {
        for (int step = 0; step < 4; ++step) {
          const MembershipView view = m.View();  // `info` points into it
          const NodeInfo* info = view.Find(node_id);
          if (info == nullptr) {
            return Status::InvalidArgument("unknown node " +
                                           std::to_string(node_id));
          }
          if (info->state == NodeState::kOnline) return Status::OK();
          const NodeState next =
              info->state == NodeState::kOffline ? NodeState::kReintegrating
              : info->state == NodeState::kReintegrating
                  ? NodeState::kOnline
                  : NodeState::kOffline;  // DRAINING drains out first
          POE_RETURN_NOT_OK(m.Transition(node_id, next));
        }
        return Status::OK();
      });
}

int CmdClusterKill(const ParsedArgs& a) {
  const int pid = a.IntPos(0, 0);
  if (pid <= 0) {
    std::fprintf(stderr, "cluster kill: bad pid '%s'\n", a.pos[0].c_str());
    return 2;
  }
  if (::kill(pid, SIGKILL) != 0) {
    std::fprintf(stderr, "cluster kill: kill(%d, SIGKILL): %s\n", pid,
                 std::strerror(errno));
    return 1;
  }
  std::printf("sent SIGKILL to %d (gossip will detect the death and mark "
              "the node OFFLINE)\n",
              pid);
  return 0;
}

// --------------------------------------------------------------- registry

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"build", "<pool.poe> [tasks] [classes] [epochs] [--seed=N]",
       "train an oracle and distill a pool of experts from it", 1, 4,
       {"seed"}, CmdBuild},
      {"info", "<pool.poe>",
       "print the pool's architecture, hierarchy, and storage volumes", 1, 1,
       {}, CmdInfo},
      {"query", "<pool.poe> <task,task,...>",
       "assemble the task-specific model and report size/latency", 2, 2,
       {}, CmdQuery},
      {"calibrate", "<pool.poe> <out.poe> [num_samples] [hw]",
       "record static activation scales and save a packed int8 pool", 2, 4,
       {}, CmdCalibrate},
      {"fsck", "<pool.poe>",
       "verify the pool file's section CRCs and commit footer", 1, 1,
       {}, CmdFsck},
      {"net-serve", "<pool.poe> [port] [net_workers]",
       "serve over TCP, one inference worker per core the net_workers "
       "event loops leave free; SIGHUP hot-reloads the pool file as a new "
       "generation, SIGINT/SIGTERM drain and exit", 1, 3,
       {}, CmdNetServe},
      {"net-query", "<host:port|port> <task,task,...> [hw]",
       "send one inference request over the wire protocol", 2, 3,
       {}, CmdNetQuery},
      {"net-load",
       "<host:port|port> [--seconds=S] [--allow=status,...]",
       "drive 2 connections (tasks {0,1} and {1,2}) closed- then open-loop; "
       "exit 1 on a transport failure, a response status outside --allow, "
       "or when nothing resolves, naming the first error", 1, 1,
       {"seconds", "allow"}, CmdNetLoad},
      // Pool lifecycle family: create/info/fsck are the registry-level
      // names of the verbs above; upgrade is the generation swap.
      {"pool create", "<pool.poe> [tasks] [classes] [epochs] [--seed=N]",
       "alias of build", 1, 4, {"seed"}, CmdBuild},
      {"pool info", "<pool.poe>", "alias of info", 1, 1, {}, CmdInfo},
      {"pool fsck", "<pool.poe>", "alias of fsck", 1, 1, {}, CmdFsck},
      {"pool upgrade", "<old.poe> <new.poe> [--apply] [--pid=N]",
       "diff two pools as generations; --apply renames new over old "
       "atomically, --pid=N SIGHUPs a running net-serve to hot-swap", 2, 2,
       {"apply", "pid"}, CmdPoolUpgrade},
      // Cluster family: one process per node and one port per node;
      // peer fetches + gossip ride the wire protocol's peer frame types
      // on that port (docs/CLUSTER.md).
      {"cluster serve",
       "<pool.poe> --id=N --nodes=id:[host:]port[,...] [--replication=N] "
       "[--gossip-ms=N] [--workers=N]",
       "serve as one member of a distributed expert pool: shed non-owned "
       "experts, fetch them from peers on demand, gossip membership", 1, 1,
       {"id", "nodes", "replication", "gossip-ms", "workers"},
       CmdClusterServe},
      {"cluster status", "<host:port|port>",
       "probe a node's membership view (an epoch-0 ping adopts nothing)",
       1, 1, {}, CmdClusterStatus},
      {"cluster drain", "<host:port|port> <node_id>",
       "mark a node DRAINING on the target's view and push it via gossip",
       2, 2, {}, CmdClusterDrain},
      {"cluster join", "<host:port|port> <node_id>",
       "walk a node back to ONLINE (OFFLINE -> REINTEGRATING -> ONLINE) "
       "on the target's view and push it", 2, 2, {}, CmdClusterJoin},
      {"cluster kill", "<pid>",
       "SIGKILL a cluster-serve process - the crash half of the "
       "kill-a-node demo", 1, 1, {}, CmdClusterKill},
  };
  return kCommands;
}

int Usage() {
  std::fprintf(stderr, "usage: poectl <command> [args...] [--flag=value]\n");
  std::fprintf(stderr,
               "exit codes: 0 = ok, 1 = operational failure, 2 = usage\n\n");
  std::fprintf(stderr, "commands:\n");
  for (const CommandSpec& cmd : Commands()) {
    std::fprintf(stderr, "  poectl %s %s\n      %s\n", cmd.name, cmd.synopsis,
                 cmd.summary);
  }
  return 2;
}

int UsageFor(const CommandSpec& cmd) {
  std::fprintf(stderr, "usage: poectl %s %s\n  %s\n", cmd.name, cmd.synopsis,
               cmd.summary);
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string first = argv[1];
  if (first == "help" || first == "--help" || first == "-h") {
    Usage();
    return 0;
  }

  // Longest-match command resolution: a two-word family name ("pool
  // upgrade") wins over a one-word one when both could match.
  const CommandSpec* cmd = nullptr;
  int consumed = 0;
  if (argc >= 3) {
    const std::string two_words = first + " " + argv[2];
    for (const CommandSpec& c : Commands()) {
      if (two_words == c.name) {
        cmd = &c;
        consumed = 3;
        break;
      }
    }
  }
  if (cmd == nullptr) {
    for (const CommandSpec& c : Commands()) {
      if (first == c.name) {
        cmd = &c;
        consumed = 2;
        break;
      }
    }
  }
  if (cmd == nullptr) {
    std::fprintf(stderr, "poectl: unknown command '%s'\n", first.c_str());
    return Usage();
  }

  ParsedArgs args;
  for (int i = consumed; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      const std::string name =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      const std::string value =
          eq == std::string::npos ? "" : arg.substr(eq + 1);
      bool allowed = false;
      for (const std::string& f : cmd->flags) allowed |= (f == name);
      if (!allowed) {
        std::fprintf(stderr, "poectl %s: unknown flag --%s\n", cmd->name,
                     name.c_str());
        return UsageFor(*cmd);
      }
      args.flags[name] = value;
    } else {
      args.pos.push_back(arg);
    }
  }
  if (args.pos.size() < cmd->min_pos || args.pos.size() > cmd->max_pos) {
    std::fprintf(stderr, "poectl %s: expected %zu..%zu arguments, got %zu\n",
                 cmd->name, cmd->min_pos, cmd->max_pos, args.pos.size());
    return UsageFor(*cmd);
  }
  return cmd->run(args);
}

}  // namespace
}  // namespace poe

int main(int argc, char** argv) { return poe::Main(argc, argv); }
