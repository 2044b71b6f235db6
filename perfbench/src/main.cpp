// perfbench — the repo benchmark: oracle-checked parallel SSSP and PHOLD
// at P = nproc over the registry storages, plus a traced per-layer split.
//
//   perfbench --workload sssp-dense|sssp-sparse|des --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// Untraced (--trace 0): set-up (input generation + oracle solve), one
// unmeasured warm-up solve per storage, then rounds of one solve per gated
// storage, in an order rotated every round, until S seconds have passed.
// Set-up is repeated between solves, spread evenly over the run.
// Every solve is compared with the oracle, and its peak heap growth is
// metered.  The last stdout line is the result object with the end-to-end
// metrics; the line before it is run metadata.
//
// Traced (--trace 1): the same set-up, then rounds in which every storage
// (ws_priority included) solves once untraced and once through
// TimedStorage.  The per-layer metrics come from the timed solves; the
// untraced twins price the tracing.  Spans are kept in memory and written
// to --trace-out when the run ends.
//
// perfbench/README.md maps every metric to the ROADMAP item it serves.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/storage_registry.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/sssp.hpp"
#define PERFBENCH_HEAP_METER_DEFINE_OPERATORS
#include "heap_meter.hpp"
#include "queues/dary_heap.hpp"
#include "timed_storage.hpp"
#include "workloads/des.hpp"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// The storages whose solve_s / work_ratio are gated end to end.
// hybrid_shard (legacy A/B arm) and ws_deque (priority-blind, ~100x the
// relaxations) are not measured.
constexpr std::string_view kGated[] = {"global_pq", "centralized", "hybrid",
                                       "multiqueue"};
// The traced run adds ws_priority, the paper's first structure, whose
// work ratio swings too much between runs to gate.
constexpr std::string_view kTraced[] = {"global_pq", "centralized", "hybrid",
                                        "multiqueue", "ws_priority"};

// The share of the measured loop's time that set-up repeats may take,
// and the fewest set-up samples a run reports (a short run tops up at its
// end).
constexpr double kSetupShare = 1.0 / 3.0;
constexpr std::size_t kSetupMinSamples = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// num / den, or 0 when nothing was counted.
double per(double num, double den) { return den > 0 ? num / den : 0.0; }

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t x = seed ^ (tag * 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

[[noreturn]] void die(const std::string& msg, int code) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(code);
}

// ------------------------------------------------------------ self-checks

/// An end-to-end solve must run the storage exactly as a user would: no
/// tracer and no histogram attached (their hot-path branches and stamps
/// are what the traced run prices separately).
void require_untraced(const kps::StorageConfig& cfg) {
  if (cfg.trace != nullptr || cfg.queue_delay != nullptr ||
      cfg.rank_error != nullptr || cfg.rank_probe != 0) {
    die("an end-to-end solve has telemetry attached", 3);
  }
}

void require_release_build() {
#ifdef KPS_FAILPOINTS
  die("built with KPS_FAILPOINTS: the fault-injection seams are compiled "
      "in, so timings would not be the library's",
      3);
#endif
}

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) die("missing value for " + std::string(flag), 2);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') die("bad --seed " + value, 2);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0)) {
        die("bad --seconds " + value, 2);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") die("--trace takes 0 or 1", 2);
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      die("unknown flag " + std::string(flag), 2);
    }
  }
  if (!have_workload) die("--workload is required", 2);
  return a;
}

// ---------------------------------------------------------------- output

/// Ordered name -> (value, unit) map printed as the result's "metrics".
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      die("metric " + name + " is not finite", 4);
    }
    for (auto& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }

  std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i ? ", \"" : "\"") + entries_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string jnum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(std::string_view s) { return "\"" + std::string(s) + "\""; }

std::string jlist(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + jnum(v[i]);
  }
  return out + "]";
}

// ------------------------------------------------------------- workloads

/// One set-up: the input built and solved by the sequential oracle.
struct SetupSample {
  double generate_s = 0;
  double oracle_s = 0;
  bool same = true;  // reproduced the first set-up's oracle
};

struct SolveOutcome {
  double seconds = 0;         // wall of the public solve call
  double runner_seconds = 0;  // run_relaxed's wall: thread start to join
  bool exact = false;
  double work_ratio = 0;
  kps::PlaceStats totals;
  std::uint64_t floor_checks = 0;
  std::uint64_t floor_loads = 0;
};

/// G(n, p), U(0,1] weights, source 0, checked bit-exact against Dijkstra.
class SsspBench {
 public:
  using TaskT = kps::SsspTask;

  SsspBench(std::uint32_t n, double p, std::uint64_t seed)
      : n_(n), p_(p), seed_(seed) {}

  double generate() {
    graph_ = kps::Graph{};  // free the previous copy before building one
    const auto t0 = Clock::now();
    graph_ = kps::erdos_renyi(n_, p_, seed_);
    return seconds_since(t0);
  }

  /// Builds the graph and solves it with Dijkstra.  The first set-up's
  /// result is the oracle; a repeat must reproduce it bit for bit.
  SetupSample set_up() {
    SetupSample s;
    s.generate_s = generate();
    const auto t0 = Clock::now();
    kps::DijkstraResult r = kps::dijkstra(graph_, 0);
    s.oracle_s = seconds_since(t0);
    if (oracle_.dist.empty()) {
      oracle_ = std::move(r);
    } else {
      s.same = same_dist(r.dist) && r.relaxations == oracle_.relaxations;
    }
    return s;
  }

  double useful_tasks() const {
    return static_cast<double>(oracle_.relaxations);
  }

  template <typename Storage>
  SolveOutcome solve(Storage& storage, kps::StatsRegistry& stats, int k) const {
    const auto t0 = Clock::now();
    const kps::SsspResult r = kps::parallel_sssp(graph_, 0, storage, k, &stats);
    SolveOutcome out;
    out.seconds = seconds_since(t0);
    out.runner_seconds = r.seconds;
    out.exact = same_dist(r.dist);
    out.work_ratio = static_cast<double>(r.nodes_relaxed) / useful_tasks();
    out.totals = r.totals;
    return out;
  }

  std::string meta() const {
    return "{\"kind\": \"sssp\", \"n\": " + std::to_string(n_) +
           ", \"p\": " + jnum(p_) +
           ", \"directed_edges\": " + std::to_string(graph_.num_edges()) +
           ", \"source\": 0, \"graph_seed\": " + std::to_string(seed_) +
           ", \"settled_nodes\": " + std::to_string(oracle_.relaxations) +
           "}";
  }

 private:
  bool same_dist(const std::vector<double>& d) const {
    return d.size() == oracle_.dist.size() &&
           std::memcmp(d.data(), oracle_.dist.data(),
                       d.size() * sizeof(double)) == 0;
  }

  std::uint32_t n_;
  double p_;
  std::uint64_t seed_;
  kps::Graph graph_;
  kps::DijkstraResult oracle_;
};

/// PHOLD (workloads/des.hpp), checked with DesOutcome == against
/// des_sequential.  Its inputs are the parameters alone, so generation
/// costs nothing and set-up is the oracle solve.
class DesBench {
 public:
  using TaskT = kps::DesTask;

  explicit DesBench(kps::DesParams params) : params_(params) {}

  SetupSample set_up() {
    SetupSample s;
    const auto t0 = Clock::now();
    kps::DesOutcome r = kps::des_sequential(params_);
    s.oracle_s = seconds_since(t0);
    if (!have_oracle_) {
      oracle_ = r;
      have_oracle_ = true;
    } else {
      s.same = r == oracle_;
    }
    return s;
  }

  double useful_tasks() const { return static_cast<double>(oracle_.events); }

  template <typename Storage>
  SolveOutcome solve(Storage& storage, kps::StatsRegistry& stats, int k) const {
    const auto t0 = Clock::now();
    const kps::DesRun r = kps::des_parallel(params_, storage, k, &stats);
    SolveOutcome out;
    out.seconds = seconds_since(t0);
    out.runner_seconds = r.runner.seconds;
    out.exact = r.outcome == oracle_;
    out.work_ratio =
        static_cast<double>(r.outcome.events + r.deferred) /
        static_cast<double>(std::max<std::uint64_t>(r.outcome.events, 1));
    out.totals = r.runner.totals;
    out.floor_checks = r.floor_checks;
    out.floor_loads = r.floor_loads;
    return out;
  }

  std::string meta() const {
    return "{\"kind\": \"des\", \"chains\": " +
           std::to_string(params_.chains) +
           ", \"stations\": " + std::to_string(params_.stations) +
           ", \"horizon\": " + jnum(params_.horizon) +
           ", \"window\": " + jnum(params_.window) +
           ", \"des_seed\": " + std::to_string(params_.seed) +
           ", \"events\": " + std::to_string(oracle_.events) + "}";
  }

 private:
  kps::DesParams params_;
  kps::DesOutcome oracle_;
  bool have_oracle_ = false;
};

kps::DesParams des_params(std::uint64_t seed, std::uint32_t chains,
                          double horizon) {
  kps::DesParams p;
  p.chains = chains;
  p.stations = 256;
  p.horizon = horizon;
  p.window = 8.0;
  p.seed = seed;
  return p;
}

// --------------------------------------------------------------- harness

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  }
};

/// Set-up runs once before the measured loop and is then repeated
/// between its solves whenever the repeats have taken less than
/// kSetupShare of the loop's time so far, which spreads them evenly over
/// the run.  A set-up's time swings with the host's speed over minutes, so
/// its median must sample the whole run, as the solves' do.  Every repeat
/// is checked against the first set-up's oracle.
template <typename Bench>
class SetupSampler {
 public:
  explicit SetupSampler(Bench& bench) : bench_(&bench) {
    add(bench_->set_up());
  }

  /// Called after every solve of the measured loop, with its elapsed time.
  void after_solve(double elapsed_s, Tally& tally) {
    if (repeats_s_ < kSetupShare * elapsed_s) repeat(tally);
  }

  /// Tops a short run up to kSetupMinSamples.
  void finish(Tally& tally) {
    while (setup_s_.size() < kSetupMinSamples) repeat(tally);
  }

  const std::vector<double>& setup_s() const { return setup_s_; }
  const std::vector<double>& generate_s() const { return generate_s_; }
  const std::vector<double>& oracle_s() const { return oracle_s_; }

 private:
  void repeat(Tally& tally) {
    const SetupSample s = bench_->set_up();
    tally.check(s.same, "set-up repeat");
    add(s);
    repeats_s_ += s.generate_s + s.oracle_s;
  }

  void add(const SetupSample& s) {
    generate_s_.push_back(s.generate_s);
    oracle_s_.push_back(s.oracle_s);
    setup_s_.push_back(s.generate_s + s.oracle_s);
  }

  Bench* bench_;
  double repeats_s_ = 0;
  std::vector<double> setup_s_, generate_s_, oracle_s_;
};

/// The measured loop's clock, checked before each storage's turn: the
/// first round always completes, so every storage has a sample, and a
/// run overshoots its seconds by at most one turn.
bool more_rounds(std::size_t round, Clock::time_point t0, double seconds) {
  return round == 0 || seconds_since(t0) < seconds;
}

kps::StorageConfig storage_config(std::uint64_t seed, std::uint64_t solve) {
  kps::StorageConfig cfg;  // k = 1024, mailbox on: the production default
  cfg.seed = mix(seed, 0x5107a6e0 + solve);
  return cfg;
}

/// One untraced solve through the public registry.
template <typename Bench>
SolveOutcome solve_untraced(const Bench& bench, std::string_view name,
                            std::size_t P, const kps::StorageConfig& cfg) {
  require_untraced(cfg);
  kps::StatsRegistry stats(P);
  auto storage = kps::make_storage<typename Bench::TaskT>(name, P, cfg, &stats);
  return bench.solve(storage, stats, cfg.default_k);
}

/// solve_untraced, with the peak heap growth of the whole solve in MB:
/// the storage, the runner and the result, created and destroyed inside.
template <typename Bench>
std::pair<SolveOutcome, double> solve_metered(const Bench& bench,
                                              std::string_view name,
                                              std::size_t P,
                                              const kps::StorageConfig& cfg) {
  SolveOutcome o;
  const std::int64_t bytes = heap_meter::peak_during(
      [&] { o = solve_untraced(bench, name, P, cfg); });
  if (bytes <= 0) die("the heap meter saw none of a solve's allocations", 3);
  return {o, static_cast<double>(bytes) / (1024.0 * 1024.0)};
}

struct TracedSolve {
  SolveOutcome outcome;
  std::vector<PlaceTally> tallies;
  std::uint64_t start_tsc = 0;
  std::uint64_t end_tsc = 0;
};

template <typename Bench>
TracedSolve solve_traced(const Bench& bench, std::string_view name,
                         std::size_t P, const kps::StorageConfig& cfg,
                         bool record_replay) {
  kps::StatsRegistry stats(P);
  auto storage = kps::make_storage<typename Bench::TaskT>(name, P, cfg, &stats);
  TimedStorage<typename Bench::TaskT> timed(storage, record_replay);
  TracedSolve out;
  out.start_tsc = tsc_now();
  out.outcome = bench.solve(timed, stats, cfg.default_k);
  out.end_tsc = tsc_now();
  out.tallies = timed.tallies();
  return out;
}

struct Meta {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t nproc = 0;
  std::size_t P = 0;
  double seconds = 0;
  bool trace = false;
  std::string inputs;
  std::string extra;
};

void print_result(const Meta& m, const Tally& tally, const Metrics& metrics,
                  bool accounting_ok) {
  const double failed_share =
      tally.attempted ? static_cast<double>(tally.failed) /
                            static_cast<double>(tally.attempted)
                      : 1.0;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"nproc\": %zu, "
      "\"P\": %zu, \"seconds\": %s, \"trace\": %d, \"compiler\": %s, "
      "\"flags\": %s, \"storage_config\": \"StorageConfig{} (k = 1024, "
      "mailbox on)\", \"inputs\": %s, \"failed_share\": %s, "
      "\"series\": \"not comparable with BENCH_pr1-pr10 (P = 8 on one "
      "hardware thread)\"%s}}\n",
      jstr(m.workload).c_str(), static_cast<unsigned long long>(m.seed),
      m.nproc, m.P, jnum(m.seconds).c_str(), m.trace ? 1 : 0,
      jstr(compiler).c_str(), jstr(PERFBENCH_FLAGS).c_str(),
      m.inputs.c_str(), jnum(failed_share).c_str(), m.extra.c_str());
  const bool correct = tally.failed == 0 && accounting_ok;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", tally.attempted, tally.failed,
      metrics.json().c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------- untraced

template <typename Bench>
int run_untraced(Bench& bench, const Args& args, Meta meta) {
  const std::size_t P = meta.P;
  Metrics metrics;
  Tally tally;

  SetupSampler<Bench> setup(bench);
  meta.inputs = bench.meta();

  std::uint64_t solve_no = 0;
  for (std::string_view name : kGated) {  // warm-up, unmeasured
    const SolveOutcome o =
        solve_untraced(bench, name, P, storage_config(args.seed, solve_no++));
    tally.check(o.exact, std::string(name) + " warm-up solve");
  }

  // The storage order rotates every round.
  constexpr std::size_t kN = std::size(kGated);
  std::vector<double> solve_s[kN];
  std::vector<double> work_ratio[kN];
  std::vector<double> peak_mb[kN];
  const auto t0 = Clock::now();
  for (std::size_t round = 0; more_rounds(round, t0, args.seconds); ++round) {
    for (std::size_t j = 0; j < kN && more_rounds(round, t0, args.seconds);
         ++j) {
      const std::size_t i = (round + j) % kN;
      const auto [o, mb] = solve_metered(
          bench, kGated[i], P, storage_config(args.seed, solve_no++));
      tally.check(o.exact, std::string(kGated[i]) + " solve");
      solve_s[i].push_back(o.seconds);
      work_ratio[i].push_back(o.work_ratio);
      peak_mb[i].push_back(mb);
      setup.after_solve(seconds_since(t0), tally);
    }
  }
  setup.finish(tally);

  metrics.set("setup_s", median(setup.setup_s()), "s");
  std::string samples = ", \"samples\": {\"setup\": " +
                        jlist(setup.setup_s()) +
                        ", \"seq\": " + jlist(setup.oracle_s());
  std::string peaks = ", \"peak_mb\": {";
  for (std::size_t i = 0; i < kN; ++i) {
    const std::string s(kGated[i]);
    metrics.set(s + ".solve_s", median(solve_s[i]), "s");
    metrics.set(s + ".work_ratio", median(work_ratio[i]), "ratio");
    // A solve's peak takes a few discrete values (one buffer doubling
    // more or less, depending on timing); with a handful of solves per run
    // their median flips between two of them, their mean does not.
    metrics.set(s + ".peak_mb", mean(peak_mb[i]), "MB");
    samples += ", " + jstr(s) + ": " + jlist(solve_s[i]);
    peaks += (i ? ", " : "") + jstr(s) + ": " + jlist(peak_mb[i]);
  }
  meta.extra = samples + "}" + peaks + "}, \"setup_generate_s\": " +
               jnum(median(setup.generate_s())) +
               ", \"setup_oracle_s\": " + jnum(median(setup.oracle_s())) +
               ", \"run_peak_rss_mb\": " + jnum(peak_rss_mb());
  print_result(meta, tally, metrics, true);
  return 0;
}

// --------------------------------------------------------------- traced

/// Everything the traced run accumulates for one storage.
struct LayerAcc {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> work_ratio;  // untraced solves
  std::size_t traced_solves = 0;
  double wall_s = 0;      // sum over traced solves of the runner wall
  PlaceTally sum;         // counts and ticks summed over places and solves
  kps::PlaceStats counters;
  std::uint64_t floor_checks = 0;
  std::uint64_t floor_loads = 0;
};

void add_tallies(PlaceTally& sum, const std::vector<PlaceTally>& tallies) {
  for (const PlaceTally& t : tallies) {
    sum.seed_pushes += t.seed_pushes;
    sum.pushes += t.pushes;
    sum.pops += t.pops;
    sum.pops_empty += t.pops_empty;
    sum.push_ticks += t.push_ticks;
    sum.pop_ticks += t.pop_ticks;
    sum.pop_empty_ticks += t.pop_empty_ticks;
    sum.body_ticks += t.body_ticks;
    sum.idle_ticks += t.idle_ticks;
  }
}

/// In-memory span store, written out once when the run ends.
class SpanLog {
 public:
  void add_solve(std::string_view storage, std::size_t solve,
                 const TracedSolve& ts) {
    const std::uint64_t id = next_id_++;
    std::string s = "{\"id\": " + std::to_string(id) +
                    ", \"parent\": null, \"name\": \"solve\", \"storage\": " +
                    jstr(storage) + ", \"solve\": " + std::to_string(solve) +
                    ", \"start_tsc\": " + std::to_string(ts.start_tsc) +
                    ", \"end_tsc\": " + std::to_string(ts.end_tsc) +
                    ", \"places\": [";
    for (std::size_t p = 0; p < ts.tallies.size(); ++p) {
      const PlaceTally& t = ts.tallies[p];
      s += std::string(p ? ", " : "") + "{\"place\": " + std::to_string(p) +
           ", \"seed_pushes\": " + std::to_string(t.seed_pushes) +
           ", \"push\": {\"count\": " + std::to_string(t.pushes) +
           ", \"ticks\": " + std::to_string(t.push_ticks) +
           "}, \"pop\": {\"count\": " + std::to_string(t.pops) +
           ", \"ticks\": " + std::to_string(t.pop_ticks) +
           "}, \"pop_empty\": {\"count\": " + std::to_string(t.pops_empty) +
           ", \"ticks\": " + std::to_string(t.pop_empty_ticks) +
           "}, \"body_ticks\": " + std::to_string(t.body_ticks) +
           ", \"idle_ticks\": " + std::to_string(t.idle_ticks) +
           ", \"first_tsc\": " + std::to_string(t.first_in) +
           ", \"last_tsc\": " + std::to_string(t.last_out) + "}";
    }
    spans_.push_back(s + "]}");
    for (std::size_t p = 0; p < ts.tallies.size(); ++p) {
      for (const SampledSpan& sp : ts.tallies[p].samples) {
        spans_.push_back("{\"id\": " + std::to_string(next_id_++) +
                         ", \"parent\": " + std::to_string(id) +
                         ", \"name\": " + jstr(op_name(sp.op)) +
                         ", \"place\": " + std::to_string(p) +
                         ", \"start_tsc\": " + std::to_string(sp.start) +
                         ", \"ticks\": " + std::to_string(sp.ticks) + "}");
      }
    }
  }

  bool write(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{%s, \"spans\": [\n", header.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::fprintf(f, "%s%s\n", spans_[i].c_str(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::uint64_t next_id_ = 1;
  std::vector<std::string> spans_;
};

/// P = 1 replay of one recorded solve's pushes and successful pops, in
/// TSC order, on the d-ary heap the sequential oracles use.  Runs of
/// same-kind ops are timed as one block, minus an empty bracket.
template <typename TaskT>
std::pair<double, double> replay_dary(std::vector<ReplayOp> ops,
                                      const TscRate& rate) {
  std::sort(ops.begin(), ops.end(),
            [](const ReplayOp& a, const ReplayOp& b) { return a.at < b.at; });
  std::uint64_t bracket = ~std::uint64_t{0};
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = tsc_now();
    const std::uint64_t b = tsc_now();
    bracket = std::min(bracket, b - a);
  }
  kps::DaryHeap<TaskT, kps::TaskLess, 4> heap;
  double push_ticks = 0, pop_ticks = 0;
  std::uint64_t pushes = 0, pops = 0;
  std::size_t i = 0;
  while (i < ops.size()) {
    const bool push = ops[i].push;
    std::size_t j = i;
    std::uint64_t n = 0;
    const std::uint64_t t0 = tsc_now();
    for (; j < ops.size() && ops[j].push == push; ++j) {
      if (push) {
        TaskT t{};
        t.priority = ops[j].priority;
        heap.push(t);
        ++n;
      } else if (!heap.empty()) {
        heap.pop();
        ++n;
      }
    }
    const std::uint64_t t1 = tsc_now();
    const double ticks =
        static_cast<double>(t1 - t0) - static_cast<double>(bracket);
    (push ? push_ticks : pop_ticks) += std::max(ticks, 0.0);
    (push ? pushes : pops) += n;
    i = j;
  }
  return {rate.to_ns(per(push_ticks, static_cast<double>(pushes))),
          rate.to_ns(per(pop_ticks, static_cast<double>(pops)))};
}

template <typename Bench>
int run_traced(Bench& bench, const Args& args, Meta meta,
               const std::function<void(Metrics&, Tally&)>& probe) {
  const std::size_t P = meta.P;
  Metrics metrics;
  Tally tally;
  bool accounting_ok = true;

  const TscCalibration calibration;

  SetupSampler<Bench> setup(bench);
  meta.inputs = bench.meta();

  std::uint64_t solve_no = 0;
  for (std::string_view name : kTraced) {  // warm-up, unmeasured
    const SolveOutcome o =
        solve_untraced(bench, name, P, storage_config(args.seed, solve_no++));
    tally.check(o.exact, std::string(name) + " warm-up solve");
  }

  SpanLog spans;
  std::map<std::string_view, LayerAcc> acc;
  constexpr std::size_t kN = std::size(kTraced);
  const auto t0 = Clock::now();
  for (std::size_t round = 0; more_rounds(round, t0, args.seconds); ++round) {
    for (std::size_t j = 0; j < kN && more_rounds(round, t0, args.seconds);
         ++j) {
      const std::string_view name = kTraced[(round + j) % kN];
      LayerAcc& a = acc[name];
      for (int half = 0; half < 2; ++half) {
        const bool traced = (half + round) % 2 == 1;
        const kps::StorageConfig cfg = storage_config(args.seed, solve_no++);
        if (!traced) {
          const SolveOutcome o = solve_untraced(bench, name, P, cfg);
          tally.check(o.exact, std::string(name) + " solve");
          a.untraced_s.push_back(o.seconds);
          a.work_ratio.push_back(o.work_ratio);
          continue;
        }
        const TracedSolve ts = solve_traced(bench, name, P, cfg, false);
        const SolveOutcome& o = ts.outcome;
        tally.check(o.exact, std::string(name) + " traced solve");
        PlaceTally sum;
        add_tallies(sum, ts.tallies);
        const std::uint64_t spawned =
            o.totals.get(kps::Counter::tasks_spawned);
        const std::uint64_t executed =
            o.totals.get(kps::Counter::tasks_executed);
        if (sum.seed_pushes + sum.pushes != spawned || sum.pops != executed) {
          accounting_ok = false;
          std::fprintf(stderr,
                       "perfbench: %.*s wrapper counts disagree with the "
                       "library: pushes %llu vs tasks_spawned %llu, pops "
                       "%llu vs tasks_executed %llu\n",
                       static_cast<int>(name.size()), name.data(),
                       static_cast<unsigned long long>(sum.seed_pushes +
                                                       sum.pushes),
                       static_cast<unsigned long long>(spawned),
                       static_cast<unsigned long long>(sum.pops),
                       static_cast<unsigned long long>(executed));
        }
        add_tallies(a.sum, ts.tallies);
        a.traced_s.push_back(o.seconds);
        a.wall_s += o.runner_seconds;
        a.counters += o.totals;
        a.floor_checks += o.floor_checks;
        a.floor_loads += o.floor_loads;
        ++a.traced_solves;
        spans.add_solve(name, solve_no - 1, ts);
      }
      setup.after_solve(seconds_since(t0), tally);
    }
  }
  setup.finish(tally);
  if constexpr (std::is_same_v<Bench, SsspBench>) {
    metrics.set("graph.generate_s", median(setup.generate_s()), "s");
  }

  // One more hybrid solve, recorded op by op, feeds the heap replay.
  const TracedSolve recorded = solve_traced(
      bench, "hybrid", P, storage_config(args.seed, solve_no++), true);
  tally.check(recorded.outcome.exact, "hybrid recording solve");
  std::vector<ReplayOp> ops;
  for (const PlaceTally& t : recorded.tallies) {
    ops.insert(ops.end(), t.replay.begin(), t.replay.end());
  }

  probe(metrics, tally);

  // The TSC rate over the whole measured phase, against steady_clock.
  const TscRate rate = calibration.rate();

  const auto [dpush, dpop] =
      replay_dary<typename Bench::TaskT>(std::move(ops), rate);
  metrics.set("queues.dary_push_ns", dpush, "ns");
  metrics.set("queues.dary_pop_ns", dpop, "ns");

  const double useful = bench.useful_tasks();
  std::string samples = ", \"samples\": {";
  for (std::size_t i = 0; i < kN; ++i) {
    const std::string_view name = kTraced[i];
    const std::string s(name);
    const LayerAcc& a = acc[name];
    const PlaceTally& t = a.sum;
    const double pwall =
        static_cast<double>(P) * a.wall_s * 1e9 * rate.ticks_per_ns;
    const double storage = static_cast<double>(t.storage_ticks());
    const double body = static_cast<double>(t.body_ticks);
    const double idle = static_cast<double>(t.idle_ticks);
    const double residual = 1.0 - (storage + body + idle) / pwall;
    if (!(std::fabs(residual) < 0.05)) {
      accounting_ok = false;
      std::fprintf(stderr,
                   "perfbench: %s residual_frac %.4f: storage + body + idle "
                   "do not add up to P x wall\n",
                   s.c_str(), residual);
    }
    metrics.set("core." + s + ".push_ns",
                rate.to_ns(per(static_cast<double>(t.push_ticks),
                               static_cast<double>(t.pushes))),
                "ns");
    metrics.set("core." + s + ".pop_ns",
                rate.to_ns(per(static_cast<double>(t.pop_ticks),
                               static_cast<double>(t.pops))),
                "ns");
    metrics.set("core." + s + ".storage_frac", storage / pwall, "share");
    metrics.set("core." + s + ".pop_empty_frac",
                static_cast<double>(t.pop_empty_ticks) / pwall, "share");
    metrics.set("core." + s + ".pops_per_task",
                per(static_cast<double>(t.pops),
                    useful * static_cast<double>(a.traced_solves)),
                "ratio");
    metrics.set("workloads." + s + ".idle_frac", idle / pwall, "share");
    metrics.set("workloads." + s + ".body_frac", body / pwall, "share");
    metrics.set("workloads." + s + ".residual_frac", residual, "share");
    metrics.set("trace." + s + ".overhead_frac",
                median(a.traced_s) / median(a.untraced_s) - 1.0, "share");
    samples += std::string(i ? ", " : "") + jstr(s) + ": [" +
               std::to_string(a.untraced_s.size()) + ", " +
               std::to_string(a.traced_s.size()) + "]";
  }

  const auto per_task = [&](std::string_view s, kps::Counter c) {
    const LayerAcc& a = acc[s];
    return per(static_cast<double>(a.counters.get(c)),
               useful * static_cast<double>(a.traced_solves));
  };
  const auto per_pop = [&](std::string_view s, kps::Counter c) {
    const LayerAcc& a = acc[s];
    return per(static_cast<double>(a.counters.get(c)),
               static_cast<double>(a.counters.get(kps::Counter::tasks_executed)));
  };
  using kps::Counter;
  for (Counter c : {Counter::publishes, Counter::spied_items,
                    Counter::inbox_appends, Counter::inbox_full_fallbacks,
                    Counter::pop_contended}) {
    metrics.set(std::string("core.hybrid.") + kps::counter_name(c) +
                    "_per_task",
                per_task("hybrid", c), "ratio");
  }
  for (Counter c : {Counter::slot_loads, Counter::summary_loads,
                    Counter::tree_descents, Counter::pop_cas_failures}) {
    metrics.set(std::string("core.centralized.") + kps::counter_name(c) +
                    "_per_pop",
                per_pop("centralized", c), "ratio");
  }
  metrics.set("core.multiqueue.pop_contended_per_pop",
              per_pop("multiqueue", Counter::pop_contended), "ratio");

  metrics.set("seq.solve_s", median(setup.oracle_s()), "s");
  const LayerAcc& ws = acc["ws_priority"];
  metrics.set("ws_priority.solve_s", median(ws.untraced_s), "s");
  metrics.set("ws_priority.work_ratio", median(ws.work_ratio), "ratio");

  const LayerAcc& hy = acc["hybrid"];
  if (hy.floor_checks > 0) {
    metrics.set("workloads.des.floor_loads_per_check",
                per(static_cast<double>(hy.floor_loads),
                    static_cast<double>(hy.floor_checks)),
                "count");
  }

  meta.extra = samples + "}, \"tsc\": {\"ticks_per_ns\": " +
               jnum(rate.ticks_per_ns) + ", \"window_s\": " +
               jnum(rate.window_s) + ", \"rdtsc\": " +
               (PERFBENCH_HAVE_RDTSC ? "true" : "false") + "}";
  if (!args.trace_out.empty()) {
    const std::string header =
        "\"workload\": " + jstr(args.workload) +
        ", \"seed\": " + std::to_string(args.seed) +
        ", \"P\": " + std::to_string(P) +
        ", \"ticks_per_ns\": " + jnum(rate.ticks_per_ns) +
        ", \"calibration_window_s\": " + jnum(rate.window_s) +
        ", \"sample_every\": " + std::to_string(kSampleEvery);
    if (!spans.write(args.trace_out, header)) {
      die("cannot write " + args.trace_out, 5);
    }
  }
  print_result(meta, tally, metrics, accounting_ok);
  return 0;
}

// ----------------------------------------------------------- dispatch

constexpr std::uint64_t kGraphTag = 0x67;
constexpr std::uint64_t kDesTag = 0xde5;

SsspBench dense_bench(std::uint64_t seed) {
  return SsspBench(8000, 0.5, mix(seed, kGraphTag));
}

SsspBench sparse_bench(std::uint64_t seed) {
  constexpr std::uint32_t n = 500000;
  return SsspBench(n, 8.0 / (n - 1), mix(seed, kGraphTag));
}

DesBench des_bench(std::uint64_t seed) {
  return DesBench(des_params(mix(seed, kDesTag), 16384, 100.0));
}

/// The traced run prints every per-layer metric on every workload.  A
/// metric whose layer the workload does not exercise comes from a small
/// probe of that layer: the DES floor cost from a reduced PHOLD on the
/// hybrid (SSSP workloads), the graph generator from building the
/// sssp-sparse input (des).
void probe_des_floor(std::uint64_t seed, std::size_t P, Metrics& metrics,
                     Tally& tally) {
  DesBench probe(des_params(mix(seed, kDesTag), 4096, 25.0));
  probe.set_up();
  kps::StatsRegistry stats(P);
  const kps::StorageConfig cfg = storage_config(seed, 0xf1007);
  auto storage = kps::make_storage<kps::DesTask>("hybrid", P, cfg, &stats);
  const SolveOutcome o = probe.solve(storage, stats, cfg.default_k);
  tally.check(o.exact, "des floor probe");
  metrics.set("workloads.des.floor_loads_per_check",
              per(static_cast<double>(o.floor_loads),
                  static_cast<double>(o.floor_checks)),
              "count");
}

void probe_graph_generate(std::uint64_t seed, Metrics& metrics) {
  SsspBench probe = sparse_bench(seed);
  metrics.set("graph.generate_s", probe.generate(), "s");
}

template <typename Bench>
int dispatch(Bench bench, const Args& args, const Meta& meta,
             const std::function<void(Metrics&, Tally&)>& probe) {
  return args.trace ? run_traced(bench, args, meta, probe)
                    : run_untraced(bench, args, meta);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  require_release_build();
  const Args args = parse_args(argc, argv);

  Meta meta;
  meta.workload = args.workload;
  meta.seed = args.seed;
  meta.nproc = online_cpus();
  meta.P = meta.nproc;
  meta.seconds = args.seconds;
  meta.trace = args.trace;

  try {
    const std::uint64_t seed = args.seed;
    const std::size_t P = meta.P;
    if (args.workload == "sssp-dense") {
      return dispatch(dense_bench(seed), args, meta,
                      [&](Metrics& m, Tally& t) {
                        probe_des_floor(seed, P, m, t);
                      });
    }
    if (args.workload == "sssp-sparse") {
      return dispatch(sparse_bench(seed), args, meta,
                      [&](Metrics& m, Tally& t) {
                        probe_des_floor(seed, P, m, t);
                      });
    }
    if (args.workload == "des") {
      return dispatch(des_bench(seed), args, meta,
                      [&](Metrics& m, Tally&) {
                        probe_graph_generate(seed, m);
                      });
    }
  } catch (const std::exception& e) {
    die(std::string("error: ") + e.what(), 4);
  }
  die("unknown workload '" + args.workload +
          "' (sssp-dense, sssp-sparse, des)",
      2);
}
