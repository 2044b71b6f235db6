// TimedStorage must be invisible to the solve and exact in its counts.
//
// For every registry storage, on a small SSSP and a small PHOLD at P = 4:
//   * the solve is oracle-exact both wrapped and unwrapped;
//   * the wrapper's pushes (seeding included) equal the library's
//     tasks_spawned, and its successful pops equal tasks_executed;
//   * each place's storage + body + idle ticks equal the span from its
//     first pop to its last call, so the traced run's residual holds only
//     time outside the places' loops.
// Checks are plain ifs, so they hold in every build type.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "core/storage_registry.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/sssp.hpp"
#include "timed_storage.hpp"
#include "workloads/des.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, std::string_view storage, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL [%.*s] %s\n", static_cast<int>(storage.size()),
                 storage.data(), what);
  }
}

constexpr std::size_t kPlaces = 4;

template <typename TaskT>
void check_tallies(std::string_view name,
                   const perfbench::TimedStorage<TaskT>& timed,
                   const kps::StatsRegistry& stats) {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  for (const perfbench::PlaceTally& t : timed.tallies()) {
    pushes += t.seed_pushes + t.pushes;
    pops += t.pops;
    expect(t.started, name, "every place popped at least once");
    expect(t.storage_ticks() + t.body_ticks + t.idle_ticks ==
               t.last_out - t.first_in,
           name, "storage + body + idle telescope to the place's span");
  }
  const kps::PlaceStats totals = stats.total();
  expect(pushes == totals.get(kps::Counter::tasks_spawned), name,
         "wrapper pushes == tasks_spawned");
  expect(pops == totals.get(kps::Counter::tasks_executed), name,
         "wrapper pops == tasks_executed");
}

void sssp_case(std::string_view name, const kps::Graph& g,
               const kps::DijkstraResult& oracle) {
  kps::StorageConfig cfg;
  {
    kps::StatsRegistry stats(kPlaces);
    auto storage = kps::make_storage<kps::SsspTask>(name, kPlaces, cfg, &stats);
    const auto r = kps::parallel_sssp(g, 0, storage, cfg.default_k, &stats);
    expect(r.dist == oracle.dist, name, "unwrapped SSSP is oracle-exact");
  }
  kps::StatsRegistry stats(kPlaces);
  auto storage = kps::make_storage<kps::SsspTask>(name, kPlaces, cfg, &stats);
  perfbench::TimedStorage<kps::SsspTask> timed(storage);
  const auto r = kps::parallel_sssp(g, 0, timed, cfg.default_k, &stats);
  expect(r.dist == oracle.dist, name, "wrapped SSSP is oracle-exact");
  check_tallies(name, timed, stats);
}

void des_case(std::string_view name, const kps::DesParams& p,
              const kps::DesOutcome& oracle) {
  kps::StorageConfig cfg;
  {
    kps::StatsRegistry stats(kPlaces);
    auto storage = kps::make_storage<kps::DesTask>(name, kPlaces, cfg, &stats);
    const auto r = kps::des_parallel(p, storage, cfg.default_k, &stats);
    expect(r.outcome == oracle, name, "unwrapped DES is oracle-exact");
  }
  kps::StatsRegistry stats(kPlaces);
  auto storage = kps::make_storage<kps::DesTask>(name, kPlaces, cfg, &stats);
  perfbench::TimedStorage<kps::DesTask> timed(storage);
  const auto r = kps::des_parallel(p, timed, cfg.default_k, &stats);
  expect(r.outcome == oracle, name, "wrapped DES is oracle-exact");
  check_tallies(name, timed, stats);
}

}  // namespace

int main() {
  const kps::Graph g = kps::erdos_renyi(3000, 0.005, 7);
  const kps::DijkstraResult sssp_oracle = kps::dijkstra(g, 0);

  kps::DesParams des;
  des.chains = 1024;
  des.stations = 64;
  des.horizon = 20.0;
  des.window = 8.0;
  des.seed = 11;
  const kps::DesOutcome des_oracle = kps::des_sequential(des);

  for (const std::string_view name : kps::kStorageNames) {
    sssp_case(name, g, sssp_oracle);
    des_case(name, des, des_oracle);
  }
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return EXIT_FAILURE;
  }
  std::puts("test_timed_storage: all storages exact, counts match");
  return EXIT_SUCCESS;
}
