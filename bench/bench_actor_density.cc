// Actor density: how many resident actors one node can host, and what that
// residency costs callers. The fiber runtime is the whole story — each actor
// is a parked fiber (a few KB of stack) on the local scheduler's carrier
// threads, not an OS thread, so a single node holds 100k+ actors where the
// thread-per-actor design ran out of pid/VM budget around a few thousand.
//
// Ladder: 1k / 10k / 100k actors on one node. Each rung creates the actors,
// waits until all are resident (parked on their mailboxes), then measures
// round-trip method-call latency against a sample of them. The full run
// asserts the density claim: p99 at 100k actors stays under 10x the p99 at
// 1k — residency is cheap because idle actors consume no carrier time.
//
// --smoke (tier-1 gate): one 10k rung; asserts >= 10k resident actors and
// nonzero fiber parks (i.e. actors really are parked fibers, not threads).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "runtime/api.h"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace ray {
namespace {

class DensityActor {
 public:
  int Ping(int x) { return x + calls_++; }

 private:
  int calls_ = 0;
};

// Current resident set in MB (Linux /proc/self/statm; 0 elsewhere).
double ResidentMb() {
#if defined(__linux__)
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    long total = 0;
    long resident = 0;
    int n = std::fscanf(f, "%ld %ld", &total, &resident);
    std::fclose(f);
    if (n == 2) {
      return static_cast<double>(resident) *
             static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
    }
  }
#endif
  return 0.0;
}

struct RungResult {
  int actors = 0;
  size_t resident_actors = 0;
  double create_seconds = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t fiber_parks = 0;
  uint64_t fiber_switches = 0;
  size_t resident_fibers = 0;
  double rss_mb = 0;
  bool ok = false;
};

RungResult Run(int num_actors, int sample_calls) {
  RungResult result;
  result.actors = num_actors;

  const int kWorkers = 8;
  ClusterConfig config;
  config.num_nodes = 1;
  // Every actor holds CPU:1 for life (creation demand); budget for all of
  // them plus the worker pool, or placement would refuse the ladder.
  config.scheduler.total_resources = ResourceSet::Cpu(num_actors + kWorkers);
  // Huge CPU count must not translate into a worker per CPU.
  config.scheduler.num_workers = kWorkers;
  // The creation burst queues up locally; never spill it to the global
  // scheduler (there is only this node anyway).
  config.scheduler.spillover_queue_threshold = 10'000'000;
  config.net.control_latency_us = 5;
  Cluster cluster(config);
  cluster.RegisterActorClass<DensityActor>("DensityActor");
  cluster.RegisterActorMethod("DensityActor", "Ping", &DensityActor::Ping);

  Ray ray = Ray::OnNode(cluster, 0);
  Node& node = cluster.node(0);

  Timer create_timer;
  std::vector<ActorHandle> actors;
  actors.reserve(num_actors);
  for (int i = 0; i < num_actors; ++i) {
    actors.push_back(ray.CreateActor("DensityActor", ResourceSet::Cpu(1)));
  }
  // Resident = the actor's fiber exists and is parked on its mailbox. Poll
  // NumLiveActors rather than Get-ing creation signals: the point is the
  // node-side census, and one poll loop beats 100k driver-side Gets.
  const int64_t deadline = NowMicros() + 600'000'000;
  while (node.NumLiveActors() < static_cast<size_t>(num_actors) &&
         NowMicros() < deadline) {
    SleepMicros(10'000);
  }
  result.create_seconds = create_timer.ElapsedSeconds();
  result.resident_actors = node.NumLiveActors();
  if (result.resident_actors < static_cast<size_t>(num_actors)) {
    std::fprintf(stderr, "rung %d: only %zu actors became resident\n", num_actors,
                 result.resident_actors);
    return result;
  }

  // Round-trip latency against a spread of actors while everything else
  // stays parked. Stride through the fleet so the sample touches cold
  // actors, not one hot mailbox.
  Histogram latency_us;
  const size_t stride = actors.size() > 1 ? actors.size() / 97 + 1 : 1;
  size_t idx = 0;
  for (int i = 0; i < sample_calls; ++i) {
    Timer call;
    auto ref = actors[idx].Call<int>("Ping", 1);
    auto reply = ray.Get(ref, 60'000'000);
    if (!reply.ok()) {
      std::fprintf(stderr, "rung %d: Ping failed: %s\n", num_actors,
                   reply.status().ToString().c_str());
      return result;
    }
    latency_us.Observe(static_cast<double>(call.ElapsedMicros()));
    idx = (idx + stride) % actors.size();
  }
  result.p50_us = latency_us.Percentile(50.0);
  result.p99_us = latency_us.Percentile(99.0);

  auto& fibers = node.scheduler().fibers();
  result.fiber_parks = fibers.NumParks();
  result.fiber_switches = fibers.NumSwitches();
  result.resident_fibers = fibers.NumResident();
  result.rss_mb = ResidentMb();
  result.ok = true;
  return result;
}

}  // namespace
}  // namespace ray

int main(int argc, char** argv) {
  using namespace ray;
  const bool smoke =
      argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::Banner("Actor density", "resident actors per node on the fiber runtime",
                smoke ? "smoke: one 10k rung" : "ladder: 1k / 10k / 100k actors, one node");

  std::vector<int> rungs;
  if (smoke || bench::QuickMode()) {
    rungs = {10'000};
  } else {
    rungs = {1'000, 10'000, 100'000};
  }
  const int sample_calls = smoke || bench::QuickMode() ? 500 : 2'000;

  bench::BenchJson json("actor_density");
  json.Set("smoke", smoke ? 1.0 : 0.0).Set("sample_calls", sample_calls);
  std::printf("%-10s %-10s %-10s %-10s %-10s %-12s %-12s %-8s\n", "actors", "resident",
              "create(s)", "p50(us)", "p99(us)", "parks", "switches", "rss(MB)");

  double max_resident = 0;
  std::vector<RungResult> results;
  for (int n : rungs) {
    auto r = Run(n, sample_calls);
    if (!r.ok) {
      return 1;
    }
    results.push_back(r);
    max_resident = std::max(max_resident, static_cast<double>(r.resident_actors));
    json.AddRow("rungs", {{"actors", static_cast<double>(r.actors)},
                          {"resident_actors", static_cast<double>(r.resident_actors)},
                          {"create_s", r.create_seconds},
                          {"p50_us", r.p50_us},
                          {"p99_us", r.p99_us},
                          {"fiber_parks", static_cast<double>(r.fiber_parks)},
                          {"fiber_switches", static_cast<double>(r.fiber_switches)},
                          {"resident_fibers", static_cast<double>(r.resident_fibers)},
                          {"rss_mb", r.rss_mb}});
    std::printf("%-10d %-10zu %-10.2f %-10.1f %-10.1f %-12llu %-12llu %-8.0f\n", r.actors,
                r.resident_actors, r.create_seconds, r.p50_us, r.p99_us,
                static_cast<unsigned long long>(r.fiber_parks),
                static_cast<unsigned long long>(r.fiber_switches), r.rss_mb);
  }
  json.Set("max_resident_actors", max_resident);
  json.Write();

  if (smoke) {
    const auto& r = results.back();
    if (r.resident_actors < 10'000) {
      std::fprintf(stderr, "smoke FAIL: %zu resident actors < 10000\n", r.resident_actors);
      return 1;
    }
    if (r.fiber_parks == 0) {
      std::fprintf(stderr, "smoke FAIL: zero fiber parks — actors are not parked fibers\n");
      return 1;
    }
    std::printf("smoke OK: %zu resident actors, %llu fiber parks\n", r.resident_actors,
                static_cast<unsigned long long>(r.fiber_parks));
    return 0;
  }

  // The density claim: hosting 100x more actors must not blow up call
  // latency — idle actors are parked fibers that cost the dispatch path
  // nothing. Allow 10x on p99 for the bigger mailbox/census structures.
  const auto& small = results.front();
  const auto& big = results.back();
  if (big.p99_us >= 10.0 * std::max(small.p99_us, 1.0)) {
    std::fprintf(stderr, "FAIL: p99 at %d actors (%.1fus) >= 10x p99 at %d (%.1fus)\n",
                 big.actors, big.p99_us, small.actors, small.p99_us);
    return 1;
  }
  std::printf("\nexpectation: p99 grows far less than linearly with residency "
              "(measured %.1fus @ %d vs %.1fus @ %d actors).\n",
              small.p99_us, small.actors, big.p99_us, big.actors);
  return 0;
}
