// Fig. 9: object store write throughput and IOPS. Large-object writes are
// memcpy-bound (thread sweep 1-16 over the parallel copy path); small-object
// writes are dominated by per-object overheads (metadata + location
// publication), reported as IOPS. NOTE: on a single-core machine the thread
// sweep cannot show real speedup — the series is still printed so the shape
// can be compared on larger hardware.
//
// Also benches the pull data plane (BENCH_data_plane.json): chunk-size sweep
// of a remote pull (chunked pipelining vs the monolithic pre-refactor shape)
// and duplicate-pull fan-in (N concurrent Gets of one remote object dedup
// into a single transfer). `--smoke` runs only a tiny data-plane pass — the
// tier-1 CI hook.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "gcs/tables.h"
#include "net/sim_network.h"
#include "objectstore/object_store.h"
#include "objectstore/pull_manager.h"

namespace ray {
namespace {

struct StoreFixture {
  explicit StoreFixture(int threads)
      : gcs(gcs::GcsConfig{}), tables(&gcs), net(NetConfig{}), store(NodeId::FromRandom(), &tables,
                                                                    &net, MakeConfig(threads)) {}

  static ObjectStoreConfig MakeConfig(int threads) {
    ObjectStoreConfig config;
    config.capacity_bytes = 8ull << 30;
    config.num_transfer_threads = threads;
    return config;
  }

  gcs::Gcs gcs;
  gcs::GcsTables tables;
  SimNetwork net;
  ObjectStore store;
};

// One write = allocate destination + parallel memcpy from the client source
// + seal (publish location). This is the client->shared-memory copy path.
double WriteThroughputGbps(StoreFixture& fx, size_t object_bytes, int threads, int iterations) {
  std::vector<uint8_t> source(object_bytes, 0xab);
  ThreadPool pool(static_cast<size_t>(threads));
  {
    // Untimed warm-up copy: the pool starts its threads on first use, and
    // the sweep measures copying, not thread starts.
    Buffer warm(object_bytes);
    ParallelCopy(warm.MutableData(), source.data(), object_bytes, threads, pool);
  }
  Timer timer;
  for (int i = 0; i < iterations; ++i) {
    auto buffer = std::make_shared<Buffer>(object_bytes);
    ParallelCopy(buffer->MutableData(), source.data(), object_bytes, threads, pool);
    fx.store.Put(ObjectId::FromRandom(), std::move(buffer));
  }
  double seconds = timer.ElapsedSeconds();
  return static_cast<double>(object_bytes) * iterations / seconds / 1e9;
}

double WriteIops(StoreFixture& fx, size_t object_bytes, int iterations) {
  std::vector<uint8_t> source(object_bytes, 0xcd);
  Timer timer;
  for (int i = 0; i < iterations; ++i) {
    fx.store.Put(ObjectId::FromRandom(), std::make_shared<Buffer>(source.data(), object_bytes));
  }
  return iterations / timer.ElapsedSeconds();
}

// --- data plane: pull path ---

// Fast simulated interconnect: wire time is comparable to memcpy time, so
// the chunk pipeline's transfer/copy overlap is visible in wall clock.
NetConfig DataPlaneNet() {
  NetConfig config;
  config.latency_us = 20;
  config.link_bandwidth_bytes_s = 5e9;
  config.per_stream_bandwidth_bytes_s = 1.25e9;
  return config;
}

struct PullFixture {
  explicit PullFixture(size_t chunk_bytes)
      : gcs(gcs::GcsConfig{}),
        tables(&gcs),
        net(DataPlaneNet()),
        src(NodeId::FromRandom(), &tables, &net, MakeConfig(chunk_bytes)),
        dst(NodeId::FromRandom(), &tables, &net, MakeConfig(chunk_bytes)) {
    auto resolver = [this](const NodeId& id) -> ObjectStore* {
      if (id == src.node()) {
        return &src;
      }
      return id == dst.node() ? &dst : nullptr;
    };
    src.SetPeerResolver(resolver);
    dst.SetPeerResolver(resolver);
  }

  static ObjectStoreConfig MakeConfig(size_t chunk_bytes) {
    ObjectStoreConfig config;
    config.capacity_bytes = 2ull << 30;
    config.num_transfer_threads = 4;
    config.pull_chunk_bytes = chunk_bytes;
    return config;
  }

  gcs::Gcs gcs;
  gcs::GcsTables tables;
  SimNetwork net;
  ObjectStore src;
  ObjectStore dst;
};

// One cold remote pull of `object_bytes` with the given chunking; fresh
// fixture per run so nothing is cached. Returns seconds, or < 0 on failure.
double PullOnceSeconds(size_t object_bytes, size_t chunk_bytes) {
  PullFixture fx(chunk_bytes);
  ObjectId id = ObjectId::FromRandom();
  auto buffer = std::make_shared<Buffer>(object_bytes);
  std::memset(buffer->MutableData(), 0x5a, object_bytes);
  fx.src.Put(id, std::move(buffer));
  Timer timer;
  if (!fx.dst.Fetch(id, fx.src.node()).ok()) {
    return -1.0;
  }
  return timer.ElapsedSeconds();
}

struct FaninResult {
  double seconds = -1.0;
  uint64_t wire_bytes = 0;
  uint64_t transfers = 0;
  uint64_t deduped = 0;
};

// N concurrent Gets of one remote object: with in-flight dedup they ride a
// single pull (wire bytes == object bytes), where the old thread-per-Get
// path moved the object N times.
FaninResult DuplicatePullFanin(size_t object_bytes, int getters) {
  PullFixture fx(/*chunk_bytes=*/8ull << 20);
  ObjectId id = ObjectId::FromRandom();
  auto buffer = std::make_shared<Buffer>(object_bytes);
  std::memset(buffer->MutableData(), 0x77, object_bytes);
  fx.src.Put(id, std::move(buffer));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(getters);
  Timer timer;
  for (int i = 0; i < getters; ++i) {
    threads.emplace_back([&] {
      if (!fx.dst.Get(id, 30'000'000).ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  FaninResult r;
  if (failures.load() == 0) {
    r.seconds = timer.ElapsedSeconds();
  }
  r.wire_bytes = fx.net.TotalBytesTransferred();
  r.transfers = fx.net.NumTransfers();
  r.deduped = fx.dst.pull_manager().NumPullsDeduped();
  return r;
}

// Runs the data-plane benches; returns false if any pull failed (smoke gate).
bool RunDataPlane(bool smoke) {
  bool quick = smoke || bench::QuickMode();
  bench::BenchJson json("data_plane");
  size_t object_bytes = quick ? (32ull << 20) : (128ull << 20);
  int iterations = quick ? 2 : 5;
  json.Set("object_bytes", static_cast<double>(object_bytes));
  bool ok = true;

  std::printf("\n-- pull chunk-size sweep (%s remote object, best of %d) --\n",
              bench::HumanBytes(object_bytes).c_str(), iterations);
  std::printf("%-12s %-10s %-10s\n", "chunk", "ms", "GB/s");
  double monolithic_gbps = 0.0;
  double best_chunked_gbps = 0.0;
  std::vector<size_t> chunk_sizes{0, 2ull << 20, 4ull << 20, 8ull << 20, 16ull << 20};
  for (size_t chunk : chunk_sizes) {
    double best = -1.0;
    for (int i = 0; i < iterations; ++i) {
      double secs = PullOnceSeconds(object_bytes, chunk);
      if (secs < 0) {
        ok = false;
        continue;
      }
      if (best < 0 || secs < best) {
        best = secs;
      }
    }
    if (best < 0) {
      continue;
    }
    double gbps = static_cast<double>(object_bytes) / best / 1e9;
    if (chunk == 0) {
      monolithic_gbps = gbps;
    } else if (gbps > best_chunked_gbps) {
      best_chunked_gbps = gbps;
    }
    std::printf("%-12s %-10.2f %-10.2f\n",
                chunk == 0 ? "monolithic" : bench::HumanBytes(chunk).c_str(), best * 1e3, gbps);
    json.AddRow("chunk_sweep", {{"chunk_bytes", static_cast<double>(chunk)},
                                {"seconds", best},
                                {"gbps", gbps}});
  }
  if (monolithic_gbps > 0 && best_chunked_gbps > 0) {
    std::printf("chunked-vs-monolithic speedup: %.2fx\n", best_chunked_gbps / monolithic_gbps);
    json.Set("monolithic_gbps", monolithic_gbps);
    json.Set("best_chunked_gbps", best_chunked_gbps);
    json.Set("chunked_speedup", best_chunked_gbps / monolithic_gbps);
  }

  size_t fanin_bytes = quick ? (16ull << 20) : (64ull << 20);
  std::printf("\n-- duplicate-pull fan-in (%s object, concurrent Gets) --\n",
              bench::HumanBytes(fanin_bytes).c_str());
  std::printf("%-8s %-10s %-12s %-10s\n", "getters", "ms", "wire bytes", "dedup");
  for (int getters : {1, 2, 4, 8, 16}) {
    FaninResult r = DuplicatePullFanin(fanin_bytes, getters);
    if (r.seconds < 0) {
      ok = false;
      continue;
    }
    double dedup = static_cast<double>(fanin_bytes) * getters / static_cast<double>(r.wire_bytes);
    std::printf("%-8d %-10.2f %-12s %.1fx\n", getters, r.seconds * 1e3,
                bench::HumanBytes(r.wire_bytes).c_str(), dedup);
    json.AddRow("fanin", {{"getters", static_cast<double>(getters)},
                          {"object_bytes", static_cast<double>(fanin_bytes)},
                          {"seconds", r.seconds},
                          {"wire_bytes", static_cast<double>(r.wire_bytes)},
                          {"transfers", static_cast<double>(r.transfers)},
                          {"dedup_factor", dedup}});
  }
  json.Write();
  return ok;
}

}  // namespace
}  // namespace ray

int main(int argc, char** argv) {
  using namespace ray;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (smoke) {
    // Tier-1 CI hook: tiny data-plane pass, nonzero exit if any pull fails.
    bench::Banner("data plane smoke", "pull chunk sweep + duplicate-pull fan-in", "smoke sizes");
    bool ok = RunDataPlane(/*smoke=*/true);
    std::printf(ok ? "data plane smoke: OK\n" : "data plane smoke: FAILED\n");
    return ok ? 0 : 1;
  }
  bench::Banner("Figure 9", "object store write throughput (GB/s) and IOPS",
                "sizes 1KB-1GB -> 1KB-256MB; threads {1,2,4,8,16}; single-core host caveat in text");
  bench::BenchJson json("object_store");

  std::printf("-- write throughput (GB/s) by object size and copy threads --\n");
  std::printf("%-10s", "obj size");
  for (int threads : {1, 2, 4, 8, 16}) {
    std::printf(" t=%-8d", threads);
  }
  std::printf("\n");
  size_t max_size = bench::QuickMode() ? (16ull << 20) : (256ull << 20);
  for (size_t bytes = 1ull << 20; bytes <= max_size; bytes *= 4) {
    std::printf("%-10s", bench::HumanBytes(bytes).c_str());
    for (int threads : {1, 2, 4, 8, 16}) {
      StoreFixture fx(threads);
      int iters = static_cast<int>(std::max<size_t>(3, (64ull << 20) / bytes));
      double gbps = WriteThroughputGbps(fx, bytes, threads, iters);
      std::printf(" %-10.2f", gbps);
      json.AddRow("write_throughput", {{"bytes", static_cast<double>(bytes)},
                                       {"threads", static_cast<double>(threads)},
                                       {"gbps", gbps}});
    }
    std::printf("\n");
  }

  std::printf("\n-- small-object IOPS (single client) --\n");
  std::printf("%-10s %-12s\n", "obj size", "IOPS");
  for (size_t bytes : {1ull << 10, 10ull << 10, 100ull << 10}) {
    StoreFixture fx(1);
    double iops = WriteIops(fx, bytes, bench::QuickMode() ? 2000 : 20000);
    std::printf("%-10s %-12.0f\n", bench::HumanBytes(bytes).c_str(), iops);
    json.AddRow("iops", {{"bytes", static_cast<double>(bytes)}, {"iops", iops}});
  }
  json.Write();

  return RunDataPlane(/*smoke=*/false) ? 0 : 1;
}
