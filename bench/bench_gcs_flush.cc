// Fig. 10b: GCS flushing caps the memory footprint. The paper submits 50
// million no-op tasks; lineage entries accumulate in the GCS until memory is
// exhausted unless flushing demotes them to disk. We drive the same write
// pattern (task spec + state records) directly against the GCS at scale and
// report the memory/disk split over time with flushing on vs off.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/id.h"
#include "gcs/gcs.h"
#include "gcs/tables.h"

namespace ray {
namespace {

void Run(bool flush_enabled, int num_tasks, int report_every, bench::BenchJson& json) {
  gcs::GcsConfig config;
  config.num_shards = 4;
  config.flush_threshold_bytes = flush_enabled ? (4u << 20) : 0;
  gcs::Gcs gcs(config);
  gcs.AddFlushablePrefix(gcs::TaskTable::kKeyPrefix);
  gcs::TaskTable tasks(&gcs);
  NodeId node = NodeId::FromRandom();

  std::printf("-- %s --\n", flush_enabled ? "with GCS flush (threshold 4MB)" : "no GCS flush");
  std::printf("%-12s %-14s %-14s\n", "tasks", "memory (MB)", "disk (MB)");
  const std::string spec(200, 's');  // ≈ an empty TaskSpec's serialized size
  for (int t = 1; t <= num_tasks; ++t) {
    TaskId id = TaskId::FromRandom();
    tasks.AddTask(id, node, spec);
    tasks.SetState(id, gcs::TaskState::kDone, node);
    if (t % report_every == 0) {
      double mem_mb = gcs.MemoryBytes() / 1048576.0;
      double disk_mb = gcs.DiskBytes() / 1048576.0;
      std::printf("%-12d %-14.2f %-14.2f\n", t, mem_mb, disk_mb);
      json.AddRow(flush_enabled ? "with_flush" : "no_flush",
                  {{"tasks", static_cast<double>(t)},
                   {"memory_mb", mem_mb},
                   {"disk_mb", disk_mb}});
    }
  }
  std::printf("\n");
}

}  // namespace
}  // namespace ray

int main() {
  using namespace ray;
  bench::Banner("Figure 10b", "GCS memory footprint with and without lineage flushing",
                "50M no-op tasks -> 200K lineage records");
  int tasks = bench::QuickMode() ? 20'000 : 200'000;
  bench::BenchJson json("gcs_flush");
  json.Set("num_tasks", tasks).Set("flush_threshold_mb", 4);
  Run(false, tasks, tasks / 10, json);
  Run(true, tasks, tasks / 10, json);
  std::printf("expectation: without flushing memory grows linearly (paper: workload eventually\n"
              "stalls at memory capacity); with flushing memory stays at the threshold and\n"
              "lineage accumulates on disk instead.\n");
  json.Write();
  return 0;
}
