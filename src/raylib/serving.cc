#include "raylib/serving.h"

#include <thread>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace ray {
namespace raylib {

int PolicyServer::Init(std::vector<int> layer_sizes, int64_t extra_eval_us) {
  model_ = std::make_unique<nn::Mlp>(layer_sizes, 5);
  extra_eval_us_ = extra_eval_us;
  num_requests_ = 0;
  return static_cast<int>(model_->NumParams());
}

std::vector<float> PolicyServer::Evaluate(std::vector<float> states, int batch) {
  int in = model_->layer_sizes().front();
  int out = model_->layer_sizes().back();
  RAY_CHECK(states.size() >= static_cast<size_t>(batch) * in) << "batch shorter than declared";
  std::vector<float> actions(static_cast<size_t>(batch) * out);
  std::vector<float> state(in);
  for (int b = 0; b < batch; ++b) {
    std::copy(states.begin() + static_cast<size_t>(b) * in,
              states.begin() + static_cast<size_t>(b + 1) * in, state.begin());
    std::vector<float> a = model_->Forward(state);
    std::copy(a.begin(), a.end(), actions.begin() + static_cast<size_t>(b) * out);
  }
  SleepMicros(extra_eval_us_);
  ++num_requests_;
  return actions;
}

void RegisterServingSupport(Cluster& cluster) {
  cluster.RegisterActorClass<PolicyServer>("PolicyServer");
  cluster.RegisterActorMethod("PolicyServer", "Init", &PolicyServer::Init);
  cluster.RegisterActorMethod("PolicyServer", "Evaluate", &PolicyServer::Evaluate);
  cluster.RegisterActorMethod("PolicyServer", "NumRequests", &PolicyServer::NumRequests);
}

ServingStats DriveServing(Ray ray, ActorHandle& server, int state_dim, int batch,
                          double duration_seconds, int num_clients) {
  Histogram latency;
  Counter states_served;
  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(c + 1);
      std::vector<float> states = rng.NormalVector(static_cast<size_t>(batch) * state_dim);
      while (wall.ElapsedSeconds() < duration_seconds) {
        Timer req;
        // The batch enters the object store once (one memcpy) and is read
        // zero-copy by the co-located server actor.
        auto states_ref = ray.Put(states);
        auto actions = ray.Get(server.Call<std::vector<float>>("Evaluate", states_ref, batch),
                               30'000'000);
        RAY_CHECK(actions.ok()) << actions.status().ToString();
        latency.Observe(req.ElapsedMillis());
        states_served.Add(batch);
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  ServingStats stats;
  stats.total_states = states_served.Value();
  stats.states_per_second = static_cast<double>(states_served.Value()) / wall.ElapsedSeconds();
  stats.mean_latency_ms = latency.Mean();
  return stats;
}

}  // namespace raylib
}  // namespace ray
