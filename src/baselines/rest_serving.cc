#include "baselines/rest_serving.h"

#include <thread>

#include "common/clock.h"
#include "common/sync.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"

namespace ray {
namespace baselines {

RestServingModel::RestServingModel(std::vector<int> layer_sizes, int64_t extra_eval_us,
                                   const RestCostModel& cost)
    : model_(std::move(layer_sizes), 5), extra_eval_us_(extra_eval_us), cost_(cost) {}

void RestServingModel::ChargeTransferCosts(size_t payload_bytes) const {
  double inflated = static_cast<double>(payload_bytes) * cost_.encoding_inflation;
  // Client encode + server decode of the request.
  int64_t serialize_us =
      static_cast<int64_t>(2.0 * static_cast<double>(payload_bytes) / cost_.serialize_bytes_per_sec * 1e6);
  int64_t socket_us = static_cast<int64_t>(inflated / cost_.socket_bytes_per_sec * 1e6);
  SleepMicros(serialize_us + socket_us + cost_.request_latency_us);
}

std::vector<float> RestServingModel::Evaluate(const std::vector<float>& states, int batch) {
  int in = model_.layer_sizes().front();
  int out = model_.layer_sizes().back();
  RAY_CHECK(states.size() >= static_cast<size_t>(batch) * in);
  // Request path: encode + socket + decode.
  ChargeTransferCosts(states.size() * sizeof(float));
  // Model evaluation (identical work to the Ray server).
  std::vector<float> actions(static_cast<size_t>(batch) * out);
  std::vector<float> state(in);
  for (int b = 0; b < batch; ++b) {
    std::copy(states.begin() + static_cast<size_t>(b) * in,
              states.begin() + static_cast<size_t>(b + 1) * in, state.begin());
    std::vector<float> a = model_.Forward(state);
    std::copy(a.begin(), a.end(), actions.begin() + static_cast<size_t>(b) * out);
  }
  SleepMicros(extra_eval_us_);
  // Response path.
  ChargeTransferCosts(actions.size() * sizeof(float));
  return actions;
}

RestServingModel::Stats RestServingModel::Drive(int state_dim, int batch, double duration_seconds,
                                                int num_clients) {
  Histogram latency;
  Counter served;
  // The REST server handles one request at a time (single worker process).
  Mutex server_mu{"RestServing.server_mu"};
  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(c + 1);
      std::vector<float> states = rng.NormalVector(static_cast<size_t>(batch) * state_dim);
      while (wall.ElapsedSeconds() < duration_seconds) {
        Timer req;
        {
          MutexLock lock(server_mu);
          Evaluate(states, batch);
        }
        latency.Observe(req.ElapsedMillis());
        served.Add(batch);
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  Stats stats;
  stats.total_states = served.Value();
  stats.states_per_second = static_cast<double>(served.Value()) / wall.ElapsedSeconds();
  stats.mean_latency_ms = latency.Mean();
  return stats;
}

}  // namespace baselines
}  // namespace ray
