// Extension ablation: int8 serving of the pool.
//
// The paper notes KD is orthogonal to quantization (Section 2). This bench
// composes them on the int8 path serving uses: the pool is measured at
// f32, switched in place to int8 serving (per-output-channel weight
// scales, dynamic activation scales), and measured again. A reloaded copy
// of the f32 pool is then calibrated on 64 training images and switched
// to int8 with those static activation scales: the form `poectl
// calibrate` writes and the bulk_int8 workload serves. "Bytes" is what a
// pool file stores per module at each precision.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/bench_env.h"
#include "core/serialization.h"
#include "core/task_model.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace poe {
namespace bench {
namespace {

// Sum of the pool-file section payloads of the library and every expert
// at the pool's current precision.
int64_t PoolPayloadBytes(const ExpertPool& pool) {
  int64_t bytes = static_cast<int64_t>(
      SerializeModulePayload(*pool.library()).ValueOrDie().size());
  for (int t = 0; t < pool.num_experts(); ++t) {
    bytes += static_cast<int64_t>(
        SerializeModulePayload(*pool.expert(t)).ValueOrDie().size());
  }
  return bytes;
}

// Accuracy of a freshly assembled model for `tasks` on `test`.
float QueryAccuracy(const ExpertPool& pool, const std::vector<int>& tasks,
                    const Dataset& test) {
  TaskModel model = pool.Query(tasks).ValueOrDie();
  return EvaluateAccuracy([&](const Tensor& x) { return model.Logits(x); },
                          test);
}

void RunDataset(DatasetKind kind) {
  BenchEnv& env = GetBenchEnv(kind);

  // Accuracy at each precision on a 3-task query.
  std::vector<int> tasks(env.selected_tasks.begin(),
                         env.selected_tasks.begin() + 3);
  Dataset test = FilterClasses(
      env.data.test, env.data.hierarchy.CompositeClasses(tasks), true);

  const int64_t float_bytes = PoolPayloadBytes(*env.pool);
  const float acc_float = QueryAccuracy(*env.pool, tasks, test);
  // The f32 pool reloaded: its own modules, for the calibrated row.
  const std::string f32_path =
      (std::filesystem::temp_directory_path() / "poe_ablation_f32.poe")
          .string();
  POE_CHECK(env.pool->Save(f32_path).ok());
  ExpertPool calibrated = ExpertPool::Load(f32_path).ValueOrDie();
  std::filesystem::remove(f32_path);

  POE_CHECK(env.pool->SetServingPrecision(ServingPrecision::kInt8).ok());
  const int64_t int8_bytes = PoolPayloadBytes(*env.pool);
  const float acc_int8 = QueryAccuracy(*env.pool, tasks, test);

  POE_CHECK(
      calibrated.CalibrateActivations(SliceRows(env.data.train.images, 0, 64))
          .ok());
  POE_CHECK(calibrated.SetServingPrecision(ServingPrecision::kInt8).ok());
  const int64_t calibrated_bytes = PoolPayloadBytes(calibrated);
  const float acc_calibrated = QueryAccuracy(calibrated, tasks, test);

  std::printf("\n=== Quantization ablation [%s] ===\n", env.name.c_str());
  TablePrinter table({"Pool storage", "Bytes", "Acc on 3-task Q (%)"});
  table.AddRow({"float32", TablePrinter::HumanBytes(float_bytes),
                TablePrinter::Pct(acc_float)});
  table.AddRow({"int8 (dynamic scales)", TablePrinter::HumanBytes(int8_bytes),
                TablePrinter::Pct(acc_int8)});
  table.AddRow({"int8 (calibrated scales)",
                TablePrinter::HumanBytes(calibrated_bytes),
                TablePrinter::Pct(acc_calibrated)});
  std::printf("%s", table.ToString().c_str());
  const auto check = [&](const char* what, int64_t bytes, float acc) {
    std::printf(
        "shape check (%s): >3x smaller (%.2fx) with <2%% accuracy change "
        "(|delta|=%.2f%%): %s\n",
        what, static_cast<double>(float_bytes) / bytes,
        100.0 * std::abs(acc_float - acc),
        (float_bytes > 3 * bytes && std::abs(acc_float - acc) < 0.02f)
            ? "holds"
            : "violated");
  };
  check("int8, dynamic scales", int8_bytes, acc_int8);
  check("int8, calibrated scales", calibrated_bytes, acc_calibrated);
}

}  // namespace
}  // namespace bench
}  // namespace poe

int main() {
  poe::bench::RunDataset(poe::bench::DatasetKind::kCifar100Like);
  return 0;
}
