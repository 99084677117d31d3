#include "nn/sequential.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "nn/activations.h"
#include "tensor/ops.h"
#include "util/parallel_for.h"

namespace poe {

Module* Sequential::Add(ModulePtr module) {
  POE_CHECK(module != nullptr);
  modules_.push_back(std::move(module));
  return modules_.back().get();
}

namespace {

// Rows per depth-first inference pass. Swept over 1/2/4/8/whole batch on
// perfbench bulk_int8 (goodput, peak RSS) and interactive_f32 (goodput)
// on a 4-core Xeon VM; docs/PERF.md, "Depth-first inference".
constexpr int64_t kRowsPerPass = 2;

// Rows per pass for a `batch`-row inference call: batch / N on N
// workers, so each worker gets a pass, clamped to [1, kRowsPerPass].
// A result of `batch` or more keeps the whole-batch loop; that holds for
// batch 1, whose convs split each GEMM's tiles across the workers.
int64_t RowsPerPass(int64_t batch) {
  return std::clamp<int64_t>(batch / NumThreads(), 1, kRowsPerPass);
}

}  // namespace

Tensor Sequential::Forward(const Tensor& input, bool training) {
  if (!training && input.ndim() > 0) {
    const int64_t rows = RowsPerPass(input.dim(0));
    if (rows < input.dim(0) && !CouplesRows()) {
      return ForwardInRowPasses(input, rows);
    }
  }
  return ForwardModules(input, training);
}

Tensor Sequential::ForwardInRowPasses(const Tensor& input, int64_t rows) {
  const int64_t batch = input.dim(0);
  Tensor output;
  int64_t row_size = 0;
  std::once_flag shaped;
  ParallelFor(
      (batch + rows - 1) / rows,
      [&](int64_t begin, int64_t end) {
        for (int64_t pass = begin; pass < end; ++pass) {
          const int64_t first = pass * rows;
          const int64_t last = std::min(batch, first + rows);
          const Tensor y = ForwardModules(SliceRows(input, first, last),
                                          /*training=*/false);
          POE_CHECK_EQ(y.dim(0), last - first);
          std::call_once(shaped, [&] {
            std::vector<int64_t> shape = y.shape();
            shape[0] = batch;
            output = Tensor::Uninitialized(std::move(shape));
            row_size = y.numel() / (last - first);
          });
          std::memcpy(output.data() + first * row_size, y.data(),
                      sizeof(float) * y.numel());
        }
      },
      /*min_chunk=*/1);
  return output;
}

Tensor Sequential::ForwardModules(const Tensor& input, bool training) {
  Tensor x = input;
  for (size_t i = 0; i < modules_.size(); ++i) {
    // At inference, collapse `X -> ReLU` into X's fused epilogue so the
    // activation costs no extra pass over the tensor.
    if (!training && i + 1 < modules_.size() && modules_[i]->CanFuseRelu() &&
        dynamic_cast<const ReLU*>(modules_[i + 1].get()) != nullptr) {
      x = modules_[i]->ForwardFusedRelu(x);
      ++i;
      continue;
    }
    x = modules_[i]->Forward(x, training);
  }
  return x;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

void Sequential::CollectParameters(std::vector<Parameter*>* out) {
  for (auto& m : modules_) m->CollectParameters(out);
}

void Sequential::CollectBuffers(std::vector<Tensor*>* out) {
  for (auto& m : modules_) m->CollectBuffers(out);
}

void Sequential::PrepareInt8Serving() {
  for (auto& m : modules_) m->PrepareInt8Serving();
}

int64_t Sequential::Int8WeightBytes() const {
  int64_t total = 0;
  for (const auto& m : modules_) total += m->Int8WeightBytes();
  return total;
}

}  // namespace poe
