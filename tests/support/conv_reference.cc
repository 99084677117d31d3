#include "support/conv_reference.h"

#include <utility>

#include "nn/sequential.h"
#include "support/im2col.h"
#include "tensor/arena.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace poe {

Im2ColConv::Im2ColConv(Conv2d& conv, bool prepacked)
    : in_c_(conv.in_channels()),
      out_c_(conv.out_channels()),
      kernel_(conv.kernel()),
      stride_(conv.stride()),
      pad_(conv.pad()),
      int8_(conv.int8_serving()) {
  if (conv.has_bias()) {
    const Tensor& b = conv.bias().value;
    bias_.assign(b.data(), b.data() + b.numel());
  }
  const int64_t ckk = in_c_ * kernel_ * kernel_;
  if (int8_) {
    Result<Int8WeightState> state = conv.ExportInt8State();
    POE_CHECK(state.ok()) << state.status().ToString();
    const Int8WeightState& s = state.ValueOrDie();
    qweight_ =
        PackedS8Weights::PackConv(out_c_, in_c_, kernel_, s.values.data());
    wscales_ = s.scales;
    act_scale_ = s.act_scale;
    return;
  }
  const float* w = conv.weight().value.data();
  if (prepacked) {
    packed_ = PackedAWeights::Pack(/*trans_a=*/false, out_c_, ckk, w);
  } else {
    weight_.assign(w, w + out_c_ * ckk);
  }
}

Tensor Im2ColConv::Forward(const Tensor& input, bool relu) const {
  POE_CHECK_EQ(input.ndim(), 4);
  POE_CHECK_EQ(input.dim(1), in_c_);
  const int64_t batch = input.dim(0);
  const int64_t h = input.dim(2);
  const int64_t w = input.dim(3);
  const int64_t out_h = ConvOutSize(h, kernel_, pad_, stride_);
  const int64_t out_w = ConvOutSize(w, kernel_, pad_, stride_);
  const int64_t ohw = out_h * out_w;
  const int64_t chw = in_c_ * h * w;
  const int64_t ckk = in_c_ * kernel_ * kernel_;
  const int64_t out_size = out_c_ * ohw;
  Tensor output = Tensor::Uninitialized({batch, out_c_, out_h, out_w});
  const float* in = input.data();
  float* out = output.data();
  const float* row_bias = bias_.empty() ? nullptr : bias_.data();
  const float act_scale =
      !int8_ || act_scale_ > 0.0f ? act_scale_
                                  : SymmetricScaleS8(in, input.numel());
  const bool gemm_parallel =
      batch < NumThreads() && GemmParallelTiles(out_c_, ohw) > batch;

  auto run_range = [&](int64_t begin, int64_t end) {
    ScratchScope scope;
    if (int8_) {
      int8_t* q = AllocS8(scope, chw);
      int8_t* cols = AllocS8(scope, qweight_.depth() * ohw);
      GemmS8Epilogue ep;
      ep.scale = act_scale;
      ep.row_scale = wscales_.data();
      ep.row_bias = row_bias;
      ep.relu = relu;
      for (int64_t b = begin; b < end; ++b) {
        QuantizeBufferS8(in + b * chw, chw, 1.0f / act_scale, q);
        Im2Col(q, in_c_, h, w, kernel_, kernel_, pad_, stride_, cols,
               GemmS8KGroup());
        GemmS8PackedA(qweight_, ohw, cols, out + b * out_size, ep,
                      gemm_parallel);
      }
      return;
    }
    float* cols = scope.Alloc(ckk * ohw);
    GemmEpilogue ep;
    ep.row_bias = row_bias;
    ep.relu = relu;
    for (int64_t b = begin; b < end; ++b) {
      Im2Col(in + b * chw, in_c_, h, w, kernel_, kernel_, pad_, stride_,
             cols);
      float* out_b = out + b * out_size;
      if (!packed_.empty()) {
        GemmPackedA(packed_, ohw, cols, 1.0f, 0.0f, out_b, ep, gemm_parallel);
      } else {
        GemmEx(false, false, out_c_, ohw, ckk, 1.0f, weight_.data(), cols,
               0.0f, out_b, ep, gemm_parallel);
      }
    }
  };
  if (gemm_parallel) {
    run_range(0, batch);
  } else {
    ParallelFor(batch, run_range, /*min_chunk=*/1);
  }
  return output;
}

Tensor Im2ColForward(Conv2d& conv, const Tensor& input, bool relu) {
  return Im2ColConv(conv).Forward(input, relu);
}

Tensor UnfusedBlock(BasicBlock& block, const Tensor& x,
                    const ConvForwardFn& conv) {
  std::vector<Module*> parts;
  block.CollectChildren(&parts);
  auto* bn1 = static_cast<BatchNorm2d*>(parts[0]);
  auto* conv1 = static_cast<Conv2d*>(parts[1]);
  auto* bn2 = static_cast<BatchNorm2d*>(parts[2]);
  auto* conv2 = static_cast<Conv2d*>(parts[3]);
  const Tensor a = bn1->ForwardFusedRelu(x);
  const Tensor h = bn2->ForwardFusedRelu(conv(*conv1, a));
  const Tensor out = conv(*conv2, h);
  if (parts.size() == 5) {
    return Add(out, conv(*static_cast<Conv2d*>(parts[4]), a));
  }
  return Add(out, x);
}

namespace {

// One Sequential's modules in order, each conv on the reference.
Tensor Im2ColChain(Sequential& seq, Tensor x, int64_t* convs) {
  const ConvForwardFn reference = [convs](Conv2d& conv, const Tensor& in) {
    ++*convs;
    return Im2ColForward(conv, in);
  };
  for (size_t i = 0; i < seq.size(); ++i) {
    Module* m = seq.at(i);
    if (auto* conv = dynamic_cast<Conv2d*>(m)) {
      x = reference(*conv, x);
    } else if (auto* block = dynamic_cast<BasicBlock*>(m)) {
      x = UnfusedBlock(*block, x, reference);
    } else {
      x = m->Forward(x, /*training=*/false);
    }
  }
  return x;
}

}  // namespace

Tensor Im2ColLogits(TaskModel& model, const Tensor& images,
                    int64_t* reference_convs) {
  int64_t convs = 0;
  const Tensor features = Im2ColChain(*model.trunk(), images, &convs);
  std::vector<Tensor> parts;
  for (int i = 0; i < model.num_branches(); ++i) {
    parts.push_back(Im2ColChain(*model.branch(i).head, features, &convs));
  }
  if (reference_convs != nullptr) *reference_convs += convs;
  return ConcatColumns(parts);
}

}  // namespace poe
