#include "nn/conv2d.h"

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

#include "nn/init.h"
#include "tensor/arena.h"
#include "tensor/im2col.h"
#include "util/parallel_for.h"

namespace poe {

namespace {

// The output of a forward: a fresh [batch, c, h, w] tensor, or none when
// the fused epilogue writes a next conv's images instead.
Tensor MakeOutput(const ConvTileEpilogue* fused, int64_t batch, int64_t c,
                  int64_t h, int64_t w) {
  if (fused != nullptr && fused->residual != nullptr) {
    POE_CHECK((fused->residual->shape() ==
               std::vector<int64_t>{batch, c, h, w}))
        << "residual " << fused->residual->ShapeString();
  }
  if (fused != nullptr && fused->next != nullptr) {
    const ConvImageViewS8& v = fused->next->view;
    POE_CHECK(v.channels == c && v.height == h && v.width == w &&
              v.stride == 1)
        << "next conv's images do not match this conv's output";
    POE_CHECK(fused->residual == nullptr)
        << "a tile quantized into the next conv's images takes no residual";
    return Tensor();
  }
  return Tensor::Uninitialized({batch, c, h, w});
}

}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t pad, Rng& rng, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias) {
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_ = Parameter("conv.weight",
                      HeNormal({out_channels, fan_in}, fan_in, rng));
  if (has_bias_) {
    bias_ = Parameter("conv.bias", Tensor::Zeros({out_channels}));
  }
}

Tensor Conv2d::Forward(const Tensor& input, bool training) {
  return ForwardImpl(input, training, /*fuse_relu=*/false, nullptr);
}

Tensor Conv2d::ForwardFusedRelu(const Tensor& input) {
  return ForwardImpl(input, /*training=*/false, /*fuse_relu=*/true, nullptr);
}

Tensor Conv2d::ForwardFused(const Tensor& input,
                            const ConvTileEpilogue& epilogue) {
  return ForwardImpl(input, /*training=*/false, /*fuse_relu=*/false,
                     &epilogue);
}

bool Conv2d::TakesInt8Images() const {
  return int8_serving_ && act_scale_ > 0.0f && stride_ == 1 &&
         !IsPointwise() && UseDirectConv();
}

ConvInputImages Conv2d::AllocInputImages(ScratchScope& scope, int64_t batch,
                                         int64_t h, int64_t w) const {
  POE_CHECK(TakesInt8Images());
  ConvInputImages images;
  ConvImageViewS8& v = images.view;
  v.channels = in_channels_;
  v.height = h;
  v.width = w;
  v.kernel = kernel_;
  v.pad = pad_;
  v.stride = stride_;
  v.group = GemmS8KGroup();
  images.elems = DirectImageElems(v);
  images.data = AllocS8(scope, batch * images.elems);
  images.inv_scale = 1.0f / act_scale_;
  for (int64_t b = 0; b < batch; ++b) {
    ZeroDirectImageBorder(v, images.data + b * images.elems);
  }
  return images;
}

Tensor Conv2d::ForwardImages(const ConvInputImages& images, int64_t batch,
                             const ConvTileEpilogue& epilogue) {
  POE_CHECK(TakesInt8Images());
  POE_CHECK_EQ(images.view.channels, in_channels_);
  POE_CHECK_EQ(images.view.group, GemmS8KGroup());
  return ForwardInt8(nullptr, &images, batch, images.view.height,
                     images.view.width, /*fuse_relu=*/false, &epilogue);
}

Tensor Conv2d::ForwardImpl(const Tensor& input, bool training,
                           bool fuse_relu, const ConvTileEpilogue* fused) {
  if (int8_serving_) {
    POE_CHECK(!training) << "int8-serving Conv2d is inference-only";
    POE_CHECK_EQ(input.ndim(), 4);
    return ForwardInt8(&input, nullptr, input.dim(0), input.dim(2),
                       input.dim(3), fuse_relu, fused);
  }
  POE_CHECK_EQ(input.ndim(), 4);
  POE_CHECK_EQ(input.dim(1), in_channels_);
  if (observe_act_ && !training) {
    observed_act_max_ =
        std::max(observed_act_max_, MaxAbs(input.data(), input.numel()));
  }
  const int64_t batch = input.dim(0);
  const int64_t h = input.dim(2);
  const int64_t w = input.dim(3);
  const int64_t out_h = ConvOutSize(h, kernel_, pad_, stride_);
  const int64_t out_w = ConvOutSize(w, kernel_, pad_, stride_);
  POE_CHECK_GT(out_h, 0);
  POE_CHECK_GT(out_w, 0);
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  const int64_t ohw = out_h * out_w;

  POE_CHECK(fused == nullptr || fused->next == nullptr)
      << "only an int8 conv quantizes into the next conv's images";
  Tensor output = MakeOutput(fused, batch, out_channels_, out_h, out_w);
  const float* wp = weight_.value.data();
  const float* in = input.data();
  float* out = output.data();

  GemmEpilogue ep;
  ep.row_bias = has_bias_ ? bias_.value.data() : nullptr;
  ep.relu = fuse_relu;

  // 1x1/stride-1 convolution is a plain channel-mixing GEMM: the im2col
  // matrix would be the image itself, so skip the unfold entirely.
  const bool pointwise = IsPointwise();

  // Im2col-free direct path (every geometry, inference and training): the
  // GEMM reads its B operand straight from a zero-padded image copy, split
  // by column phase when strided, or from the input itself when stride is
  // 1 and pad is 0, instead of a materialized im2col matrix. Bitwise
  // identical output (see conv_direct.h), so Backward, which re-unfolds
  // from the cached input, sees the same forward either way. im2col runs
  // only under POE_CONV_PATH=im2col.
  const bool direct = !pointwise && UseDirectConv();

  // Pack-once fast path: the persistent op(A) weight panels are bitwise
  // identical to the per-call PackA output, so the product is too.
  const bool packed = !training && f32_packed_.load(std::memory_order_acquire);
  POE_CHECK(!training || !f32_packed_.load(std::memory_order_relaxed))
      << "prepacked Conv2d is inference-only (packed panels would go stale)";

  // The pool is not reentrant, so only one level parallelizes: hand it to
  // the GEMM's macro-tile loop only when that loop both offers more
  // parallelism than the batch dimension does (the realtime query path is
  // batch 1) and the batch can't fill the workers by itself.
  const bool gemm_parallel = batch < NumThreads() &&
                             GemmParallelTiles(out_channels_, ohw) > batch;

  const int64_t out_size = out_channels_ * ohw;
  auto run_gemm = [&](const float* cols_b, int64_t b, float* out_b) {
    ConvImageFusion fusion;
    GemmEpilogue ep_b = ep;
    ep_b.tile_hook = ConvFusionHook(fused, b, out_size, out_w, &fusion);
    if (packed) {
      GemmPackedA(packed_w_, ohw, cols_b, 1.0f, 0.0f, out_b, ep_b,
                  gemm_parallel);
    } else {
      GemmEx(false, false, out_channels_, ohw, ckk, 1.0f, wp, cols_b, 0.0f,
             out_b, ep_b, gemm_parallel);
    }
  };
  auto run_range = [&](int64_t begin, int64_t end) {
    ScratchScope scope;
    float* cols = pointwise ? nullptr : scope.Alloc(ckk * ohw);
    for (int64_t b = begin; b < end; ++b) {
      const float* in_b = in + b * in_channels_ * h * w;
      float* out_b = out + b * out_size;
      if (pointwise) {
        run_gemm(in_b, b, out_b);
      } else {
        Im2Col(in_b, in_channels_, h, w, kernel_, kernel_, pad_, stride_,
               cols);
        run_gemm(cols, b, out_b);
      }
    }
  };
  // Direct path: one per-thread image buffer serves the whole range.
  auto run_range_direct = [&](int64_t begin, int64_t end) {
    ScratchScope scope;
    ConvImageView img;
    img.channels = in_channels_;
    img.height = h;
    img.width = w;
    img.kernel = kernel_;
    img.pad = pad_;
    img.stride = stride_;
    const int64_t elems = DirectImageElems(img);
    float* buf = elems > 0 ? scope.Alloc(elems) : nullptr;
    for (int64_t b = begin; b < end; ++b) {
      const float* in_b = in + b * in_channels_ * h * w;
      if (buf != nullptr) {
        FillDirectImage(in_b, img, buf);
        img.padded = buf;
      } else {
        img.padded = in_b;  // stride 1, pad 0: the view aliases the input
      }
      float* out_b = out + b * out_size;
      ConvImageFusion fusion;
      GemmEpilogue ep_b = ep;
      ep_b.tile_hook = ConvFusionHook(fused, b, out_size, out_w, &fusion);
      if (packed) {
        GemmConvPackedA(packed_w_, img, 1.0f, 0.0f, out_b, ep_b,
                        gemm_parallel);
      } else {
        GemmConvEx(out_channels_, wp, img, 1.0f, 0.0f, out_b, ep_b,
                   gemm_parallel);
      }
    }
  };
  if (direct) {
    if (gemm_parallel) {
      run_range_direct(0, batch);
    } else {
      ParallelFor(batch, run_range_direct, /*min_chunk=*/1);
    }
  } else if (gemm_parallel) {
    run_range(0, batch);
  } else {
    ParallelFor(batch, run_range, /*min_chunk=*/1);
  }

  if (training) {
    cached_input_ = input;
    cached_h_ = h;
    cached_w_ = w;
  }
  return output;
}

// The int8 serving forward: activations are quantized per-tensor (static
// calibrated scale when present, else a dynamic max-abs pass) with the
// vectorized quantizer — straight into the column matrix for pointwise
// convs, once per image for the others — and multiplied against the
// pre-packed int8 weight panels. The GEMM's output pass applies
// scale_act * wscale[channel] dequantization, bias, and the fused ReLU,
// so no f32 weight or separate dequant sweep exists anywhere on this
// path. With `images` (ForwardImages) a producer has already quantized
// the input into direct images, and `input` is null.
Tensor Conv2d::ForwardInt8(const Tensor* input, const ConvInputImages* images,
                           int64_t batch, int64_t h, int64_t w,
                           bool fuse_relu, const ConvTileEpilogue* fused) {
  if (input != nullptr) POE_CHECK_EQ(input->dim(1), in_channels_);
  const int64_t out_h = ConvOutSize(h, kernel_, pad_, stride_);
  const int64_t out_w = ConvOutSize(w, kernel_, pad_, stride_);
  POE_CHECK_GT(out_h, 0);
  POE_CHECK_GT(out_w, 0);
  const int64_t ohw = out_h * out_w;
  const int64_t chw = in_channels_ * h * w;
  const int64_t out_size = out_channels_ * ohw;

  Tensor output = MakeOutput(fused, batch, out_channels_, out_h, out_w);
  const float* in = input != nullptr ? input->data() : nullptr;
  float* out = output.data();  // null when the epilogue writes images

  const float act_scale = act_scale_ > 0.0f
                              ? act_scale_
                              : SymmetricScaleS8(in, input->numel());
  const float inv_scale = 1.0f / act_scale;

  GemmS8Epilogue ep;
  ep.scale = act_scale;
  ep.row_scale = wscales_.data();
  ep.row_bias = has_bias_ ? bias_.value.data() : nullptr;
  ep.relu = fuse_relu;

  const bool pointwise = IsPointwise();
  const bool direct = !pointwise && UseDirectConv();
  const bool gemm_parallel = batch < NumThreads() &&
                             GemmParallelTiles(out_channels_, ohw) > batch;

  // Each image is quantized exactly once into a flat CHW buffer; that is
  // the pointwise GEMM's B. The direct path then copies the bytes into the
  // channel-interleaved layout the micro-kernels read in place (stride-
  // phase split when strided); the im2col pin unfolds them in the weights'
  // k-group order. A fused quantizing unfold (Im2ColQuantize, removed)
  // would re-quantize every element k*k times, which measured ~2x slower
  // at WRN 3x3 geometries (docs/PERF.md). All orders are bitwise
  // identical. Images a producer filled skip both steps.
  const int64_t group = pointwise ? 1 : GemmS8KGroup();
  auto run_range = [&](int64_t begin, int64_t end) {
    ScratchScope scope;
    int8_t* q = images != nullptr ? nullptr : AllocS8(scope, chw);
    ConvImageViewS8 img;
    img.channels = in_channels_;
    img.height = h;
    img.width = w;
    img.kernel = kernel_;
    img.pad = pad_;
    img.stride = stride_;
    img.group = group;
    const int64_t elems =
        direct && images == nullptr ? DirectImageElems(img) : 0;
    int8_t* image = elems > 0 ? AllocS8(scope, elems) : q;
    int8_t* cols =
        pointwise || direct ? q : AllocS8(scope, qweight_.depth() * ohw);
    for (int64_t b = begin; b < end; ++b) {
      // No C when the hook quantizes into the next conv's images: with a
      // hook set, the int8 GEMMs (k > 0) reach C only through it, and it
      // leaves C alone then.
      float* out_b = out != nullptr ? out + b * out_size : nullptr;
      ConvImageFusion fusion;
      GemmS8Epilogue ep_b = ep;
      ep_b.tile_hook = ConvFusionHook(fused, b, out_size, out_w, &fusion);
      if (images != nullptr) {
        img.padded = images->data + b * images->elems;
        GemmS8ConvPackedA(qweight_, img, out_b, ep_b, gemm_parallel);
        continue;
      }
      QuantizeBufferS8(in + b * chw, chw, inv_scale, q);
      if (direct) {
        if (elems > 0) FillDirectImage(q, img, image);
        img.padded = image;
        GemmS8ConvPackedA(qweight_, img, out_b, ep_b, gemm_parallel);
        continue;
      }
      if (!pointwise) {
        Im2Col(q, in_channels_, h, w, kernel_, kernel_, pad_, stride_, cols,
               group);
      }
      GemmS8PackedA(qweight_, ohw, cols, out_b, ep_b, gemm_parallel);
    }
  };
  if (gemm_parallel) {
    run_range(0, batch);
  } else {
    ParallelFor(batch, run_range, /*min_chunk=*/1);
  }
  return output;
}

void Conv2d::PrepareInt8Serving() {
  if (int8_serving_) return;
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  // Per-output-channel symmetric max-abs quantization of the weight
  // matrix (rows are output channels in the im2col GEMM layout).
  wscales_.resize(out_channels_);
  std::vector<int8_t> q(static_cast<size_t>(out_channels_ * ckk));
  const float* wp = weight_.value.data();
  for (int64_t oc = 0; oc < out_channels_; ++oc) {
    const float* row = wp + oc * ckk;
    wscales_[oc] = SymmetricScaleS8(row, ckk);
    QuantizeBufferS8(row, ckk, 1.0f / wscales_[oc], q.data() + oc * ckk);
  }
  FinishInt8Setup(q.data());
}

void Conv2d::FinishInt8Setup(const int8_t* values) {
  // Serialized against Prepack: pool copies share master modules, so a
  // conversion through one copy must not race another copy's prepacking
  // of the same layer.
  std::lock_guard<std::mutex> lock(prepack_mu_);
  // Pack once into the kernel layout; only the packed form stays resident
  // (persistence exports the portable row-major form via Unpack). Convs
  // other than pointwise ones take the k-group order of the direct path.
  qweight_ = IsPointwise()
                 ? PackedS8Weights::Pack(out_channels_, in_channels_, values)
                 : PackedS8Weights::PackConv(out_channels_, in_channels_,
                                             kernel_, values);
  // Dequant-free serving: release the f32 weight storage for good, along
  // with any now-stale f32 packed panels.
  f32_packed_.store(false, std::memory_order_release);
  packed_w_ = PackedAWeights();
  weight_.value = Tensor();
  weight_.grad = Tensor();
  weight_.trainable = false;
  int8_serving_ = true;
}

void Conv2d::Prepack(ServingPrecision precision) {
  std::lock_guard<std::mutex> lock(prepack_mu_);
  // Packs the form the layer CURRENTLY serves (see Linear::Prepack for
  // the stale-copy rationale); int8 panels were built at conversion.
  POE_CHECK(precision != ServingPrecision::kInt8 || int8_serving_)
      << "Prepack(kInt8) requires PrepareInt8Serving first";
  if (int8_serving_) return;
  if (f32_packed_.load(std::memory_order_relaxed)) return;
  packed_w_ = PackedAWeights::Pack(/*trans_a=*/false, out_channels_,
                                   in_channels_ * kernel_ * kernel_,
                                   weight_.value.data());
  f32_packed_.store(true, std::memory_order_release);
}

int64_t Conv2d::PackedWeightBytes() {
  return f32_packed_.load(std::memory_order_acquire) ? packed_w_.nbytes()
                                                     : 0;
}

void Conv2d::BeginActivationCalibration() {
  observe_act_ = true;
  observed_act_max_ = 0.0f;
}

void Conv2d::FinishActivationCalibration() {
  observe_act_ = false;
  // A zero observation (no forwards ran, or the sample batch never lit
  // this layer up) keeps the scale at 0 = dynamic: freezing a guess
  // would saturate real activations forever (and be persisted).
  act_scale_ = observed_act_max_ > 0.0f ? observed_act_max_ / 127.0f : 0.0f;
}

Result<Int8WeightState> Conv2d::ExportInt8State() const {
  if (!int8_serving_) {
    return Status::FailedPrecondition(
        "Conv2d has no int8 state to export (still serving f32)");
  }
  Int8WeightState state;
  state.rows = out_channels_;
  state.cols = in_channels_ * kernel_ * kernel_;
  state.values.resize(static_cast<size_t>(state.rows * state.cols));
  qweight_.Unpack(state.values.data());  // portable row-major form
  state.scales = wscales_;
  state.act_scale = act_scale_;
  return state;
}

Status Conv2d::AdoptInt8State(Int8WeightState state) {
  if (int8_serving_) {
    return Status::FailedPrecondition("Conv2d already serves int8");
  }
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  if (state.rows != out_channels_ || state.cols != ckk ||
      static_cast<int64_t>(state.values.size()) != out_channels_ * ckk ||
      static_cast<int64_t>(state.scales.size()) != out_channels_) {
    return Status::Corruption("int8 state shape mismatch for Conv2d");
  }
  wscales_ = std::move(state.scales);
  act_scale_ = state.act_scale;
  FinishInt8Setup(state.values.data());
  return Status::OK();
}

int64_t Conv2d::Int8WeightBytes() const {
  if (!int8_serving_) return 0;
  return qweight_.nbytes() +
         static_cast<int64_t>(wscales_.size() * sizeof(float));
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  POE_CHECK(!int8_serving_) << "int8-serving Conv2d cannot train";
  POE_CHECK(cached_input_.defined()) << "Backward before training Forward";
  const int64_t batch = cached_input_.dim(0);
  const int64_t h = cached_h_;
  const int64_t w = cached_w_;
  const int64_t out_h = ConvOutSize(h, kernel_, pad_, stride_);
  const int64_t out_w = ConvOutSize(w, kernel_, pad_, stride_);
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  const int64_t ohw = out_h * out_w;
  POE_CHECK_EQ(grad_output.dim(0), batch);
  POE_CHECK_EQ(grad_output.dim(1), out_channels_);

  Tensor grad_input = Tensor::Zeros(cached_input_.shape());
  const float* wp = weight_.value.data();
  const float* in = cached_input_.data();
  const float* gout = grad_output.data();
  float* gin = grad_input.data();

  // Deterministic dW/db reduction: the batch is split into a fixed number
  // of parts, each accumulating into its own gradient slot, and the slots
  // are summed in part order after the ParallelFor. The result does not
  // depend on which thread ran which part, or on whether the parts ran
  // inline because the pool was busy.
  const int64_t parts = std::min<int64_t>(batch, NumThreads());
  const int64_t dw_size = out_channels_ * ckk;
  const int64_t slot_size = dw_size + (has_bias_ ? out_channels_ : 0);
  std::vector<float> slots(static_cast<size_t>(parts * slot_size), 0.0f);
  ParallelFor(
      parts,
      [&](int64_t part_begin, int64_t part_end) {
        ScratchScope scope;
        float* cols = scope.Alloc(ckk * ohw);
        float* dcols = scope.Alloc(ckk * ohw);
        for (int64_t part = part_begin; part < part_end; ++part) {
          float* dw_local = slots.data() + part * slot_size;
          float* db_local = dw_local + dw_size;
          const int64_t end = (part + 1) * batch / parts;
          for (int64_t b = part * batch / parts; b < end; ++b) {
            const float* gout_b = gout + b * out_channels_ * ohw;
            // Recompute the unfolding (cheaper than caching it per batch).
            Im2Col(in + b * in_channels_ * h * w, in_channels_, h, w,
                   kernel_, kernel_, pad_, stride_, cols);
            // dW += dY_b (out_c x ohw) * cols_b^T (ohw x ckk).
            GemmSeq(false, true, out_channels_, ckk, ohw, 1.0f, gout_b, cols,
                    1.0f, dw_local);
            // dcols = W^T (ckk x out_c) * dY_b (out_c x ohw).
            GemmSeq(true, false, ckk, ohw, out_channels_, 1.0f, wp, gout_b,
                    0.0f, dcols);
            Col2Im(dcols, in_channels_, h, w, kernel_, kernel_, pad_,
                   stride_, gin + b * in_channels_ * h * w);
            if (has_bias_) {
              for (int64_t oc = 0; oc < out_channels_; ++oc) {
                const float* row = gout_b + oc * ohw;
                float acc = 0.0f;
                for (int64_t i = 0; i < ohw; ++i) acc += row[i];
                db_local[oc] += acc;
              }
            }
          }
        }
      },
      /*min_chunk=*/1);

  float* dw = weight_.grad.data();
  for (int64_t part = 0; part < parts; ++part) {
    const float* slot = slots.data() + part * slot_size;
    for (int64_t i = 0; i < dw_size; ++i) dw[i] += slot[i];
    if (has_bias_) {
      float* db = bias_.grad.data();
      for (int64_t oc = 0; oc < out_channels_; ++oc) {
        db[oc] += slot[dw_size + oc];
      }
    }
  }
  return grad_input;
}

void Conv2d::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  if (has_bias_) out->push_back(&bias_);
}

}  // namespace poe
