#include "nn/conv2d.h"

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

#include "nn/init.h"
#include "tensor/arena.h"
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
  return int8_serving_ && act_scale_ > 0.0f && stride_ == 1;
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

  // Pack-once fast path: the persistent op(A) weight panels are bitwise
  // identical to the per-call PackA output, so the product is too.
  const bool packed = !training && f32_packed_.load(std::memory_order_acquire);
  POE_CHECK(!training || !f32_packed_.load(std::memory_order_relaxed))
      << "prepacked Conv2d is inference-only (packed panels would go stale)";

  // Only one level parallelizes: hand the pool to the GEMM, which deals
  // its micro-panels over the workers, only when the GEMM both offers
  // more parallelism than the batch dimension does (the realtime query
  // path is batch 1) and the batch can't fill the workers by itself.
  const bool gemm_parallel = batch < NumThreads() &&
                             GemmParallelTiles(out_channels_, ohw) > batch;

  // Each image's GEMM reads its B operand in place from a zero-padded
  // copy of the image (split by column phase when strided), or from the
  // input itself when stride is 1 and pad is 0; one per-thread copy serves
  // a whole range.
  const int64_t out_size = out_channels_ * ohw;
  auto run_range = [&](int64_t begin, int64_t end) {
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
      float* out_b = out + b * out_size;
      ConvImageFusion fusion;
      GemmEpilogue ep_b = ep;
      ep_b.tile_hook = ConvFusionHook(fused, b, out_size, out_w, &fusion);
      if (buf != nullptr) {
        FillDirectImage(in_b, img, buf);
        img.padded = buf;
      } else {
        img.padded = in_b;  // stride 1, pad 0: the view aliases the input
      }
      if (packed) {
        GemmConvPackedA(packed_w_, img, 1.0f, 0.0f, out_b, ep_b,
                        gemm_parallel);
      } else {
        GemmConvEx(out_channels_, wp, img, 1.0f, 0.0f, out_b, ep_b,
                   gemm_parallel);
      }
    }
  };
  if (gemm_parallel) {
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
// vectorized quantizer, once per image, and multiplied against the
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

  const bool gemm_parallel = batch < NumThreads() &&
                             GemmParallelTiles(out_channels_, ohw) > batch;

  // Each image is quantized exactly once into a flat CHW buffer, whose
  // bytes are then copied into the channel-interleaved layout the
  // micro-kernels read in place (stride-phase split when strided). A fused
  // quantizing copy would re-quantize every element k*k times, which
  // measured ~2x slower at WRN 3x3 geometries (docs/PERF.md). Images a
  // producer filled skip both steps.
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
    img.group = GemmS8KGroup();
    int8_t* image =
        images == nullptr ? AllocS8(scope, DirectImageElems(img)) : nullptr;
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
      FillDirectImage(q, img, image);
      img.padded = image;
      GemmS8ConvPackedA(qweight_, img, out_b, ep_b, gemm_parallel);
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
  // (persistence exports the portable row-major form via Unpack), in the
  // k-group order of the direct path.
  qweight_ = PackedS8Weights::PackConv(out_channels_, in_channels_, kernel_,
                                       values);
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

namespace {

// One axis of a transposed-conv phase: the output positions q + stride * t
// (t < count) receive the taps first_tap + stride * i (i < taps), tap i at
// dY position lead + t - i. Tap kh reaches the input rows y with
// (y + pad - kh) % stride == 0, at dY row (y + pad - kh) / stride.
struct PhaseAxis {
  int64_t first_tap, taps, lead, count;
};

PhaseAxis PhaseAlong(int64_t q, int64_t len, int64_t kernel, int64_t pad,
                     int64_t stride) {
  PhaseAxis a;
  a.first_tap = (q + pad) % stride;
  a.taps = a.first_tap < kernel ? (kernel - 1 - a.first_tap) / stride + 1 : 0;
  a.lead = (q + pad) / stride;
  a.count = (len - q + stride - 1) / stride;
  return a;
}

// The input gradient of a conv as the transposed conv of dY, split by
// output phase (y % stride, x % stride): each phase is a stride-1 direct
// conv over one zero-padded dY image with the taps of W that reach it,
// flipped. Every tap belongs to one phase, so the phases together do the
// FLOPs of the im2col GEMM W^T * dY. Stride 1 is a single phase holding
// every tap, the GemmConvEx form with pad kernel - 1 - pad, written
// straight into dX. Strided phases go to a scratch C per column phase and
// are merged back row by row. When some phase is tapless (a 1x1/stride-2
// conv's odd pixels), dX is zeroed first and the merge skips that phase.
class TransposedConv {
 public:
  // Plans dX of a conv with weight `w` ([co x ci*k*k]) and input h x wd;
  // the flipped weights are carved from `scope`.
  TransposedConv(const float* w, int64_t ci, int64_t co, int64_t k,
                 int64_t stride, int64_t pad, int64_t h, int64_t wd,
                 ScratchScope& scope)
      : ci_(ci), s_(stride), h_(h), w_(wd), col_phases_(std::min(stride, wd)) {
    const int64_t out_h = ConvOutSize(h, k, pad, stride);
    const int64_t out_w = ConvOutSize(wd, k, pad, stride);
    int64_t dy_pad = 0;
    for (int64_t py = 0; py < std::min(stride, h); ++py) {
      for (int64_t px = 0; px < col_phases_; ++px) {
        Phase ph;
        ph.py = py;
        ph.px = px;
        ph.y = PhaseAlong(py, h, k, pad, stride);
        ph.x = PhaseAlong(px, wd, k, pad, stride);
        if (ph.y.taps > 0 && ph.x.taps > 0) {
          // The pad that keeps every tap of this phase inside the image.
          dy_pad = std::max({dy_pad, ph.y.taps - 1 - ph.y.lead,
                             ph.y.lead + ph.y.count - out_h,
                             ph.x.taps - 1 - ph.x.lead,
                             ph.x.lead + ph.x.count - out_w});
        }
        phases_.push_back(ph);
      }
    }
    dy_view_.channels = co;
    dy_view_.height = out_h;
    dy_view_.width = out_w;
    dy_view_.kernel = k;
    dy_view_.pad = dy_pad;
    const int64_t row = dy_view_.padded_w();
    const int64_t plane = dy_view_.padded_h() * row;
    POE_CHECK_LE(co * plane, int64_t{INT32_MAX});
    koff_.resize(static_cast<size_t>(co * k * k));
    int32_t* kp = koff_.data();
    float* wt = scope.Alloc(ci * co * k * k);
    for (Phase& ph : phases_) {
      const int64_t taps = co * ph.y.taps * ph.x.taps;
      ph.weight = wt;
      ph.dy.koff = kp;
      ph.dy.k = taps;
      ph.dy.n = ph.y.count * ph.x.count;
      ph.dy.out_w = ph.x.count;
      ph.dy.row_step = row;
      if (stride > 1) phase_cols_ = std::max(phase_cols_, ph.dy.n);
      if (taps == 0) tapless_ = true;
      // Taps in descending i, so the offsets ascend within a channel.
      for (int64_t oc = 0; oc < co; ++oc) {
        for (int64_t iy = ph.y.taps - 1; iy >= 0; --iy) {
          for (int64_t ix = ph.x.taps - 1; ix >= 0; --ix) {
            *kp++ = static_cast<int32_t>(oc * plane +
                                         (ph.y.lead - iy + dy_pad) * row +
                                         ph.x.lead - ix + dy_pad);
          }
        }
      }
      for (int64_t c = 0; c < ci; ++c) {
        for (int64_t oc = 0; oc < co; ++oc) {
          const float* wc = w + (oc * ci + c) * k * k;
          for (int64_t iy = ph.y.taps - 1; iy >= 0; --iy) {
            const int64_t kh = ph.y.first_tap + stride * iy;
            for (int64_t ix = ph.x.taps - 1; ix >= 0; --ix) {
              *wt++ = wc[kh * k + ph.x.first_tap + stride * ix];
            }
          }
        }
      }
    }
  }

  // The phases point into koff_.
  TransposedConv(const TransposedConv&) = delete;
  TransposedConv& operator=(const TransposedConv&) = delete;

  // Scratch floats one Run needs: the padded dY image and the phase Cs.
  int64_t ScratchElems() const {
    return DirectImageElems(dy_view_) + col_phases_ * ci_ * phase_cols_;
  }

  // Writes one image's dX (ci x h x w) from its dY (co x out_h x out_w).
  void Run(const float* dy, float* scratch, float* dx) const {
    const int64_t dy_elems = DirectImageElems(dy_view_);
    if (dy_elems > 0) FillDirectImage(dy, dy_view_, scratch);
    const float* dy_image = dy_elems > 0 ? scratch : dy;
    float* phase_c = scratch + dy_elems;
    const int64_t phase_size = ci_ * phase_cols_;
    if (tapless_) std::fill(dx, dx + ci_ * h_ * w_, 0.0f);
    for (size_t g = 0; g < phases_.size(); g += col_phases_) {
      const Phase* row_phase = &phases_[g];
      for (int64_t px = 0; px < col_phases_; ++px) {
        ImageMatrix m = row_phase[px].dy;
        if (m.k == 0) continue;
        m.image = dy_image;
        GemmImageEx(ci_, row_phase[px].weight, m, 1.0f, 0.0f,
                    s_ == 1 ? dx : phase_c + px * phase_size, GemmEpilogue{},
                    /*parallel=*/false);
      }
      if (s_ == 1) return;
      // Interleaves row ty of channel c of each column phase into dX.
      for (int64_t c = 0; c < ci_; ++c) {
        for (int64_t ty = 0; ty < row_phase[0].y.count; ++ty) {
          float* dst = dx + (c * h_ + row_phase[0].py + s_ * ty) * w_;
          for (int64_t px = 0; px < col_phases_; ++px) {
            const Phase& ph = row_phase[px];
            if (ph.dy.k == 0) continue;  // zeroed above
            const float* row =
                phase_c + px * phase_size + c * ph.dy.n + ty * ph.x.count;
            for (int64_t t = 0; t < ph.x.count; ++t) dst[px + s_ * t] = row[t];
          }
        }
      }
    }
  }

 private:
  // The pixels (py + stride * ty, px + stride * tx) of dX.
  struct Phase {
    int64_t py, px;
    PhaseAxis y, x;
    const float* weight = nullptr;  // ci x taps: W flipped and transposed
    ImageMatrix dy;                 // taps x (y.count * x.count)
  };

  int64_t ci_, s_, h_, w_, col_phases_;
  int64_t phase_cols_ = 0;  // the largest strided phase's pixels
  ConvImageView dy_view_;
  std::vector<Phase> phases_;  // row phase major, column phase minor
  std::vector<int32_t> koff_;
  bool tapless_ = false;  // some phase has no taps: Run zeroes dX first
};

}  // namespace

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
  const int64_t chw = in_channels_ * h * w;
  POE_CHECK_EQ(grad_output.dim(0), batch);
  POE_CHECK_EQ(grad_output.dim(1), out_channels_);

  // TransposedConv writes every element.
  Tensor grad_input = Tensor::Uninitialized(cached_input_.shape());
  const float* in = cached_input_.data();
  const float* gout = grad_output.data();
  float* gin = grad_input.data();

  ScratchScope scope;
  const TransposedConv dx(weight_.value.data(), in_channels_, out_channels_,
                          kernel_, stride_, pad_, h, w, scope);
  ConvImageView x_view;
  x_view.channels = in_channels_;
  x_view.height = h;
  x_view.width = w;
  x_view.kernel = kernel_;
  x_view.pad = pad_;
  x_view.stride = stride_;
  const int64_t x_elems = DirectImageElems(x_view);

  // Deterministic dW/db reduction: the batch is split into parts of
  // kGradRowsPerPart rows, each accumulating into its own gradient slot
  // (dW^T, ckk x out_c, then db), and the slots are summed in part order
  // after the ParallelFor. The partition depends on the batch alone, so
  // the result does not depend on the thread count, on which thread ran
  // which part, or on whether the parts ran inline because the pool was
  // busy. A part's first row writes its dW slot (beta 0), so the slots
  // need no zero fill.
  const int64_t parts = (batch + kGradRowsPerPart - 1) / kGradRowsPerPart;
  const int64_t dw_size = out_channels_ * ckk;
  const int64_t slot_size = dw_size + (has_bias_ ? out_channels_ : 0);
  float* slots = scope.Alloc(parts * slot_size);
  ParallelFor(
      parts,
      [&](int64_t part_begin, int64_t part_end) {
        ScratchScope part_scope;
        ConvImageView xv = x_view;
        float* x_buf = x_elems > 0 ? part_scope.Alloc(x_elems) : nullptr;
        float* dx_scratch = part_scope.Alloc(dx.ScratchElems());
        for (int64_t part = part_begin; part < part_end; ++part) {
          float* dw_local = slots + part * slot_size;
          float* db_local = dw_local + dw_size;
          if (has_bias_) std::fill(db_local, db_local + out_channels_, 0.0f);
          const int64_t begin = part * kGradRowsPerPart;
          const int64_t end = std::min(batch, begin + kGradRowsPerPart);
          for (int64_t b = begin; b < end; ++b) {
            const float* gout_b = gout + b * out_channels_ * ohw;
            // dW^T += vcol(x_b) (ckk x ohw) * dY_b^T (ohw x out_c), the
            // GEMM reading vcol from the refilled padded input.
            if (x_buf != nullptr) FillDirectImage(in + b * chw, xv, x_buf);
            xv.padded = x_buf != nullptr ? x_buf : in + b * chw;
            GemmConvAEx(xv, out_channels_, gout_b, 1.0f,
                        b == begin ? 0.0f : 1.0f, dw_local);
            dx.Run(gout_b, dx_scratch, gin + b * chw);
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

  // Each element sums the (transposed) slots in part order, whatever
  // chunk of output channels it is in.
  float* dw = weight_.grad.data();
  ParallelFor(
      out_channels_,
      [&](int64_t oc0, int64_t oc1) {
        for (int64_t part = 0; part < parts; ++part) {
          const float* slot = slots + part * slot_size;
          for (int64_t oc = oc0; oc < oc1; ++oc) {
            float* row = dw + oc * ckk;
            for (int64_t i = 0; i < ckk; ++i) {
              row[i] += slot[i * out_channels_ + oc];
            }
          }
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, (1 << 14) / ckk));
  if (has_bias_) {
    float* db = bias_.grad.data();
    for (int64_t part = 0; part < parts; ++part) {
      const float* slot = slots + part * slot_size + dw_size;
      for (int64_t oc = 0; oc < out_channels_; ++oc) db[oc] += slot[oc];
    }
  }
  return grad_input;
}

void Conv2d::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  if (has_bias_) out->push_back(&bias_);
}

}  // namespace poe
