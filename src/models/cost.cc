#include "models/cost.h"

#include "tensor/conv_direct.h"
#include "util/logging.h"

namespace poe {

namespace {

ModelCost ConvCost(int64_t in_c, int64_t out_c, int64_t kernel,
                   int64_t stride, int64_t pad, int64_t& h, int64_t& w,
                   bool bias = false) {
  const int64_t out_h = ConvOutSize(h, kernel, pad, stride);
  const int64_t out_w = ConvOutSize(w, kernel, pad, stride);
  ModelCost cost;
  cost.flops = 2 * out_h * out_w * out_c * in_c * kernel * kernel;
  cost.params = out_c * in_c * kernel * kernel + (bias ? out_c : 0);
  h = out_h;
  w = out_w;
  return cost;
}

ModelCost BnReluCost(int64_t channels, int64_t h, int64_t w) {
  ModelCost cost;
  // Normalize + affine (~4 flops/element) + ReLU (1 flop/element).
  cost.flops = 5 * channels * h * w;
  cost.params = 2 * channels;
  return cost;
}

ModelCost BlockCost(int64_t in_c, int64_t out_c, int64_t stride, int64_t& h,
                    int64_t& w) {
  ModelCost cost;
  cost += BnReluCost(in_c, h, w);  // bn1 + relu1 at input resolution
  int64_t bh = h, bw = w;
  cost += ConvCost(in_c, out_c, 3, stride, 1, bh, bw);  // conv1
  cost += BnReluCost(out_c, bh, bw);                    // bn2 + relu2
  int64_t ch = bh, cw = bw;
  cost += ConvCost(out_c, out_c, 3, 1, 1, ch, cw);  // conv2
  if (in_c != out_c || stride != 1) {
    int64_t ph = h, pw = w;
    cost += ConvCost(in_c, out_c, 1, stride, 0, ph, pw);  // projection
  }
  cost.flops += out_c * ch * cw;  // residual add
  h = ch;
  w = cw;
  return cost;
}

ModelCost GroupCost(int blocks, int64_t in_c, int64_t out_c, int64_t stride,
                    int64_t& h, int64_t& w) {
  ModelCost cost;
  for (int i = 0; i < blocks; ++i) {
    cost += BlockCost(i == 0 ? in_c : out_c, out_c, i == 0 ? stride : 1, h, w);
  }
  return cost;
}

}  // namespace

ModelCost CostOfLibraryPart(const WrnConfig& config, int64_t in_h,
                            int64_t in_w, int64_t* out_h, int64_t* out_w) {
  int64_t h = in_h, w = in_w;
  ModelCost cost;
  cost += ConvCost(config.in_channels, config.conv1_channels(), 3, 1, 1, h,
                   w);
  const int blocks = config.blocks_per_group();
  cost += GroupCost(blocks, config.conv1_channels(), config.conv2_channels(),
                    1, h, w);
  cost += GroupCost(blocks, config.conv2_channels(), config.conv3_channels(),
                    2, h, w);
  if (out_h != nullptr) *out_h = h;
  if (out_w != nullptr) *out_w = w;
  return cost;
}

ModelCost CostOfExpertPart(const WrnConfig& config, int64_t in_channels,
                           int64_t in_h, int64_t in_w) {
  int64_t h = in_h, w = in_w;
  ModelCost cost;
  const int blocks = config.blocks_per_group();
  cost += GroupCost(blocks, in_channels, config.conv4_channels(), 2, h, w);
  cost += BnReluCost(config.conv4_channels(), h, w);  // head BN + ReLU
  cost.flops += config.conv4_channels() * h * w;      // global avg pool
  // Linear classifier (with bias).
  cost.flops += 2 * config.conv4_channels() * config.num_classes;
  cost.params +=
      config.conv4_channels() * config.num_classes + config.num_classes;
  return cost;
}

ModelCost CostOfWrn(const WrnConfig& config, int64_t in_h, int64_t in_w) {
  int64_t h = 0, w = 0;
  ModelCost cost = CostOfLibraryPart(config, in_h, in_w, &h, &w);
  cost += CostOfExpertPart(config, config.conv3_channels(), h, w);
  return cost;
}

ModelCost CostOfBranched(const WrnConfig& library_config,
                         const std::vector<WrnConfig>& expert_configs,
                         int64_t in_h, int64_t in_w) {
  int64_t h = 0, w = 0;
  ModelCost cost = CostOfLibraryPart(library_config, in_h, in_w, &h, &w);
  for (const WrnConfig& e : expert_configs) {
    POE_CHECK_EQ(e.conv3_channels(), library_config.conv3_channels())
        << "expert kc must match the library kc";
    cost += CostOfExpertPart(e, library_config.conv3_channels(), h, w);
  }
  return cost;
}

}  // namespace poe
