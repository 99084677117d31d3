#include "tensor/conv_direct.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/env.h"
#include "util/logging.h"

namespace poe {

namespace {

ConvPath ParseConvPathEnv() {
  const std::string value = GetEnvOr("POE_CONV_PATH", "auto");
  if (value == "im2col") return ConvPath::kIm2Col;
  if (value == "direct") return ConvPath::kDirect;
  if (value != "auto") {
    POE_LOG(Warning) << "POE_CONV_PATH=" << value
                     << " not recognized (auto|im2col|direct); using auto";
  }
  return ConvPath::kAuto;
}

// Mutable process-wide choice, seeded from the environment exactly once.
ConvPath& ConvPathState() {
  static ConvPath path = ParseConvPathEnv();
  return path;
}

template <typename T>
void ZeroImageBorderT(T* padded, int64_t channels, int64_t height,
                      int64_t width, int64_t pad) {
  if (pad == 0) return;
  const int64_t ph = height + 2 * pad;
  const int64_t pw = width + 2 * pad;
  for (int64_t c = 0; c < channels; ++c) {
    T* img = padded + c * ph * pw;
    // Top and bottom pad rows in full.
    std::memset(img, 0, static_cast<size_t>(pad * pw) * sizeof(T));
    std::memset(img + (ph - pad) * pw, 0,
                static_cast<size_t>(pad * pw) * sizeof(T));
    // Left/right pad columns of every interior row.
    for (int64_t y = pad; y < ph - pad; ++y) {
      T* row = img + y * pw;
      std::memset(row, 0, static_cast<size_t>(pad) * sizeof(T));
      std::memset(row + pw - pad, 0, static_cast<size_t>(pad) * sizeof(T));
    }
  }
}

template <typename T>
void CopyImageInteriorT(const T* image, int64_t channels, int64_t height,
                        int64_t width, int64_t pad, T* padded) {
  POE_CHECK_GT(pad, 0);  // pad == 0 aliases the image, no copy
  const int64_t ph = height + 2 * pad;
  const int64_t pw = width + 2 * pad;
  for (int64_t c = 0; c < channels; ++c) {
    const T* src = image + c * height * width;
    T* dst = padded + (c * ph + pad) * pw + pad;
    for (int64_t y = 0; y < height; ++y) {
      std::memcpy(dst + y * pw, src + y * width,
                  static_cast<size_t>(width) * sizeof(T));
    }
  }
}

}  // namespace

int64_t DirectImageElems(const ConvImageView& v) {
  if (v.stride == 1) {
    return PaddedImageElems(v.channels, v.height, v.width, v.pad);
  }
  return v.phases() * v.channels * v.padded_h() * v.phase_w();
}

void FillDirectImage(const float* image, const ConvImageView& v,
                     float* buf) {
  if (v.stride == 1) {
    ZeroImageBorderT(buf, v.channels, v.height, v.width, v.pad);
    CopyImageInteriorT(image, v.channels, v.height, v.width, v.pad, buf);
    return;
  }
  // Phase plane q, row y, position t holds padded pixel (y, t*s + q):
  // image pixel (y - pad, t*s + q - pad) inside the image, else zero.
  const int64_t s = v.stride;
  const int64_t ph = v.padded_h();
  const int64_t phw = v.phase_w();
  for (int64_t q = 0; q < v.phases(); ++q) {
    // Positions t whose image column t*s + q - pad lies in [0, width).
    const int64_t t_lo = std::max<int64_t>(0, (v.pad - q + s - 1) / s);
    const int64_t t_hi =
        std::min(phw, (v.width + v.pad - q + s - 1) / s);
    for (int64_t c = 0; c < v.channels; ++c) {
      float* plane = buf + (q * v.channels + c) * ph * phw;
      for (int64_t y = 0; y < ph; ++y) {
        float* dst = plane + y * phw;
        const int64_t iy = y - v.pad;
        if (iy < 0 || iy >= v.height || t_lo >= t_hi) {
          std::fill(dst, dst + phw, 0.0f);
          continue;
        }
        const float* src = image + (c * v.height + iy) * v.width;
        const int64_t x0 = q - v.pad;  // image column of position 0
        std::fill(dst, dst + t_lo, 0.0f);
        for (int64_t t = t_lo; t < t_hi; ++t) dst[t] = src[t * s + x0];
        std::fill(dst + t_hi, dst + phw, 0.0f);
      }
    }
  }
}

ConvPath ConvPathChoice() { return ConvPathState(); }

void SetConvPath(ConvPath path) { ConvPathState() = path; }

void ZeroImageBorder(int8_t* padded, int64_t channels, int64_t height,
                     int64_t width, int64_t pad) {
  ZeroImageBorderT(padded, channels, height, width, pad);
}

void CopyImageInterior(const int8_t* image, int64_t channels, int64_t height,
                       int64_t width, int64_t pad, int8_t* padded) {
  CopyImageInteriorT(image, channels, height, width, pad, padded);
}

}  // namespace poe
