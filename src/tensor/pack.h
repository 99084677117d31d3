// Panel packing for the blocked GEMM (see gemm.cc and docs/PERF.md).
// Conv GEMMs never pack their image operand: a forward or dX product
// reads B in place from the padded image and packs only the weights (A),
// and a dW product reads A in place and packs only dY (B). No conv image
// packer exists.
#ifndef POE_TENSOR_PACK_H_
#define POE_TENSOR_PACK_H_

#include <cstdint>
#include <cstring>

namespace poe {

// The micro-kernel consumes op(A) as MR-row panels and op(B) as NR-column
// panels, both laid out so the k index is the slow axis inside a panel:
//
//   a_pack[(ip/MR) * kc*MR + p*MR + r] = op(A)(i0+ip+r, p0+p)
//   b_pack[(jp/NR) * kc*NR + p*NR + c] = op(B)(p0+p, j0+jp+c)
//
// One k-step of the kernel then reads MR contiguous A floats and NR
// contiguous B floats. Rows/columns past the matrix edge are zero-filled so
// the kernel never needs a remainder loop; the store path masks them off.

/// Packs the op(A) block [i0, i0+mc) x [p0, p0+kc) into `out`
/// (ceil(mc/mr) panels of kc*mr floats). op(A) is the m x k operand:
/// A itself when !trans_a, else the transpose of the k x m storage.
inline void PackA(bool trans_a, const float* a, int64_t m, int64_t k,
                  int64_t i0, int64_t mc, int64_t p0, int64_t kc, int64_t mr,
                  float* out) {
  for (int64_t ip = 0; ip < mc; ip += mr) {
    const int64_t rows = (mc - ip < mr) ? mc - ip : mr;
    float* panel = out + (ip / mr) * kc * mr;
    if (!trans_a) {
      // A(i, p) = a[i*k + p]: each source row is contiguous in p.
      for (int64_t r = 0; r < rows; ++r) {
        const float* src = a + (i0 + ip + r) * k + p0;
        for (int64_t p = 0; p < kc; ++p) panel[p * mr + r] = src[p];
      }
    } else {
      // A(i, p) = a[p*m + i]: each source k-slice is contiguous in r.
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = a + (p0 + p) * m + i0 + ip;
        float* dst = panel + p * mr;
        for (int64_t r = 0; r < rows; ++r) dst[r] = src[r];
        for (int64_t r = rows; r < mr; ++r) dst[r] = 0.0f;
      }
    }
    if (!trans_a && rows < mr) {
      for (int64_t p = 0; p < kc; ++p)
        for (int64_t r = rows; r < mr; ++r) panel[p * mr + r] = 0.0f;
    }
  }
}

/// Packs the op(B) block [p0, p0+kc) x [j0, j0+nc) into `out`
/// (ceil(nc/nr) panels of kc*nr floats). op(B) is the k x n operand:
/// B itself when !trans_b, else the transpose of the n x k storage.
inline void PackB(bool trans_b, const float* b, int64_t k, int64_t n,
                  int64_t p0, int64_t kc, int64_t j0, int64_t nc, int64_t nr,
                  float* out) {
  for (int64_t jp = 0; jp < nc; jp += nr) {
    const int64_t cols = (nc - jp < nr) ? nc - jp : nr;
    float* panel = out + (jp / nr) * kc * nr;
    if (!trans_b) {
      // B(p, j) = b[p*n + j]: each source row is contiguous in j.
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = b + (p0 + p) * n + j0 + jp;
        float* dst = panel + p * nr;
        std::memcpy(dst, src, cols * sizeof(float));
        for (int64_t c = cols; c < nr; ++c) dst[c] = 0.0f;
      }
    } else {
      // B(p, j) = b[j*k + p]: each source column is contiguous in p. The
      // panel is written a row at a time (p outer), so stores stay
      // sequential while the `cols` source streams each advance by one.
      const float* src = b + (j0 + jp) * k + p0;
      for (int64_t p = 0; p < kc; ++p) {
        float* dst = panel + p * nr;
        for (int64_t c = 0; c < cols; ++c) dst[c] = src[c * k + p];
        for (int64_t c = cols; c < nr; ++c) dst[c] = 0.0f;
      }
    }
  }
}

}  // namespace poe

#endif  // POE_TENSOR_PACK_H_
