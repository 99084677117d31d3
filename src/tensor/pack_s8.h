// Panel packing for the int8 GEMM (see gemm_s8.cc and docs/PERF.md).
#ifndef POE_TENSOR_PACK_S8_H_
#define POE_TENSOR_PACK_S8_H_

#include <cstdint>

namespace poe {

// The int8 micro-kernels consume op(A) as MR-row panels and op(B) as
// NR-column panels with the k axis additionally grouped by KR (the number
// of 8-bit products one kernel instruction accumulates: 4 for AVX-512 VNNI
// vpdpbusd, 2 for the AVX2 int16-madd path):
//
//   a_pack[(ip/MR)*kpad*MR + (p/KR)*MR*KR + r*KR + (p%KR)]
//       = shift + op(A)(i0+ip+r, p)                        (stored uint8)
//   b_pack[(jp/NR)*kpad*NR + (p/KR)*NR*KR + c*KR + (p%KR)]
//       = op(B)(p, j0+jp+c)                                (stored int8)
//
// so one k-group of the kernel reads MR*KR contiguous A bytes and each
// row/column owns a KR-byte run inside a group (the VNNI kernel broadcasts
// a column's 4-byte run straight from the B panel). Unlike the f32 GEMM
// there is no k-blocking: panels span the whole k, so a register tile
// accumulates its entire int32 dot product in one kernel call and the
// dequantizing store runs exactly once per tile.
//
// `shift` is the unsigned-operand offset of the kernel (128 for VNNI's
// u8 x s8 vpdpbusd, 0 otherwise). Rows past the matrix edge and k past
// the end are filled with `shift` in A (a true zero after the shift) and
// 0 in B, so products in the padding vanish and kernels never need
// remainder loops.
//
// Packing op(B) also records colsum[c] = sum_p op(B)(p, j0+c) per packed
// column (colsum must hold ceil(nc/nr)*nr entries), the compensation term
// the dequantizing store needs to undo the A shift:
// sum_p (a+128)*b = sum_p a*b + 128*colsum.

/// Packs the op(A) block rows [i0, i0+mc) x the full k into `out`
/// (ceil(mc/mr) panels of kpad*mr bytes, kpad = k rounded up to kr).
/// op(A) is the m x k operand: A itself when !trans_a, else the transpose
/// of the k x m storage.
inline void PackAs8(bool trans_a, const int8_t* a, int64_t m, int64_t k,
                    int64_t i0, int64_t mc, int64_t mr, int64_t kr,
                    uint8_t shift, uint8_t* out) {
  const int64_t kpad = (k + kr - 1) / kr * kr;
  const int64_t group = mr * kr;  // bytes per packed k-group
  for (int64_t ip = 0; ip < mc; ip += mr) {
    const int64_t rows = (mc - ip < mr) ? mc - ip : mr;
    uint8_t* panel = out + (ip / mr) * kpad * mr;
    if (!trans_a) {
      // A(i, p) = a[i*k + p]: each source row is contiguous in p.
      for (int64_t r = 0; r < rows; ++r) {
        const int8_t* src = a + (i0 + ip + r) * k;
        uint8_t* dst = panel + r * kr;
        int64_t p = 0;
        for (; p + kr <= k; p += kr, dst += group) {
          for (int64_t q = 0; q < kr; ++q)
            dst[q] = static_cast<uint8_t>(src[p + q] + shift);
        }
        for (int64_t q = 0; p < k; ++p, ++q)
          dst[q] = static_cast<uint8_t>(src[p] + shift);
      }
    } else {
      // A(i, p) = a[p*m + i]: each source k-slice is contiguous in r.
      for (int64_t p = 0; p < k; ++p) {
        const int8_t* src = a + p * m + i0 + ip;
        uint8_t* dst = panel + (p / kr) * group + (p % kr);
        for (int64_t r = 0; r < rows; ++r)
          dst[r * kr] = static_cast<uint8_t>(src[r] + shift);
      }
    }
    // Row padding and the k tail are `shift` (zero after unshifting).
    if (rows < mr) {
      for (int64_t p = 0; p < kpad; ++p) {
        uint8_t* dst = panel + (p / kr) * group + (p % kr);
        for (int64_t r = rows; r < mr; ++r) dst[r * kr] = shift;
      }
    }
    if (k < kpad) {
      for (int64_t p = k; p < kpad; ++p) {
        uint8_t* dst = panel + (p / kr) * group + (p % kr);
        for (int64_t r = 0; r < rows; ++r) dst[r * kr] = shift;
      }
    }
  }
}

/// Packs the op(B) block full k x [j0, j0+nc) into `out` (ceil(nc/nr)
/// panels of kpad*nr bytes) and writes colsum[c] for c in [0,
/// ceil(nc/nr)*nr). op(B) is the k x n operand: B itself when !trans_b,
/// else the transpose of the n x k storage.
inline void PackBs8(bool trans_b, const int8_t* b, int64_t k, int64_t n,
                    int64_t j0, int64_t nc, int64_t nr, int64_t kr,
                    int8_t* out, int32_t* colsum) {
  const int64_t kpad = (k + kr - 1) / kr * kr;
  const int64_t group = nr * kr;  // bytes per packed k-group
  for (int64_t jp = 0; jp < nc; jp += nr) {
    const int64_t cols = (nc - jp < nr) ? nc - jp : nr;
    int8_t* panel = out + (jp / nr) * kpad * nr;
    int32_t* sums = colsum + jp;
    for (int64_t c = 0; c < nr; ++c) sums[c] = 0;
    if (!trans_b) {
      // B(p, j) = b[p*n + j]: each source row is contiguous in j. One
      // pass interleaves kr source rows into the packed k-group.
      int8_t* dst = panel;
      int64_t p = 0;
      for (; p + kr <= k; p += kr, dst += group) {
        for (int64_t q = 0; q < kr; ++q) {
          const int8_t* src = b + (p + q) * n + j0 + jp;
          for (int64_t c = 0; c < cols; ++c) {
            dst[c * kr + q] = src[c];
            sums[c] += src[c];
          }
          for (int64_t c = cols; c < nr; ++c) dst[c * kr + q] = 0;
        }
      }
      if (p < k) {  // partial trailing group, zero-padded to kr
        for (int64_t q = 0; q < kr; ++q) {
          if (p + q < k) {
            const int8_t* src = b + (p + q) * n + j0 + jp;
            for (int64_t c = 0; c < cols; ++c) {
              dst[c * kr + q] = src[c];
              sums[c] += src[c];
            }
            for (int64_t c = cols; c < nr; ++c) dst[c * kr + q] = 0;
          } else {
            for (int64_t c = 0; c < nr; ++c) dst[c * kr + q] = 0;
          }
        }
      }
    } else {
      // B(p, j) = b[j*k + p]: each source column is contiguous in p.
      for (int64_t c = 0; c < cols; ++c) {
        const int8_t* src = b + (j0 + jp + c) * k;
        int8_t* dst = panel + c * kr;
        int32_t sum = 0;
        int64_t p = 0;
        for (; p + kr <= k; p += kr, dst += group) {
          for (int64_t q = 0; q < kr; ++q) {
            dst[q] = src[p + q];
            sum += src[p + q];
          }
        }
        if (p < k) {  // zero-padded tail group
          for (int64_t q = 0; q < kr; ++q) {
            dst[q] = (p + q < k) ? src[p + q] : 0;
            if (p + q < k) sum += src[p + q];
          }
        }
        sums[c] = sum;
      }
      // Column padding is true zeros.
      for (int64_t c = cols; c < nr; ++c) {
        int8_t* dst = panel + c * kr;
        for (int64_t g = 0; g < kpad / kr; ++g)
          for (int64_t q = 0; q < kr; ++q) dst[g * group + q] = 0;
      }
    }
  }
}

}  // namespace poe

#endif  // POE_TENSOR_PACK_S8_H_
