// POE_NO_FP_CONTRACT: each float multiply and add of the marked function
// rounds on its own. Without it GCC, on a target with FMA (-march=native),
// fuses a multiply and the following add in some of the loop versions and
// template instances it emits and not in others, so one source would round
// two ways. SIMD paths use explicit intrinsics and need no mark. Clang
// contracts only within one expression.
#ifndef POE_TENSOR_FP_CONTRACT_H_
#define POE_TENSOR_FP_CONTRACT_H_

#if defined(__GNUC__) && !defined(__clang__)
#define POE_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define POE_NO_FP_CONTRACT
#endif

#endif  // POE_TENSOR_FP_CONTRACT_H_
