#include "src/tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/workspace.hpp"
#include "src/tensor/quant.hpp"

namespace mtsr {
namespace {

// Splits a rank-2..4 tensor into (batch, rows, cols) where batch collapses
// all leading axes. Used by the 2-D spatial helpers below.
struct Flat3 {
  std::int64_t batch;
  std::int64_t rows;
  std::int64_t cols;
};

Flat3 flatten_spatial(const Shape& s, const char* who) {
  check(s.rank() >= 2 && s.rank() <= 4,
        std::string(who) + " requires a rank-2..4 tensor");
  std::int64_t batch = 1;
  for (int i = 0; i < s.rank() - 2; ++i) batch *= s.dim(i);
  return {batch, s.dim(-2), s.dim(-1)};
}

Shape with_spatial(const Shape& s, std::int64_t rows, std::int64_t cols) {
  std::vector<std::int64_t> dims = s.dims();
  dims[dims.size() - 2] = rows;
  dims[dims.size() - 1] = cols;
  return Shape(dims);
}

// ---- Packed-B blocked GEMM -------------------------------------------------
//
// C = A * B runs over (k-tile, j-tile) panels of B packed into Workspace
// scratch: each panel is a kKc×kNc tile copied once into a contiguous,
// cache-line-aligned span, then streamed through L1/L2 by every row group
// that needs it. Tall products (m >= n) pack all panels up front and share
// them across the pool's row chunks; wide products (the conv lowerings:
// short A, enormous B) split over panel-aligned column chunks, each packing
// its own panels exactly once.
//
// Work is split so every output element is owned by exactly one thread and
// accumulates over k in a fixed ascending order — results are bit-identical
// for every pool size.

constexpr std::int64_t kKc = 256;  // k rows per panel (A quad pack: 4 KB)
constexpr std::int64_t kNc = 512;  // j columns per panel (panel: 512 KB, L2-resident)

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Copies B[kk0:kk1, j0:j1] (row-major, leading dimension ldb) into `panel`
// with a fixed row stride of kNc.
void pack_b_panel(const float* pb, std::int64_t ldb, std::int64_t kk0,
                  std::int64_t kk1, std::int64_t j0, std::int64_t j1,
                  float* panel) {
  const std::size_t bytes =
      static_cast<std::size_t>(j1 - j0) * sizeof(float);
  for (std::int64_t kk = kk0; kk < kk1; ++kk) {
    std::memcpy(panel + (kk - kk0) * kNc, pb + kk * ldb + j0, bytes);
  }
}

// Register-tile width of the portable microkernel: a 4×16 C tile is held
// in registers across the whole k-tile, so C is loaded/stored once per
// panel instead of once per k step.
constexpr std::int64_t kMr = 16;

// SIMD dispatch of the float panel microkernel: the hand-scheduled AVX-512
// (8×32 register tile) and AVX2 (6×16) kernels below are selected once per
// process by CPUID, capped by the MTSR_SIMD environment variable; the
// portable generic kernel is the fallback everywhere else.
//
// MTSR_SIMD_CLONES compiles the small-k and NT block kernels once per ISA
// (target_clones, resolved by the loader). It is disabled under sanitizers
// (ifunc resolution order) and on non-x86 targets, where those kernels
// build once for the baseline ISA.
#if defined(__x86_64__) && defined(__GNUC__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define MTSR_SIMD_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define MTSR_SIMD_CLONES
#endif

// C[i0:i1, j0:j1] += A[i0:i1, kk0:kk1] * panel, where `panel` holds B rows
// kk0:kk1 for absolute columns [j0, j1) (row stride kNc). Portable
// fallback kernel — also the "scalar"/"sse2" forced levels: a 4×kMr C tile
// accumulated in registers against packed A quads and panel rows streamed
// through L1. Per output element the accumulation is the plain ascending-k
// sequence (the registers only hold what memory held before), so results
// stay bit-identical across pool sizes AND match the unblocked i-k-j order
// exactly.
void gemm_nn_panel_generic(const float* pa, std::int64_t lda,
                           const float* panel, float* pc, std::int64_t ldc,
                           std::int64_t i0, std::int64_t i1, std::int64_t kk0,
                           std::int64_t kk1, std::int64_t j0,
                           std::int64_t j1) {
  alignas(64) float apack[4 * kKc];
  const std::int64_t width = j1 - j0;
  std::int64_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    // Pack the 4×kc A tile k-major: the microkernel reads one quad per k.
    for (std::int64_t kk = kk0; kk < kk1; ++kk) {
      float* q = apack + (kk - kk0) * 4;
      q[0] = pa[(i + 0) * lda + kk];
      q[1] = pa[(i + 1) * lda + kk];
      q[2] = pa[(i + 2) * lda + kk];
      q[3] = pa[(i + 3) * lda + kk];
    }
    float* c0 = pc + (i + 0) * ldc + j0;
    float* c1 = pc + (i + 1) * ldc + j0;
    float* c2 = pc + (i + 2) * ldc + j0;
    float* c3 = pc + (i + 3) * ldc + j0;
    std::int64_t j = 0;
    for (; j + kMr <= width; j += kMr) {
      alignas(64) float acc0[kMr], acc1[kMr], acc2[kMr], acc3[kMr];
      for (int t = 0; t < kMr; ++t) {
        acc0[t] = c0[j + t];
        acc1[t] = c1[j + t];
        acc2[t] = c2[j + t];
        acc3[t] = c3[j + t];
      }
      for (std::int64_t kk = kk0; kk < kk1; ++kk) {
        const float* q = apack + (kk - kk0) * 4;
        const float a0 = q[0], a1 = q[1], a2 = q[2], a3 = q[3];
        if (a0 == 0.f && a1 == 0.f && a2 == 0.f && a3 == 0.f) continue;
        const float* b = panel + (kk - kk0) * kNc + j;
        for (int t = 0; t < kMr; ++t) {
          const float bt = b[t];
          acc0[t] += a0 * bt;
          acc1[t] += a1 * bt;
          acc2[t] += a2 * bt;
          acc3[t] += a3 * bt;
        }
      }
      for (int t = 0; t < kMr; ++t) {
        c0[j + t] = acc0[t];
        c1[j + t] = acc1[t];
        c2[j + t] = acc2[t];
        c3[j + t] = acc3[t];
      }
    }
    for (; j < width; ++j) {  // tail columns: same order, registers per row
      float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
      for (std::int64_t kk = kk0; kk < kk1; ++kk) {
        const float* q = apack + (kk - kk0) * 4;
        const float bt = panel[(kk - kk0) * kNc + j];
        s0 += q[0] * bt;
        s1 += q[1] * bt;
        s2 += q[2] * bt;
        s3 += q[3] * bt;
      }
      c0[j] = s0;
      c1[j] = s1;
      c2[j] = s2;
      c3[j] = s3;
    }
  }
  for (; i < i1; ++i) {  // remainder rows: plain i-k-j over the panel
    float* crow = pc + i * ldc + j0;
    for (std::int64_t kk = kk0; kk < kk1; ++kk) {
      const float aik = pa[i * lda + kk];
      if (aik == 0.f) continue;
      const float* brow = panel + (kk - kk0) * kNc;
      for (std::int64_t j = 0; j < width; ++j) crow[j] += aik * brow[j];
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)

// Hand-scheduled AVX-512 panel microkernel: an 8×32 C tile — 16 zmm
// accumulators, two 16-lane B loads and eight broadcast-FMAs per k step —
// held in registers across the whole k-tile, with the B panel prefetched
// four k rows ahead of use. Every output element accumulates as the plain
// ascending-k fold of single-rounded FMAs (no zero-skip, no
// reassociation), so the per-element result is independent of row-group
// phase, column-tile position, and chunk geometry: bit-identity across
// pool sizes holds by construction. Column tails run the identical FMA
// sequence through masked loads/stores.
__attribute__((target("avx512f"))) void gemm_nn_panel_avx512(
    const float* pa, std::int64_t lda, const float* panel, float* pc,
    std::int64_t ldc, std::int64_t i0, std::int64_t i1, std::int64_t kk0,
    std::int64_t kk1, std::int64_t j0, std::int64_t j1) {
  alignas(64) float apack[8 * kKc];
  const std::int64_t width = j1 - j0;
  const std::int64_t kc = kk1 - kk0;
  std::int64_t i = i0;
  for (; i + 8 <= i1; i += 8) {
    // Pack the 8×kc A tile k-major: one 8-float quad read per k step.
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      float* q = apack + kk * 8;
      const float* acol = pa + kk0 + kk;
      q[0] = acol[(i + 0) * lda];
      q[1] = acol[(i + 1) * lda];
      q[2] = acol[(i + 2) * lda];
      q[3] = acol[(i + 3) * lda];
      q[4] = acol[(i + 4) * lda];
      q[5] = acol[(i + 5) * lda];
      q[6] = acol[(i + 6) * lda];
      q[7] = acol[(i + 7) * lda];
    }
    std::int64_t j = 0;
    for (; j + 32 <= width; j += 32) {
      const float* bp = panel + j;
      float* cp = pc + i * ldc + j0 + j;
      __m512 acc[8][2];
      for (int r = 0; r < 8; ++r) {
        acc[r][0] = _mm512_loadu_ps(cp + r * ldc);
        acc[r][1] = _mm512_loadu_ps(cp + r * ldc + 16);
      }
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* brow = bp + kk * kNc;
        _mm_prefetch(reinterpret_cast<const char*>(brow + 4 * kNc),
                     _MM_HINT_T0);
        const __m512 b0 = _mm512_loadu_ps(brow);
        const __m512 b1 = _mm512_loadu_ps(brow + 16);
        const float* q = apack + kk * 8;
        for (int r = 0; r < 8; ++r) {
          const __m512 av = _mm512_set1_ps(q[r]);
          acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
          acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
        }
      }
      for (int r = 0; r < 8; ++r) {
        _mm512_storeu_ps(cp + r * ldc, acc[r][0]);
        _mm512_storeu_ps(cp + r * ldc + 16, acc[r][1]);
      }
    }
    for (; j < width; j += 16) {  // 16-wide tail, masked on the last block
      const std::int64_t rem = width - j;
      const __mmask16 mask =
          rem >= 16 ? static_cast<__mmask16>(0xffff)
                    : static_cast<__mmask16>((1u << rem) - 1u);
      const float* bp = panel + j;
      float* cp = pc + i * ldc + j0 + j;
      __m512 acc[8];
      for (int r = 0; r < 8; ++r) {
        acc[r] = _mm512_maskz_loadu_ps(mask, cp + r * ldc);
      }
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m512 b = _mm512_maskz_loadu_ps(mask, bp + kk * kNc);
        const float* q = apack + kk * 8;
        for (int r = 0; r < 8; ++r) {
          acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(q[r]), b, acc[r]);
        }
      }
      for (int r = 0; r < 8; ++r) {
        _mm512_mask_storeu_ps(cp + r * ldc, mask, acc[r]);
      }
    }
  }
  for (; i < i1; ++i) {  // remainder rows: same per-element FMA fold
    const float* arow = pa + i * lda + kk0;
    float* crow = pc + i * ldc + j0;
    for (std::int64_t j = 0; j < width; j += 16) {
      const std::int64_t rem = width - j;
      const __mmask16 mask =
          rem >= 16 ? static_cast<__mmask16>(0xffff)
                    : static_cast<__mmask16>((1u << rem) - 1u);
      __m512 acc = _mm512_maskz_loadu_ps(mask, crow + j);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m512 b = _mm512_maskz_loadu_ps(mask, panel + kk * kNc + j);
        acc = _mm512_fmadd_ps(_mm512_set1_ps(arow[kk]), b, acc);
      }
      _mm512_mask_storeu_ps(crow + j, mask, acc);
    }
  }
}

// Hand-scheduled AVX2 panel microkernel: a 6×16 C tile (12 ymm
// accumulators, two B loads + six broadcast-FMAs per k step; 15 of 16 ymm
// in flight). Tails drop to one 8-lane vector, then scalar std::fmaf —
// the identical single-rounded ascending-k fold per element, so the same
// bit-identity argument as the AVX-512 kernel applies.
__attribute__((target("avx2,fma"))) void gemm_nn_panel_avx2(
    const float* pa, std::int64_t lda, const float* panel, float* pc,
    std::int64_t ldc, std::int64_t i0, std::int64_t i1, std::int64_t kk0,
    std::int64_t kk1, std::int64_t j0, std::int64_t j1) {
  alignas(64) float apack[6 * kKc];
  const std::int64_t width = j1 - j0;
  const std::int64_t kc = kk1 - kk0;
  std::int64_t i = i0;
  for (; i + 6 <= i1; i += 6) {
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      float* q = apack + kk * 6;
      const float* acol = pa + kk0 + kk;
      q[0] = acol[(i + 0) * lda];
      q[1] = acol[(i + 1) * lda];
      q[2] = acol[(i + 2) * lda];
      q[3] = acol[(i + 3) * lda];
      q[4] = acol[(i + 4) * lda];
      q[5] = acol[(i + 5) * lda];
    }
    std::int64_t j = 0;
    for (; j + 16 <= width; j += 16) {
      const float* bp = panel + j;
      float* cp = pc + i * ldc + j0 + j;
      __m256 acc[6][2];
      for (int r = 0; r < 6; ++r) {
        acc[r][0] = _mm256_loadu_ps(cp + r * ldc);
        acc[r][1] = _mm256_loadu_ps(cp + r * ldc + 8);
      }
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* brow = bp + kk * kNc;
        _mm_prefetch(reinterpret_cast<const char*>(brow + 4 * kNc),
                     _MM_HINT_T0);
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const float* q = apack + kk * 6;
        for (int r = 0; r < 6; ++r) {
          const __m256 av = _mm256_set1_ps(q[r]);
          acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
          acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
      }
      for (int r = 0; r < 6; ++r) {
        _mm256_storeu_ps(cp + r * ldc, acc[r][0]);
        _mm256_storeu_ps(cp + r * ldc + 8, acc[r][1]);
      }
    }
    for (; j + 8 <= width; j += 8) {
      const float* bp = panel + j;
      float* cp = pc + i * ldc + j0 + j;
      __m256 acc[6];
      for (int r = 0; r < 6; ++r) acc[r] = _mm256_loadu_ps(cp + r * ldc);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m256 b = _mm256_loadu_ps(bp + kk * kNc);
        const float* q = apack + kk * 6;
        for (int r = 0; r < 6; ++r) {
          acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(q[r]), b, acc[r]);
        }
      }
      for (int r = 0; r < 6; ++r) _mm256_storeu_ps(cp + r * ldc, acc[r]);
    }
    for (; j < width; ++j) {  // scalar columns: fmaf keeps FMA rounding
      float* cp = pc + i * ldc + j0 + j;
      float s[6];
      for (int r = 0; r < 6; ++r) s[r] = cp[r * ldc];
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float bt = panel[kk * kNc + j];
        const float* q = apack + kk * 6;
        for (int r = 0; r < 6; ++r) s[r] = std::fmaf(q[r], bt, s[r]);
      }
      for (int r = 0; r < 6; ++r) cp[r * ldc] = s[r];
    }
  }
  for (; i < i1; ++i) {  // remainder rows
    const float* arow = pa + i * lda + kk0;
    float* crow = pc + i * ldc + j0;
    std::int64_t j = 0;
    for (; j + 8 <= width; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m256 b = _mm256_loadu_ps(panel + kk * kNc + j);
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[kk]), b, acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    for (; j < width; ++j) {
      float s = crow[j];
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        s = std::fmaf(arow[kk], panel[kk * kNc + j], s);
      }
      crow[j] = s;
    }
  }
}

#endif  // __x86_64__ && __GNUC__

using FloatPanelFn = void (*)(const float*, std::int64_t, const float*,
                              float*, std::int64_t, std::int64_t,
                              std::int64_t, std::int64_t, std::int64_t,
                              std::int64_t, std::int64_t);

struct FloatPanelKernel {
  FloatPanelFn fn = &gemm_nn_panel_generic;
  const char* name = "generic";
};

// Strict level lookup shared by the forced-kernel testing seam: resolves
// exactly the requested level or reports that this host cannot run it.
// "vnni" maps to the AVX-512 float kernel — the levels are shared with the
// int8 dispatch and VNNI only changes the int8 microkernel.
bool float_kernel_for_level(std::string_view level, FloatPanelKernel* out) {
  if (level == "scalar" || level == "sse2" || level == "generic") {
    *out = {&gemm_nn_panel_generic, "generic"};
    return true;
  }
#if defined(__x86_64__) && defined(__GNUC__)
  if ((level == "avx512" || level == "vnni") &&
      __builtin_cpu_supports("avx512f")) {
    *out = {&gemm_nn_panel_avx512, "avx512"};
    return true;
  }
  if (level == "avx2" && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    *out = {&gemm_nn_panel_avx2, "avx2"};
    return true;
  }
#endif
  return false;
}

// Picks the widest float kernel the host supports, capped by MTSR_SIMD.
// Resolved once per process, so the choice cannot vary mid-run.
FloatPanelKernel resolve_float_kernel() {
  const char* env = std::getenv("MTSR_SIMD");
  const std::string_view want = env != nullptr ? env : "";
  if (want == "scalar" || want == "sse2") return {};
#if defined(__x86_64__) && defined(__GNUC__)
  const bool allow_avx512 =
      want.empty() || want == "avx512" || want == "vnni";
  const bool allow_avx2 = allow_avx512 || want == "avx2";
  if (allow_avx512 && __builtin_cpu_supports("avx512f")) {
    return {&gemm_nn_panel_avx512, "avx512"};
  }
  if (allow_avx2 && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    return {&gemm_nn_panel_avx2, "avx2"};
  }
#endif
  return {};
}

const FloatPanelKernel& float_panel_kernel() {
  static const FloatPanelKernel kernel = resolve_float_kernel();
  return kernel;
}

// Minimum rows per chunk in the tall dispatch: amortises the A-tile packing.
constexpr std::int64_t kRowGrain = 16;
// Minimum columns per chunk in the small-k column dispatch.
constexpr std::int64_t kColGrain = 128;

// Products with only a few accumulation terms per output element cannot
// amortise panel packing or the register-tile load/store, so they stream B
// in place and accumulate straight into C. Dispatch is a pure function of
// k, so determinism across pool sizes is unaffected.
constexpr std::int64_t kSmallK = 32;

MTSR_SIMD_CLONES
void gemm_nn_small_k_block(const float* pa, const float* pb, float* pc,
                           std::int64_t k, std::int64_t ldb,
                           std::int64_t ldc, std::int64_t i0, std::int64_t i1,
                           std::int64_t j0, std::int64_t j1,
                           bool accumulate) {
  alignas(64) float apack[4 * kSmallK];
  const std::size_t row_bytes =
      static_cast<std::size_t>(j1 - j0) * sizeof(float);
  std::int64_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      float* q = apack + kk * 4;
      q[0] = pa[(i + 0) * k + kk];
      q[1] = pa[(i + 1) * k + kk];
      q[2] = pa[(i + 2) * k + kk];
      q[3] = pa[(i + 3) * k + kk];
    }
    float* c0 = pc + (i + 0) * ldc;
    float* c1 = pc + (i + 1) * ldc;
    float* c2 = pc + (i + 2) * ldc;
    float* c3 = pc + (i + 3) * ldc;
    if (!accumulate) {
      std::memset(c0 + j0, 0, row_bytes);
      std::memset(c1 + j0, 0, row_bytes);
      std::memset(c2 + j0, 0, row_bytes);
      std::memset(c3 + j0, 0, row_bytes);
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* q = apack + kk * 4;
      const float a0 = q[0], a1 = q[1], a2 = q[2], a3 = q[3];
      if (a0 == 0.f && a1 == 0.f && a2 == 0.f && a3 == 0.f) continue;
      const float* brow = pb + kk * ldb;
      for (std::int64_t j = j0; j < j1; ++j) {
        const float bkj = brow[j];
        c0[j] += a0 * bkj;
        c1[j] += a1 * bkj;
        c2[j] += a2 * bkj;
        c3[j] += a3 * bkj;
      }
    }
  }
  for (; i < i1; ++i) {  // remainder rows
    float* crow = pc + i * ldc;
    if (!accumulate) std::memset(crow + j0, 0, row_bytes);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      if (aik == 0.f) continue;
      const float* brow = pb + kk * ldb;
      for (std::int64_t j = j0; j < j1; ++j) crow[j] += aik * brow[j];
    }
  }
}

// Parallel packed-B driver for C = A * B (all row-major). Splits over rows
// when C is tall, over B panels when C is wide (conv lowering produces
// short-and-wide products), so the pool stays busy either way. `kernel` is
// the panel microkernel resolved by the caller (production dispatch or the
// forced-kernel seam); the small-k path is kernel-independent.
void gemm_nn(const float* pa, const float* pb, float* pc, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate,
             FloatPanelFn kernel) {
  if (k <= kSmallK) {  // degenerate k: no packing, no workspace
    if (m >= n) {
      parallel_for_grain(m, kRowGrain,
                         [&](std::int64_t i0, std::int64_t i1, int) {
        gemm_nn_small_k_block(pa, pb, pc, k, n, n, i0, i1, 0, n, accumulate);
      });
    } else {
      parallel_for_grain(n, kColGrain,
                         [&](std::int64_t j0, std::int64_t j1, int) {
        gemm_nn_small_k_block(pa, pb, pc, k, n, n, 0, m, j0, j1, accumulate);
      });
    }
    return;
  }
  Workspace& ws = Workspace::tls();
  Workspace::Scope scratch(ws);
  const std::int64_t nkt = ceil_div(k, kKc);
  const std::int64_t njt = ceil_div(n, kNc);
  // jt-major so one column block's k-panels are contiguous; k-tiles within
  // a block pack back-to-back (no padding between short edge tiles).
  float* packed = ws.alloc(njt * k * kNc);
  const auto panel_at = [&](std::int64_t kk0, std::int64_t jt) {
    return packed + (jt * k + kk0) * kNc;
  };

  if (m >= n) {
    // Tall C: pack every panel once (parallel over panels), then share the
    // packed matrix read-only across all row chunks.
    parallel_for(nkt * njt, [&](std::int64_t p) {
      const std::int64_t jt = p / nkt, kk0 = (p % nkt) * kKc;
      pack_b_panel(pb, n, kk0, std::min(k, kk0 + kKc), jt * kNc,
                   std::min(n, (jt + 1) * kNc), panel_at(kk0, jt));
    });
    parallel_for_grain(m, kRowGrain,
                       [&](std::int64_t i0, std::int64_t i1, int) {
      if (!accumulate) {
        std::memset(pc + i0 * n, 0,
                    static_cast<std::size_t>((i1 - i0) * n) * sizeof(float));
      }
      for (std::int64_t jt = 0; jt < njt; ++jt) {
        const std::int64_t j0 = jt * kNc, j1 = std::min(n, j0 + kNc);
        for (std::int64_t kk0 = 0; kk0 < k; kk0 += kKc) {
          kernel(pa, k, panel_at(kk0, jt), pc, n, i0, i1, kk0,
                 std::min(k, kk0 + kKc), j0, j1);
        }
      }
    });
  } else {
    // Wide C: panel-aligned column chunks. Each chunk owns a range of
    // j-tiles outright, packs each of its panels exactly once, and consumes
    // it while it is still L2-hot.
    parallel_for_grain(njt, 1, [&](std::int64_t t0, std::int64_t t1, int) {
      for (std::int64_t jt = t0; jt < t1; ++jt) {
        const std::int64_t j0 = jt * kNc, j1 = std::min(n, j0 + kNc);
        if (!accumulate) {
          for (std::int64_t i = 0; i < m; ++i) {
            std::memset(pc + i * n + j0, 0,
                        static_cast<std::size_t>(j1 - j0) * sizeof(float));
          }
        }
        for (std::int64_t kk0 = 0; kk0 < k; kk0 += kKc) {
          float* panel = panel_at(kk0, jt);
          const std::int64_t kk1 = std::min(k, kk0 + kKc);
          pack_b_panel(pb, n, kk0, kk1, j0, j1, panel);
          kernel(pa, k, panel, pc, n, 0, m, kk0, kk1, j0, j1);
        }
      }
    });
  }
}

// Eight float lanes; the NT kernel's per-element accumulator. Generic
// vector arithmetic, so each MTSR_SIMD_CLONES clone lowers it to its own
// ISA (one ymm register, or two xmm registers on the baseline).
typedef float NtLanes __attribute__((vector_size(32)));

// One R×C tile (R ≤ 2 A rows, C ≤ 4 B rows) of C (+)= A·Bᵀ at (i, j). Each
// element keeps eight lanes (lane l sums a·b over k ≡ l mod 8, ascending,
// for the whole 8-blocks), reduces them in one fixed tree, then adds the
// k mod 8 tail in ascending k. Every tile shape runs exactly this per-
// element sequence, so an element's bits depend on k alone — never on its
// tile, its chunk, the pool size or the replica count. Always inlined, so
// it compiles under the calling clone's ISA.
template <int R, int C>
[[gnu::always_inline]] inline void gemm_nt_tile(
    const float* pa, const float* pb, float* pc, std::int64_t k,
    std::int64_t ldc, std::int64_t i, std::int64_t j, bool accumulate) {
  NtLanes acc[R][C] = {};
  const std::int64_t k8 = k / 8 * 8;
  for (std::int64_t kk = 0; kk < k8; kk += 8) {
    NtLanes a[R], b[C];
    for (int r = 0; r < R; ++r) {
      std::memcpy(&a[r], pa + (i + r) * k + kk, sizeof(NtLanes));
    }
    for (int c = 0; c < C; ++c) {
      std::memcpy(&b[c], pb + (j + c) * k + kk, sizeof(NtLanes));
    }
    for (int r = 0; r < R; ++r) {
      for (int c = 0; c < C; ++c) acc[r][c] += a[r] * b[c];
    }
  }
  for (int r = 0; r < R; ++r) {
    const float* arow = pa + (i + r) * k;
    for (int c = 0; c < C; ++c) {
      const float* brow = pb + (j + c) * k;
      const NtLanes& l = acc[r][c];
      float sum = ((l[0] + l[4]) + (l[2] + l[6])) +
                  ((l[1] + l[5]) + (l[3] + l[7]));
      for (std::int64_t kk = k8; kk < k; ++kk) sum += arow[kk] * brow[kk];
      float& out = pc[(i + r) * ldc + j + c];
      out = accumulate ? out + sum : sum;
    }
  }
}

// One column strip, B rows [j, j + C) against A rows [i0, i1): full 2-row
// tiles, then one single-row edge tile.
template <int C>
[[gnu::always_inline]] inline void gemm_nt_cols(
    const float* pa, const float* pb, float* pc, std::int64_t k,
    std::int64_t ldc, std::int64_t i0, std::int64_t i1, std::int64_t j,
    bool accumulate) {
  std::int64_t i = i0;
  for (; i + 2 <= i1; i += 2) {
    gemm_nt_tile<2, C>(pa, pb, pc, k, ldc, i, j, accumulate);
  }
  if (i < i1) gemm_nt_tile<1, C>(pa, pb, pc, k, ldc, i, j, accumulate);
}

// C[i0:i1, j0:j1] with C[i,j] (+)= dot(A row i, B row j). Both operands are
// read as contiguous k-rows, so nothing is packed and no workspace is used;
// the 2×4 register tile keeps eight independent accumulators in flight.
// Four B rows stay L1-hot while the chunk's A rows stream past them.
MTSR_SIMD_CLONES
void gemm_nt_block(const float* pa, const float* pb, float* pc,
                   std::int64_t k, std::int64_t ldc, std::int64_t i0,
                   std::int64_t i1, std::int64_t j0, std::int64_t j1,
                   bool accumulate) {
  std::int64_t j = j0;
  for (; j + 4 <= j1; j += 4) {
    gemm_nt_cols<4>(pa, pb, pc, k, ldc, i0, i1, j, accumulate);
  }
  switch (j1 - j) {
    case 3: gemm_nt_cols<3>(pa, pb, pc, k, ldc, i0, i1, j, accumulate); break;
    case 2: gemm_nt_cols<2>(pa, pb, pc, k, ldc, i0, i1, j, accumulate); break;
    case 1: gemm_nt_cols<1>(pa, pb, pc, k, ldc, i0, i1, j, accumulate); break;
    default: break;
  }
}

// ---- Quantised u8·s8 GEMM --------------------------------------------------
//
// C = epilogue(A_u8 · B_s8) with exact int32 accumulation. B is pre-packed
// (PackedInt8B) in (k-group, column, 4) order so each 4-k step of one
// column is a contiguous 4-byte group: the AVX2/AVX-512 kernels broadcast
// 4 A bytes and run maddubs (u8·s8 pairs → i16) + madd (i16 pairs → i32)
// against 8/16 columns per vector. Weights are bounded by ±quant::kWeightQmax
// (= 63), so the i16 pair sums can never saturate and every kernel —
// scalar, AVX2, AVX-512, any pool size — produces identical accumulators.
// The float epilogue uses single-rounding fmaf/fmadd and max-based
// LeakyReLU in all paths, so outputs are bit-identical too.

// One output element's dequant + bias + LeakyReLU. max(y, alpha*y) equals
// LeakyReLU for alpha <= 1 and is the exact elementwise form the vector
// epilogues use.
inline float u8s8_epilogue_one(std::int32_t acc, std::int32_t zp_comp,
                               float scale, float bias, float alpha) {
  const float y =
      std::fmaf(scale, static_cast<float>(acc - zp_comp), bias);
  return std::max(y, y * alpha);
}

// Scalar kernel (and the j/row-tail path of the SIMD kernels): plain
// ascending-k s32 accumulation over the packed layout.
void u8s8_block_scalar(const std::uint8_t* a, std::int64_t lda,
                       const std::int8_t* packed, std::int64_t npad,
                       std::int64_t kgroups, const std::int32_t* colsum,
                       float* c, std::int64_t ldc, std::int64_t i0,
                       std::int64_t i1, std::int64_t j0, std::int64_t j1,
                       const QuantEpilogue& ep) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const std::uint8_t* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = j0; j < j1; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t kg = 0; kg < kgroups; ++kg) {
        const std::int8_t* bq = packed + (kg * npad + j) * 4;
        const std::uint8_t* aq = arow + kg * 4;
        acc += static_cast<std::int32_t>(aq[0]) * bq[0] +
               static_cast<std::int32_t>(aq[1]) * bq[1] +
               static_cast<std::int32_t>(aq[2]) * bq[2] +
               static_cast<std::int32_t>(aq[3]) * bq[3];
      }
      crow[j] = u8s8_epilogue_one(acc, ep.a_zp * colsum[j], ep.col_scale[j],
                                  ep.bias != nullptr ? ep.bias[j] : 0.f,
                                  ep.lrelu_alpha);
    }
  }
}

using U8S8BlockFn = void (*)(const std::uint8_t*, std::int64_t,
                             const std::int8_t*, std::int64_t, std::int64_t,
                             const std::int32_t*, float*, std::int64_t,
                             std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t, const QuantEpilogue&);

#if defined(__x86_64__) && defined(__GNUC__)

// AVX2 kernel: 4-row × 16-column register tile, maddubs + madd per 4-k
// group, vectorised epilogue. Full 16-column blocks only; the column tail
// falls through to the scalar kernel (identical results).
__attribute__((target("avx2,fma"))) void u8s8_block_avx2(
    const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
    std::int64_t npad, std::int64_t kgroups, const std::int32_t* colsum,
    float* c, std::int64_t ldc, std::int64_t i0, std::int64_t i1,
    std::int64_t j0, std::int64_t j1, const QuantEpilogue& ep) {
  const __m256i ones16 = _mm256_set1_epi16(1);
  const __m256i zp = _mm256_set1_epi32(ep.a_zp);
  const __m256 alpha = _mm256_set1_ps(ep.lrelu_alpha);
  for (std::int64_t i = i0; i < i1; i += 4) {
    const std::int64_t rg = std::min<std::int64_t>(4, i1 - i);
    std::int64_t j = j0;
    for (; j + 16 <= j1; j += 16) {
      __m256i acc[4][2];
      for (std::int64_t r = 0; r < rg; ++r) {
        acc[r][0] = _mm256_setzero_si256();
        acc[r][1] = _mm256_setzero_si256();
      }
      for (std::int64_t kg = 0; kg < kgroups; ++kg) {
        const std::int8_t* bq = packed + (kg * npad + j) * 4;
        const __m256i b0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bq));
        const __m256i b1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bq + 32));
        for (std::int64_t r = 0; r < rg; ++r) {
          std::int32_t aw;
          std::memcpy(&aw, a + (i + r) * lda + kg * 4, 4);
          const __m256i av = _mm256_set1_epi32(aw);
          acc[r][0] = _mm256_add_epi32(
              acc[r][0],
              _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones16));
          acc[r][1] = _mm256_add_epi32(
              acc[r][1],
              _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones16));
        }
      }
      const __m256i comp0 = _mm256_mullo_epi32(
          zp, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(colsum + j)));
      const __m256i comp1 = _mm256_mullo_epi32(
          zp, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(colsum + j + 8)));
      const __m256 sc0 = _mm256_loadu_ps(ep.col_scale + j);
      const __m256 sc1 = _mm256_loadu_ps(ep.col_scale + j + 8);
      const __m256 bi0 = ep.bias != nullptr ? _mm256_loadu_ps(ep.bias + j)
                                            : _mm256_setzero_ps();
      const __m256 bi1 = ep.bias != nullptr
                             ? _mm256_loadu_ps(ep.bias + j + 8)
                             : _mm256_setzero_ps();
      for (std::int64_t r = 0; r < rg; ++r) {
        const __m256 t0 =
            _mm256_cvtepi32_ps(_mm256_sub_epi32(acc[r][0], comp0));
        const __m256 t1 =
            _mm256_cvtepi32_ps(_mm256_sub_epi32(acc[r][1], comp1));
        __m256 y0 = _mm256_fmadd_ps(sc0, t0, bi0);
        __m256 y1 = _mm256_fmadd_ps(sc1, t1, bi1);
        y0 = _mm256_max_ps(y0, _mm256_mul_ps(y0, alpha));
        y1 = _mm256_max_ps(y1, _mm256_mul_ps(y1, alpha));
        _mm256_storeu_ps(c + (i + r) * ldc + j, y0);
        _mm256_storeu_ps(c + (i + r) * ldc + j + 8, y1);
      }
    }
    if (j < j1) {
      u8s8_block_scalar(a, lda, packed, npad, kgroups, colsum, c, ldc, i,
                        i + rg, j, j1, ep);
    }
  }
}

// AVX-512BW kernel: same structure, 16 columns per vector.
// GCC's avx512fintrin.h implements _mm512_undefined_ps as "__Y = __Y",
// which trips -Wmaybe-uninitialized through the cvt/max wrappers; the
// value is never actually consumed uninitialised.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f,avx512bw"))) void u8s8_block_avx512(
    const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
    std::int64_t npad, std::int64_t kgroups, const std::int32_t* colsum,
    float* c, std::int64_t ldc, std::int64_t i0, std::int64_t i1,
    std::int64_t j0, std::int64_t j1, const QuantEpilogue& ep) {
  const __m512i ones16 = _mm512_set1_epi16(1);
  const __m512i zp = _mm512_set1_epi32(ep.a_zp);
  const __m512 alpha = _mm512_set1_ps(ep.lrelu_alpha);
  for (std::int64_t i = i0; i < i1; i += 4) {
    const std::int64_t rg = std::min<std::int64_t>(4, i1 - i);
    std::int64_t j = j0;
    for (; j + 16 <= j1; j += 16) {
      __m512i acc[4];
      for (std::int64_t r = 0; r < rg; ++r) acc[r] = _mm512_setzero_si512();
      for (std::int64_t kg = 0; kg < kgroups; ++kg) {
        const __m512i b = _mm512_loadu_si512(packed + (kg * npad + j) * 4);
        for (std::int64_t r = 0; r < rg; ++r) {
          std::int32_t aw;
          std::memcpy(&aw, a + (i + r) * lda + kg * 4, 4);
          const __m512i av = _mm512_set1_epi32(aw);
          acc[r] = _mm512_add_epi32(
              acc[r], _mm512_madd_epi16(_mm512_maddubs_epi16(av, b), ones16));
        }
      }
      const __m512i comp = _mm512_mullo_epi32(
          zp, _mm512_loadu_si512(colsum + j));
      const __m512 sc = _mm512_loadu_ps(ep.col_scale + j);
      const __m512 bi = ep.bias != nullptr ? _mm512_loadu_ps(ep.bias + j)
                                           : _mm512_setzero_ps();
      for (std::int64_t r = 0; r < rg; ++r) {
        const __m512 t = _mm512_cvtepi32_ps(_mm512_sub_epi32(acc[r], comp));
        __m512 y = _mm512_fmadd_ps(sc, t, bi);
        y = _mm512_max_ps(y, _mm512_mul_ps(y, alpha));
        _mm512_storeu_ps(c + (i + r) * ldc + j, y);
      }
    }
    if (j < j1) {
      u8s8_block_scalar(a, lda, packed, npad, kgroups, colsum, c, ldc, i,
                        i + rg, j, j1, ep);
    }
  }
}

// VNNI kernel: vpdpbusd folds each 4-byte u8·s8 group straight into the
// s32 accumulator — no intermediate i16 stage, so it is exact for the full
// ±127 weight range, not just the maddubs-safe ±63. A 4-row × 32-column
// register tile (eight zmm accumulators; two 64-byte packed-B loads + four
// broadcasts + eight vpdpbusd per k-group), a 16-column secondary loop,
// and the scalar kernel for the column tail — identical s32 accumulators
// and the identical fused epilogue in every path.
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void u8s8_block_vnni(
    const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
    std::int64_t npad, std::int64_t kgroups, const std::int32_t* colsum,
    float* c, std::int64_t ldc, std::int64_t i0, std::int64_t i1,
    std::int64_t j0, std::int64_t j1, const QuantEpilogue& ep) {
  const __m512i zp = _mm512_set1_epi32(ep.a_zp);
  const __m512 alpha = _mm512_set1_ps(ep.lrelu_alpha);
  for (std::int64_t i = i0; i < i1; i += 4) {
    const std::int64_t rg = std::min<std::int64_t>(4, i1 - i);
    std::int64_t j = j0;
    for (; j + 32 <= j1; j += 32) {
      __m512i acc[4][2];
      for (std::int64_t r = 0; r < rg; ++r) {
        acc[r][0] = _mm512_setzero_si512();
        acc[r][1] = _mm512_setzero_si512();
      }
      for (std::int64_t kg = 0; kg < kgroups; ++kg) {
        const std::int8_t* bq = packed + (kg * npad + j) * 4;
        const __m512i b0 = _mm512_loadu_si512(bq);
        const __m512i b1 = _mm512_loadu_si512(bq + 64);
        for (std::int64_t r = 0; r < rg; ++r) {
          std::int32_t aw;
          std::memcpy(&aw, a + (i + r) * lda + kg * 4, 4);
          const __m512i av = _mm512_set1_epi32(aw);
          acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], av, b0);
          acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], av, b1);
        }
      }
      for (int half = 0; half < 2; ++half) {
        const std::int64_t jj = j + half * 16;
        const __m512i comp = _mm512_mullo_epi32(
            zp, _mm512_loadu_si512(colsum + jj));
        const __m512 sc = _mm512_loadu_ps(ep.col_scale + jj);
        const __m512 bi = ep.bias != nullptr
                              ? _mm512_loadu_ps(ep.bias + jj)
                              : _mm512_setzero_ps();
        for (std::int64_t r = 0; r < rg; ++r) {
          const __m512 t =
              _mm512_cvtepi32_ps(_mm512_sub_epi32(acc[r][half], comp));
          __m512 y = _mm512_fmadd_ps(sc, t, bi);
          y = _mm512_max_ps(y, _mm512_mul_ps(y, alpha));
          _mm512_storeu_ps(c + (i + r) * ldc + jj, y);
        }
      }
    }
    for (; j + 16 <= j1; j += 16) {
      __m512i acc[4];
      for (std::int64_t r = 0; r < rg; ++r) acc[r] = _mm512_setzero_si512();
      for (std::int64_t kg = 0; kg < kgroups; ++kg) {
        const __m512i b = _mm512_loadu_si512(packed + (kg * npad + j) * 4);
        for (std::int64_t r = 0; r < rg; ++r) {
          std::int32_t aw;
          std::memcpy(&aw, a + (i + r) * lda + kg * 4, 4);
          acc[r] = _mm512_dpbusd_epi32(acc[r], _mm512_set1_epi32(aw), b);
        }
      }
      const __m512i comp = _mm512_mullo_epi32(
          zp, _mm512_loadu_si512(colsum + j));
      const __m512 sc = _mm512_loadu_ps(ep.col_scale + j);
      const __m512 bi = ep.bias != nullptr ? _mm512_loadu_ps(ep.bias + j)
                                           : _mm512_setzero_ps();
      for (std::int64_t r = 0; r < rg; ++r) {
        const __m512 t = _mm512_cvtepi32_ps(_mm512_sub_epi32(acc[r], comp));
        __m512 y = _mm512_fmadd_ps(sc, t, bi);
        y = _mm512_max_ps(y, _mm512_mul_ps(y, alpha));
        _mm512_storeu_ps(c + (i + r) * ldc + j, y);
      }
    }
    if (j < j1) {
      u8s8_block_scalar(a, lda, packed, npad, kgroups, colsum, c, ldc, i,
                        i + rg, j, j1, ep);
    }
  }
}
#pragma GCC diagnostic pop

#endif  // __x86_64__ && __GNUC__

struct U8S8Kernel {
  U8S8BlockFn fn = &u8s8_block_scalar;
  const char* name = "scalar";
  // Exact for ±127 ("full range") packs: true for the kernels that fold
  // u8·s8 groups straight into s32 (scalar, VNNI); false for the maddubs
  // kernels, whose i16 pair stage is only saturation-free within ±63.
  bool full_range_safe = true;
};

// Strict level lookup for the forced-kernel testing seam: resolves exactly
// the requested level or reports that this host cannot run it.
bool u8s8_kernel_for_level(std::string_view level, U8S8Kernel* out) {
  if (level == "scalar" || level == "sse2") {
    *out = {};
    return true;
  }
#if defined(__x86_64__) && defined(__GNUC__)
  if (level == "avx2" && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    *out = {&u8s8_block_avx2, "avx2", false};
    return true;
  }
  if (level == "avx512" && __builtin_cpu_supports("avx512bw")) {
    *out = {&u8s8_block_avx512, "avx512", false};
    return true;
  }
  if (level == "vnni" && __builtin_cpu_supports("avx512vnni")) {
    *out = {&u8s8_block_vnni, "vnni", true};
    return true;
  }
#endif
  return false;
}

// Picks the widest kernel the host supports, capped by MTSR_SIMD
// ("scalar" | "avx2" | "avx512" | "vnni"; "avx512" deliberately caps BELOW
// VNNI so the maddubs AVX-512 kernel stays forceable on VNNI hosts).
// Resolved once per process, so the choice cannot vary mid-run. Safe to
// default to VNNI where present: every kernel produces exact s32
// accumulators, so the cross-ISA bit-exactness contract is unchanged.
U8S8Kernel resolve_u8s8_kernel() {
#if defined(__x86_64__) && defined(__GNUC__)
  const char* env = std::getenv("MTSR_SIMD");
  const std::string_view want = env != nullptr ? env : "";
  if (want == "scalar" || want == "sse2") return {};
  const bool allow_vnni = want.empty() || want == "vnni";
  const bool allow_avx512 = allow_vnni || want == "avx512";
  const bool allow_avx2 = allow_avx512 || want == "avx2";
  if (allow_vnni && __builtin_cpu_supports("avx512vnni")) {
    return {&u8s8_block_vnni, "vnni", true};
  }
  if (allow_avx512 && __builtin_cpu_supports("avx512bw")) {
    return {&u8s8_block_avx512, "avx512", false};
  }
  if (allow_avx2 && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    return {&u8s8_block_avx2, "avx2", false};
  }
#endif
  return {};
}

const U8S8Kernel& u8s8_kernel() {
  static const U8S8Kernel kernel = resolve_u8s8_kernel();
  return kernel;
}

// Shared driver behind gemm_u8s8 and the forced-kernel seam. A full-range
// (±127) pack demotes maddubs kernels to the scalar kernel — their i16
// pair stage could saturate — while scalar/VNNI run as chosen; both are
// exact in s32, so results stay bit-identical either way.
void gemm_u8s8_dispatch(const std::uint8_t* a, std::int64_t lda,
                        const PackedInt8B& b, std::int64_t m,
                        const QuantEpilogue& ep, float* c, std::int64_t ldc,
                        const U8S8Kernel& kernel) {
  check(!b.empty(), "gemm_u8s8: empty packed B");
  check(m > 0, "gemm_u8s8: empty A");
  check(lda >= b.kpad(), "gemm_u8s8: lda must cover the padded k extent");
  check(ep.col_scale != nullptr, "gemm_u8s8: missing column scales");
  if (ldc <= 0) ldc = b.n;
  check(ldc >= b.n, "gemm_u8s8: ldc must cover the column extent");
  // Padded destination: compute the zero-pad columns too, so the vector
  // path never falls back to the scalar column tail.
  const std::int64_t jspan = ldc >= b.npad ? b.npad : b.n;
  const U8S8BlockFn fn = (b.full_range && !kernel.full_range_safe)
                             ? &u8s8_block_scalar
                             : kernel.fn;
  const std::int64_t kgroups = b.kpad() / 4;
  const std::int8_t* packed = b.data.data();
  const std::int32_t* colsum = b.colsum.data();
  if (m >= jspan) {
    // Tall C: split rows; every chunk streams the whole (small) packed B.
    parallel_for_grain(m, kRowGrain,
                       [&](std::int64_t i0, std::int64_t i1, int) {
      fn(a, lda, packed, b.npad, kgroups, colsum, c, ldc, i0, i1, 0, jspan,
         ep);
    });
  } else {
    // Wide C: split 16-column blocks so SIMD chunks stay vector-aligned.
    const std::int64_t nblocks = (jspan + 15) / 16;
    parallel_for_grain(nblocks, 1, [&](std::int64_t t0, std::int64_t t1,
                                       int) {
      fn(a, lda, packed, b.npad, kgroups, colsum, c, ldc, 0, m, t0 * 16,
         std::min(jspan, t1 * 16), ep);
    });
  }
}

}  // namespace

PackedInt8B pack_b_s8(const std::int8_t* b, std::int64_t k, std::int64_t n,
                      bool full_range) {
  check(k > 0 && n > 0, "pack_b_s8: empty matrix");
  PackedInt8B packed;
  packed.k = k;
  packed.n = n;
  packed.npad = (n + 15) / 16 * 16;
  packed.full_range = full_range;
  const int qmax =
      full_range ? quant::kWeightQmaxFull : quant::kWeightQmax;
  const std::int64_t kgroups = packed.kpad() / 4;
  packed.data.assign(
      static_cast<std::size_t>(kgroups * packed.npad * 4), 0);
  packed.colsum.assign(static_cast<std::size_t>(packed.npad), 0);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const std::int8_t* brow = b + kk * n;
    const std::int64_t kg = kk / 4, kr = kk % 4;
    std::int8_t* prow = packed.data.data() + kg * packed.npad * 4 + kr;
    for (std::int64_t j = 0; j < n; ++j) {
      check(brow[j] >= -qmax && brow[j] <= qmax,
            full_range
                ? "pack_b_s8: value outside the ±kWeightQmaxFull range"
                : "pack_b_s8: value outside the ±kWeightQmax "
                  "saturation-free weight range");
      prow[j * 4] = brow[j];
      packed.colsum[static_cast<std::size_t>(j)] += brow[j];
    }
  }
  return packed;
}

void gemm_u8s8(const std::uint8_t* a, std::int64_t lda, const PackedInt8B& b,
               std::int64_t m, const QuantEpilogue& ep, float* c,
               std::int64_t ldc) {
  gemm_u8s8_dispatch(a, lda, b, m, ep, c, ldc, u8s8_kernel());
}

bool gemm_u8s8_forced_kernel(const char* level, const std::uint8_t* a,
                             std::int64_t lda, const PackedInt8B& b,
                             std::int64_t m, const QuantEpilogue& ep,
                             float* c, std::int64_t ldc) {
  U8S8Kernel kernel;
  if (!u8s8_kernel_for_level(level != nullptr ? level : "", &kernel)) {
    return false;
  }
  gemm_u8s8_dispatch(a, lda, b, m, ep, c, ldc, kernel);
  return true;
}

void gemm_u8s8_ref(const std::uint8_t* a, std::int64_t lda,
                   const PackedInt8B& b, std::int64_t m,
                   const QuantEpilogue& ep, float* c, std::int64_t ldc) {
  check(!b.empty(), "gemm_u8s8_ref: empty packed B");
  check(lda >= b.kpad(), "gemm_u8s8_ref: lda must cover the padded k extent");
  check(ep.col_scale != nullptr, "gemm_u8s8_ref: missing column scales");
  if (ldc <= 0) ldc = b.n;
  check(ldc >= b.n, "gemm_u8s8_ref: ldc must cover the column extent");
  const std::int64_t jspan = ldc >= b.npad ? b.npad : b.n;
  u8s8_block_scalar(a, lda, b.data.data(), b.npad, b.kpad() / 4,
                    b.colsum.data(), c, ldc, 0, m, 0, jspan, ep);
}

const char* gemm_u8s8_kernel_name() { return u8s8_kernel().name; }

const char* matmul_kernel_name() { return float_panel_kernel().name; }

namespace {

// a·b + c, built like the small-k / NT block kernels (same attribute, same
// translation unit), so its resolved clone contracts exactly when theirs do.
MTSR_SIMD_CLONES __attribute__((noinline))
float block_mul_add(float a, float b, float c) { return a * b + c; }

}  // namespace

bool matmul_block_kernels_fuse_mul_add() {
  // (1 + 2⁻¹²)² − 1 is 2⁻¹¹ + 2⁻²⁴ fused and 2⁻¹¹ when the product rounds
  // first. volatile keeps the operands out of constant folding.
  volatile float a = 1.f + 0x1p-12f, c = -1.f;
  return block_mul_add(a, a, c) != 0x1p-11f;
}

void matmul_into(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_nn(a, b, c, m, k, n, accumulate, float_panel_kernel().fn);
}

bool matmul_into_forced_kernel(const char* level, const float* a,
                               const float* b, float* c, std::int64_t m,
                               std::int64_t k, std::int64_t n,
                               bool accumulate) {
  FloatPanelKernel kernel;
  if (!float_kernel_for_level(level != nullptr ? level : "", &kernel)) {
    return false;
  }
  gemm_nn(a, b, c, m, k, n, accumulate, kernel.fn);
  return true;
}

void matmul_tn_into(const float* a, const float* b, float* c, std::int64_t k,
                    std::int64_t m, std::int64_t n, bool accumulate) {
  // Materialise Aᵀ in workspace scratch (O(m·k), negligible next to the
  // O(m·k·n) product) so the core kernel always streams contiguous A rows.
  Workspace& ws = Workspace::tls();
  Workspace::Scope scratch(ws);
  float* at = ws.alloc(m * k);
  transpose_into(a, k, m, at);
  gemm_nn(at, b, c, m, k, n, accumulate, float_panel_kernel().fn);
}

// Fewest multiply-adds worth one pooled NT chunk. The discriminator's
// weight-gradient products (10⁴–10⁵ MACs) ran slower fanned out in
// 16-line chunks than on one thread: below this the pool's wake-up and the
// cores' traffic on C's cache lines outweigh the chunk's arithmetic.
constexpr std::int64_t kNtChunkMacs = std::int64_t{1} << 16;

void matmul_nt_into(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, bool accumulate) {
  // Split C's longer side into chunks of at least kNtChunkMacs. An
  // element's bits never depend on the split.
  const bool by_rows = m >= n;
  const std::int64_t line_macs =
      std::max<std::int64_t>(1, (by_rows ? n : m) * k);
  const std::int64_t grain =
      std::max(kRowGrain, (kNtChunkMacs + line_macs - 1) / line_macs);
  parallel_for_grain(by_rows ? m : n, grain,
                     [&](std::int64_t l0, std::int64_t l1, int) {
    if (by_rows) {
      gemm_nt_block(a, b, c, k, n, l0, l1, 0, n, accumulate);
    } else {
      gemm_nt_block(a, b, c, k, n, 0, m, l0, l1, accumulate);
    }
  });
}

void transpose_into(const float* a, std::int64_t m, std::int64_t n,
                    float* out) {
  // 32×32 tiles keep both the read and the strided write streams in L1.
  constexpr std::int64_t kTile = 32;
  parallel_for_grain(n, kTile, [&](std::int64_t r0, std::int64_t r1, int) {
    for (std::int64_t jt = r0; jt < r1; jt += kTile) {
      const std::int64_t jmax = std::min(r1, jt + kTile);
      for (std::int64_t it = 0; it < m; it += kTile) {
        const std::int64_t imax = std::min(m, it + kTile);
        for (std::int64_t j = jt; j < jmax; ++j) {
          for (std::int64_t i = it; i < imax; ++i) {
            out[j * m + i] = a[i * n + j];
          }
        }
      }
    }
  });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check(a.rank() == 2 && b.rank() == 2, "matmul requires rank-2 tensors");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  check(b.dim(0) == k, "matmul inner dimensions must agree: " +
                           a.shape().to_string() + " * " +
                           b.shape().to_string());
  Tensor c(Shape{m, n});
  // The fresh tensor is already zeroed; accumulate mode skips the kernel's
  // redundant clear of C (bitwise-identical result).
  matmul_into(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check(a.rank() == 2 && b.rank() == 2, "matmul_tn requires rank-2 tensors");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  check(b.dim(0) == k, "matmul_tn inner dimensions must agree");
  Tensor c(Shape{m, n});
  matmul_tn_into(a.data(), b.data(), c.data(), k, m, n, /*accumulate=*/true);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check(a.rank() == 2 && b.rank() == 2, "matmul_nt requires rank-2 tensors");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  check(b.dim(1) == k, "matmul_nt inner dimensions must agree");
  Tensor c(Shape{m, n});
  matmul_nt_into(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor transpose(const Tensor& a) {
  check(a.rank() == 2, "transpose requires a rank-2 tensor");
  Tensor out(Shape{a.dim(1), a.dim(0)});
  transpose_into(a.data(), a.dim(0), a.dim(1), out.data());
  return out;
}

Tensor im2col(const Tensor& input, int kh, int kw, int stride_h, int stride_w,
              int pad_h, int pad_w) {
  check(input.rank() == 3, "im2col expects input of shape (C, H, W)");
  check(kh > 0 && kw > 0 && stride_h > 0 && stride_w > 0 && pad_h >= 0 &&
            pad_w >= 0,
        "im2col parameters out of range");
  const std::int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t oh = (h + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (w + 2 * pad_w - kw) / stride_w + 1;
  check(oh > 0 && ow > 0, "im2col produces empty output for these params");

  Tensor out(Shape{c * kh * kw, oh * ow});
  float* po = out.data();
  const float* pi = input.data();
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        const std::int64_t row = (ch * kh + ky) * kw + kx;
        float* orow = po + row * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride_h - pad_h + ky;
          if (iy < 0 || iy >= h) {
            std::fill(orow + oy * ow, orow + (oy + 1) * ow, 0.f);
            continue;
          }
          const float* irow = pi + (ch * h + iy) * w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * stride_w - pad_w + kx;
            orow[oy * ow + ox] = (ix >= 0 && ix < w) ? irow[ix] : 0.f;
          }
        }
      }
    }
  }
  return out;
}

Tensor col2im(const Tensor& columns, std::int64_t channels,
              std::int64_t height, std::int64_t width, int kh, int kw,
              int stride_h, int stride_w, int pad_h, int pad_w) {
  check(columns.rank() == 2, "col2im expects rank-2 columns");
  const std::int64_t oh = (height + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (width + 2 * pad_w - kw) / stride_w + 1;
  check(columns.dim(0) == channels * kh * kw,
        "col2im columns row count mismatch");
  check(columns.dim(1) == oh * ow, "col2im columns col count mismatch");

  Tensor out(Shape{channels, height, width});
  float* po = out.data();
  const float* pc = columns.data();
  for (std::int64_t ch = 0; ch < channels; ++ch) {
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        const std::int64_t row = (ch * kh + ky) * kw + kx;
        const float* crow = pc + row * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride_h - pad_h + ky;
          if (iy < 0 || iy >= height) continue;
          float* orow = po + (ch * height + iy) * width;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * stride_w - pad_w + kx;
            if (ix >= 0 && ix < width) orow[ix] += crow[oy * ow + ox];
          }
        }
      }
    }
  }
  return out;
}

void im2col_batched_into(const float* pi, std::int64_t n, std::int64_t c,
                         std::int64_t h, std::int64_t w, int kh, int kw,
                         int stride_h, int stride_w, int pad_h, int pad_w,
                         float* po) {
  const std::int64_t oh = (h + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (w + 2 * pad_w - kw) / stride_w + 1;
  // Each output row is contiguous over all samples; rows are independent.
  parallel_for(c * kh * kw, [&](std::int64_t row) {
    const std::int64_t ch = row / (kh * kw);
    const std::int64_t rem = row % (kh * kw);
    const int ky = static_cast<int>(rem / kw);
    const int kx = static_cast<int>(rem % kw);
    float* orow = po + row * n * oh * ow;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* img = pi + (i * c + ch) * h * w;
      float* oseg = orow + i * oh * ow;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        const std::int64_t iy = oy * stride_h - pad_h + ky;
        if (iy < 0 || iy >= h) {
          std::fill(oseg + oy * ow, oseg + (oy + 1) * ow, 0.f);
          continue;
        }
        const float* irow = img + iy * w;
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const std::int64_t ix = ox * stride_w - pad_w + kx;
          oseg[oy * ow + ox] = (ix >= 0 && ix < w) ? irow[ix] : 0.f;
        }
      }
    }
  });
}

Tensor im2col_batched(const Tensor& input, int kh, int kw, int stride_h,
                      int stride_w, int pad_h, int pad_w) {
  check(input.rank() == 4, "im2col_batched expects input of shape (N, C, H, W)");
  check(kh > 0 && kw > 0 && stride_h > 0 && stride_w > 0 && pad_h >= 0 &&
            pad_w >= 0,
        "im2col_batched parameters out of range");
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t oh = (h + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (w + 2 * pad_w - kw) / stride_w + 1;
  check(oh > 0 && ow > 0, "im2col_batched produces empty output");

  Tensor out(Shape{c * kh * kw, n * oh * ow});
  im2col_batched_into(input.data(), n, c, h, w, kh, kw, stride_h, stride_w,
                      pad_h, pad_w, out.data());
  return out;
}

namespace {

// Output coordinates [lo, hi) of one tap whose input coordinate
// o * stride - pad + tap lands inside [0, extent).
struct TapRange {
  std::int64_t lo = 0, hi = 0;
};

TapRange tap_range(std::int64_t out, std::int64_t extent, int tap, int stride,
                   int pad) {
  const std::int64_t first = pad - tap;               // least o * stride
  const std::int64_t last = extent - 1 + pad - tap;   // greatest o * stride
  if (last < 0) return {};
  const std::int64_t lo = first > 0 ? (first + stride - 1) / stride : 0;
  const std::int64_t hi = std::min(out, last / stride + 1);
  return {lo, std::max(lo, hi)};
}

// dst[x * stride] += src[x] for x in [0, len): one add per destination
// element, so the unit-stride loop vectorises without reordering any sum.
inline void scatter_add_run(float* __restrict dst,
                            const float* __restrict src, std::int64_t len,
                            int stride) {
  if (stride == 1) {
    for (std::int64_t x = 0; x < len; ++x) dst[x] += src[x];
  } else {
    for (std::int64_t x = 0; x < len; ++x) dst[x * stride] += src[x];
  }
}

}  // namespace

void col2im_batched_into(const float* pc, std::int64_t n,
                         std::int64_t channels, std::int64_t height,
                         std::int64_t width, int kh, int kw, int stride_h,
                         int stride_w, int pad_h, int pad_w, float* po) {
  const std::int64_t oh = (height + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (width + 2 * pad_w - kw) / stride_w + 1;
  // Samples write disjoint output chunks; scatter order within a sample is
  // fixed, so results are pool-size independent. Each tap's in-bounds
  // output rows/columns are hoisted out of the loops, which visit the
  // surviving elements in the same order as a per-element bounds test.
  parallel_for(n, [&](std::int64_t i) {
    float* img_base = po + i * channels * height * width;
    std::memset(img_base, 0,
                static_cast<std::size_t>(channels * height * width) *
                    sizeof(float));
    for (std::int64_t ch = 0; ch < channels; ++ch) {
      for (int ky = 0; ky < kh; ++ky) {
        const TapRange ys = tap_range(oh, height, ky, stride_h, pad_h);
        for (int kx = 0; kx < kw; ++kx) {
          const TapRange xs = tap_range(ow, width, kx, stride_w, pad_w);
          if (xs.lo == xs.hi) continue;
          const std::int64_t row = (ch * kh + ky) * kw + kx;
          const float* crow = pc + row * n * oh * ow + i * oh * ow;
          for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
            const std::int64_t iy = oy * stride_h - pad_h + ky;
            float* orow = img_base + (ch * height + iy) * width +
                          (xs.lo * stride_w - pad_w + kx);
            scatter_add_run(orow, crow + oy * ow + xs.lo, xs.hi - xs.lo,
                            stride_w);
          }
        }
      }
    }
  });
}

Tensor col2im_batched(const Tensor& columns, std::int64_t n,
                      std::int64_t channels, std::int64_t height,
                      std::int64_t width, int kh, int kw, int stride_h,
                      int stride_w, int pad_h, int pad_w) {
  check(columns.rank() == 2, "col2im_batched expects rank-2 columns");
  const std::int64_t oh = (height + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (width + 2 * pad_w - kw) / stride_w + 1;
  check(columns.dim(0) == channels * kh * kw,
        "col2im_batched columns row count mismatch");
  check(columns.dim(1) == n * oh * ow,
        "col2im_batched columns col count mismatch");

  Tensor out(Shape{n, channels, height, width});
  col2im_batched_into(columns.data(), n, channels, height, width, kh, kw,
                      stride_h, stride_w, pad_h, pad_w, out.data());
  return out;
}

void vol2col_batched_into(const float* pi, std::int64_t n, std::int64_t c,
                          std::int64_t d, std::int64_t h, std::int64_t w,
                          int kd, int kh, int kw, int stride_d, int stride_h,
                          int stride_w, int pad_d, int pad_h, int pad_w,
                          float* po) {
  const std::int64_t od = (d + 2 * pad_d - kd) / stride_d + 1;
  const std::int64_t oh = (h + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (w + 2 * pad_w - kw) / stride_w + 1;
  const std::int64_t taps = static_cast<std::int64_t>(kd) * kh * kw;
  parallel_for(c * taps, [&](std::int64_t row) {
    const std::int64_t ch = row / taps;
    std::int64_t rem = row % taps;
    const int kz = static_cast<int>(rem / (kh * kw));
    rem %= kh * kw;
    const int ky = static_cast<int>(rem / kw);
    const int kx = static_cast<int>(rem % kw);
    float* orow = po + row * n * od * oh * ow;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* vol = pi + (i * c + ch) * d * h * w;
      float* oseg = orow + i * od * oh * ow;
      for (std::int64_t oz = 0; oz < od; ++oz) {
        const std::int64_t iz = oz * stride_d - pad_d + kz;
        if (iz < 0 || iz >= d) {
          std::fill(oseg + oz * oh * ow, oseg + (oz + 1) * oh * ow, 0.f);
          continue;
        }
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride_h - pad_h + ky;
          float* oline = oseg + (oz * oh + oy) * ow;
          if (iy < 0 || iy >= h) {
            std::fill(oline, oline + ow, 0.f);
            continue;
          }
          const float* irow = vol + (iz * h + iy) * w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * stride_w - pad_w + kx;
            oline[ox] = (ix >= 0 && ix < w) ? irow[ix] : 0.f;
          }
        }
      }
    }
  });
}

Tensor vol2col_batched(const Tensor& input, int kd, int kh, int kw,
                       int stride_d, int stride_h, int stride_w, int pad_d,
                       int pad_h, int pad_w) {
  check(input.rank() == 5,
        "vol2col_batched expects input of shape (N, C, D, H, W)");
  check(kd > 0 && kh > 0 && kw > 0 && stride_d > 0 && stride_h > 0 &&
            stride_w > 0 && pad_d >= 0 && pad_h >= 0 && pad_w >= 0,
        "vol2col_batched parameters out of range");
  const std::int64_t n = input.dim(0), c = input.dim(1), d = input.dim(2),
                     h = input.dim(3), w = input.dim(4);
  const std::int64_t od = (d + 2 * pad_d - kd) / stride_d + 1;
  const std::int64_t oh = (h + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (w + 2 * pad_w - kw) / stride_w + 1;
  check(od > 0 && oh > 0 && ow > 0, "vol2col_batched produces empty output");

  Tensor out(Shape{c * kd * kh * kw, n * od * oh * ow});
  vol2col_batched_into(input.data(), n, c, d, h, w, kd, kh, kw, stride_d,
                       stride_h, stride_w, pad_d, pad_h, pad_w, out.data());
  return out;
}

void col2vol_batched_into(const float* pc, std::int64_t n,
                          std::int64_t channels, std::int64_t depth,
                          std::int64_t height, std::int64_t width, int kd,
                          int kh, int kw, int stride_d, int stride_h,
                          int stride_w, int pad_d, int pad_h, int pad_w,
                          float* po) {
  const std::int64_t od = (depth + 2 * pad_d - kd) / stride_d + 1;
  const std::int64_t oh = (height + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (width + 2 * pad_w - kw) / stride_w + 1;
  // Same hoisted tap ranges and element order as col2im_batched_into.
  parallel_for(n, [&](std::int64_t i) {
    float* vol_base = po + i * channels * depth * height * width;
    std::memset(vol_base, 0,
                static_cast<std::size_t>(channels * depth * height * width) *
                    sizeof(float));
    for (std::int64_t ch = 0; ch < channels; ++ch) {
      for (int kz = 0; kz < kd; ++kz) {
        const TapRange zs = tap_range(od, depth, kz, stride_d, pad_d);
        for (int ky = 0; ky < kh; ++ky) {
          const TapRange ys = tap_range(oh, height, ky, stride_h, pad_h);
          for (int kx = 0; kx < kw; ++kx) {
            const TapRange xs = tap_range(ow, width, kx, stride_w, pad_w);
            if (xs.lo == xs.hi) continue;
            const std::int64_t row =
                ((ch * kd + kz) * kh + ky) * kw + kx;
            const float* crow =
                pc + row * n * od * oh * ow + i * od * oh * ow;
            for (std::int64_t oz = zs.lo; oz < zs.hi; ++oz) {
              const std::int64_t iz = oz * stride_d - pad_d + kz;
              for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
                const std::int64_t iy = oy * stride_h - pad_h + ky;
                float* orow =
                    vol_base + ((ch * depth + iz) * height + iy) * width +
                    (xs.lo * stride_w - pad_w + kx);
                scatter_add_run(orow, crow + (oz * oh + oy) * ow + xs.lo,
                                xs.hi - xs.lo, stride_w);
              }
            }
          }
        }
      }
    }
  });
}

Tensor col2vol_batched(const Tensor& columns, std::int64_t n,
                       std::int64_t channels, std::int64_t depth,
                       std::int64_t height, std::int64_t width, int kd, int kh,
                       int kw, int stride_d, int stride_h, int stride_w,
                       int pad_d, int pad_h, int pad_w) {
  check(columns.rank() == 2, "col2vol_batched expects rank-2 columns");
  const std::int64_t od = (depth + 2 * pad_d - kd) / stride_d + 1;
  const std::int64_t oh = (height + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (width + 2 * pad_w - kw) / stride_w + 1;
  const std::int64_t taps = static_cast<std::int64_t>(kd) * kh * kw;
  check(columns.dim(0) == channels * taps,
        "col2vol_batched columns row count mismatch");
  check(columns.dim(1) == n * od * oh * ow,
        "col2vol_batched columns col count mismatch");

  Tensor out(Shape{n, channels, depth, height, width});
  col2vol_batched_into(columns.data(), n, channels, depth, height, width, kd,
                       kh, kw, stride_d, stride_h, stride_w, pad_d, pad_h,
                       pad_w, out.data());
  return out;
}

namespace {

// Copies `len` bytes with fixed-width (possibly overlapping) moves, so the
// short channel runs of the row lowering never call into memcpy.
inline void copy_run(std::uint8_t* dst, const std::uint8_t* src,
                     std::int64_t len) {
  if (len >= 16) {
    std::int64_t i = 0;
    for (; i + 16 <= len; i += 16) std::memcpy(dst + i, src + i, 16);
    if (i < len) std::memcpy(dst + len - 16, src + len - 16, 16);
  } else if (len >= 8) {
    std::memcpy(dst, src, 8);
    std::memcpy(dst + len - 8, src + len - 8, 8);
  } else if (len >= 4) {
    std::memcpy(dst, src, 4);
    std::memcpy(dst + len - 4, src + len - 4, 4);
  } else {
    for (std::int64_t i = 0; i < len; ++i) dst[i] = src[i];
  }
}

// Fills `len` bytes with `value` by the same fixed-width moves.
inline void fill_run(std::uint8_t* dst, std::uint8_t value,
                     std::int64_t len) {
  const std::uint64_t word = 0x0101010101010101ull * value;
  if (len >= 8) {
    std::int64_t i = 0;
    for (; i + 8 <= len; i += 8) std::memcpy(dst + i, &word, 8);
    if (i < len) std::memcpy(dst + len - 8, &word, 8);
  } else if (len >= 4) {
    std::memcpy(dst, &word, 4);
    std::memcpy(dst + len - 4, &word, 4);
  } else {
    for (std::int64_t i = 0; i < len; ++i) dst[i] = value;
  }
}

}  // namespace

void vol2row_u8_into(const std::uint8_t* input, std::int64_t ld,
                     std::int64_t n, std::int64_t c, std::int64_t d,
                     std::int64_t h, std::int64_t w, int kd, int kh, int kw,
                     int stride_d, int stride_h, int stride_w, int pad_d,
                     int pad_h, int pad_w, std::uint8_t pad, std::uint8_t* out,
                     std::int64_t lda) {
  const std::int64_t od = (d + 2 * pad_d - kd) / stride_d + 1;
  const std::int64_t oh = (h + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (w + 2 * pad_w - kw) / stride_w + 1;
  const std::int64_t line = kw * c;  // one (kz, ky) tap line of a row
  const std::int64_t k = static_cast<std::int64_t>(kd) * kh * line;
  check(ld >= c && lda >= k, "vol2row_u8_into: stride below row width");
  // Columns [ox_lo, ox_hi) have their kernel row inside the input row: with
  // packed positions each of their tap lines is one contiguous run.
  std::int64_t ox_lo = 0, ox_hi = 0;
  if (ld == c && w + pad_w - kw >= 0) {
    ox_lo = std::min<std::int64_t>(ow, (pad_w + stride_w - 1) / stride_w);
    ox_hi = std::max(ox_lo, std::min<std::int64_t>(
                                ow, (w + pad_w - kw) / stride_w + 1));
  }
  // Tasks are output lines (i, oz, oy) of ow rows; within a line each tap
  // line's bounds are checked once for all its columns. A grain of a few
  // hundred rows keeps a serving-size pass to a handful of pool dispatches.
  parallel_for_grain(n * od * oh, std::max<std::int64_t>(1, 256 / ow),
                     [&](std::int64_t l0, std::int64_t l1, int) {
    for (std::int64_t l = l0; l < l1; ++l) {
      const std::int64_t oy = l % oh;
      const std::int64_t oz = (l / oh) % od;
      const std::int64_t i = l / (oh * od);
      std::uint8_t* rows = out + l * ow * lda;
      for (int kz = 0; kz < kd; ++kz) {
        const std::int64_t iz = oz * stride_d - pad_d + kz;
        for (int ky = 0; ky < kh; ++ky) {
          const std::int64_t iy = oy * stride_h - pad_h + ky;
          std::uint8_t* dst = rows + (kz * kh + ky) * line;
          if (iz < 0 || iz >= d || iy < 0 || iy >= h) {
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              fill_run(dst + ox * lda, pad, line);
            }
            continue;
          }
          const std::uint8_t* src =
              input + ((i * d + iz) * h + iy) * w * ld;
          for (std::int64_t ox = ox_lo; ox < ox_hi; ++ox) {
            copy_run(dst + ox * lda, src + (ox * stride_w - pad_w) * c, line);
          }
          // Edge columns (and every column of a strided input): per tap.
          const auto edge = [&](std::int64_t ox) {
            for (int kx = 0; kx < kw; ++kx) {
              const std::int64_t ix = ox * stride_w - pad_w + kx;
              std::uint8_t* tap = dst + ox * lda + kx * c;
              if (ix >= 0 && ix < w) {
                copy_run(tap, src + ix * ld, c);
              } else {
                fill_run(tap, pad, c);
              }
            }
          };
          for (std::int64_t ox = 0; ox < ox_lo; ++ox) edge(ox);
          for (std::int64_t ox = ox_hi; ox < ow; ++ox) edge(ox);
        }
      }
      if (lda > k) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          fill_run(rows + ox * lda + k, 0, lda - k);
        }
      }
    }
  });
}

void batch_to_channel_major_into(const float* pi, std::int64_t n,
                                 std::int64_t c, std::int64_t inner,
                                 float* po) {
  parallel_for(c, [&](std::int64_t ch) {
    for (std::int64_t i = 0; i < n; ++i) {
      std::memcpy(po + (ch * n + i) * inner, pi + (i * c + ch) * inner,
                  static_cast<std::size_t>(inner) * sizeof(float));
    }
  });
}

Tensor batch_to_channel_major(const Tensor& input) {
  check(input.rank() >= 3, "batch_to_channel_major expects (N, C, ...) input");
  const std::int64_t n = input.dim(0), c = input.dim(1);
  std::int64_t inner = 1;
  for (int i = 2; i < input.rank(); ++i) inner *= input.dim(i);
  Tensor out(Shape{c, n * inner});
  batch_to_channel_major_into(input.data(), n, c, inner, out.data());
  return out;
}

void channel_major_to_batch_into(const float* pi, std::int64_t n,
                                 std::int64_t c, std::int64_t inner,
                                 float* po) {
  parallel_for(n, [&](std::int64_t i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      std::memcpy(po + (i * c + ch) * inner, pi + (ch * n + i) * inner,
                  static_cast<std::size_t>(inner) * sizeof(float));
    }
  });
}

Tensor channel_major_to_batch(const Tensor& mat, const Shape& out_shape) {
  check(mat.rank() == 2, "channel_major_to_batch expects a rank-2 matrix");
  check(out_shape.rank() >= 3, "channel_major_to_batch needs (N, C, ...) out");
  const std::int64_t n = out_shape.dim(0), c = out_shape.dim(1);
  std::int64_t inner = 1;
  for (int i = 2; i < out_shape.rank(); ++i) inner *= out_shape.dim(i);
  check(mat.dim(0) == c && mat.dim(1) == n * inner,
        "channel_major_to_batch shape mismatch");
  Tensor out(out_shape);
  channel_major_to_batch_into(mat.data(), n, c, inner, out.data());
  return out;
}

void add_channel_bias(Tensor& batch, const Tensor& bias) {
  check(batch.rank() >= 3, "add_channel_bias expects (N, C, ...) input");
  const std::int64_t n = batch.dim(0), c = batch.dim(1);
  check(bias.rank() == 1 && bias.dim(0) == c,
        "add_channel_bias bias shape mismatch");
  std::int64_t inner = 1;
  for (int i = 2; i < batch.rank(); ++i) inner *= batch.dim(i);
  float* po = batch.data();
  const float* pb = bias.data();
  parallel_for(n * c, [&](std::int64_t i) {
    const float b = pb[i % c];
    float* seg = po + i * inner;
    for (std::int64_t p = 0; p < inner; ++p) seg[p] += b;
  });
}

void accumulate_channel_sums(const Tensor& batch, Tensor& sums) {
  check(batch.rank() >= 3, "accumulate_channel_sums expects (N, C, ...)");
  const std::int64_t n = batch.dim(0), c = batch.dim(1);
  check(sums.rank() == 1 && sums.dim(0) == c,
        "accumulate_channel_sums sums shape mismatch");
  std::int64_t inner = 1;
  for (int i = 2; i < batch.rank(); ++i) inner *= batch.dim(i);
  const float* pi = batch.data();
  float* ps = sums.data();
  parallel_for(c, [&](std::int64_t ch) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* seg = pi + (i * c + ch) * inner;
      for (std::int64_t p = 0; p < inner; ++p) acc += seg[p];
    }
    ps[ch] += static_cast<float>(acc);
  });
}

Tensor pad2d(const Tensor& input, int pad_h, int pad_w) {
  check(pad_h >= 0 && pad_w >= 0, "pad2d requires non-negative padding");
  const Flat3 f = flatten_spatial(input.shape(), "pad2d");
  const std::int64_t orows = f.rows + 2 * pad_h;
  const std::int64_t ocols = f.cols + 2 * pad_w;
  Tensor out(with_spatial(input.shape(), orows, ocols));
  const float* pi = input.data();
  float* po = out.data();
  for (std::int64_t b = 0; b < f.batch; ++b) {
    for (std::int64_t r = 0; r < f.rows; ++r) {
      std::memcpy(po + (b * orows + r + pad_h) * ocols + pad_w,
                  pi + (b * f.rows + r) * f.cols,
                  static_cast<std::size_t>(f.cols) * sizeof(float));
    }
  }
  return out;
}

Tensor crop2d(const Tensor& input, std::int64_t r0, std::int64_t c0,
              std::int64_t rows, std::int64_t cols) {
  const Flat3 f = flatten_spatial(input.shape(), "crop2d");
  check(r0 >= 0 && c0 >= 0 && rows > 0 && cols > 0 && r0 + rows <= f.rows &&
            c0 + cols <= f.cols,
        "crop2d window out of range");
  Tensor out(with_spatial(input.shape(), rows, cols));
  const float* pi = input.data();
  float* po = out.data();
  for (std::int64_t b = 0; b < f.batch; ++b) {
    for (std::int64_t r = 0; r < rows; ++r) {
      std::memcpy(po + (b * rows + r) * cols,
                  pi + (b * f.rows + r0 + r) * f.cols + c0,
                  static_cast<std::size_t>(cols) * sizeof(float));
    }
  }
  return out;
}

Tensor avg_pool2d(const Tensor& input, int factor) {
  check(factor > 0, "avg_pool2d requires factor > 0");
  const Flat3 f = flatten_spatial(input.shape(), "avg_pool2d");
  check(f.rows % factor == 0 && f.cols % factor == 0,
        "avg_pool2d spatial dims must be divisible by factor");
  const std::int64_t orows = f.rows / factor;
  const std::int64_t ocols = f.cols / factor;
  Tensor out(with_spatial(input.shape(), orows, ocols));
  const float* pi = input.data();
  float* po = out.data();
  const float scale = 1.f / (static_cast<float>(factor) * factor);
  parallel_for(f.batch, [&](std::int64_t b) {
    for (std::int64_t r = 0; r < orows; ++r) {
      for (std::int64_t c = 0; c < ocols; ++c) {
        double acc = 0.0;
        for (int dr = 0; dr < factor; ++dr) {
          const float* irow =
              pi + (b * f.rows + r * factor + dr) * f.cols + c * factor;
          for (int dc = 0; dc < factor; ++dc) acc += irow[dc];
        }
        po[(b * orows + r) * ocols + c] = static_cast<float>(acc) * scale;
      }
    }
  });
  return out;
}

Tensor upsample_nearest2d(const Tensor& input, int factor) {
  check(factor > 0, "upsample_nearest2d requires factor > 0");
  const Flat3 f = flatten_spatial(input.shape(), "upsample_nearest2d");
  const std::int64_t orows = f.rows * factor;
  const std::int64_t ocols = f.cols * factor;
  Tensor out(with_spatial(input.shape(), orows, ocols));
  const float* pi = input.data();
  float* po = out.data();
  parallel_for(f.batch, [&](std::int64_t b) {
    for (std::int64_t r = 0; r < orows; ++r) {
      const float* irow = pi + (b * f.rows + r / factor) * f.cols;
      float* orow = po + (b * orows + r) * ocols;
      for (std::int64_t c = 0; c < ocols; ++c) {
        orow[c] = irow[c / factor];
      }
    }
  });
  return out;
}

Tensor concat0(const std::vector<Tensor>& parts) {
  check(!parts.empty(), "concat0 requires at least one tensor");
  std::int64_t total0 = 0;
  for (const Tensor& p : parts) {
    check(p.rank() == parts.front().rank(), "concat0 rank mismatch");
    for (int ax = 1; ax < p.rank(); ++ax) {
      check(p.dim(ax) == parts.front().dim(ax), "concat0 trailing dim mismatch");
    }
    total0 += p.dim(0);
  }
  std::vector<std::int64_t> dims = parts.front().shape().dims();
  dims[0] = total0;
  Tensor out{Shape(dims)};
  float* po = out.data();
  for (const Tensor& p : parts) {
    std::memcpy(po, p.data(), static_cast<std::size_t>(p.size()) * sizeof(float));
    po += p.size();
  }
  return out;
}

Tensor stack0(const std::vector<Tensor>& parts) {
  check(!parts.empty(), "stack0 requires at least one tensor");
  for (const Tensor& p : parts) {
    check(p.shape() == parts.front().shape(), "stack0 shape mismatch");
  }
  std::vector<std::int64_t> dims = parts.front().shape().dims();
  dims.insert(dims.begin(), static_cast<std::int64_t>(parts.size()));
  Tensor out{Shape(dims)};
  float* po = out.data();
  for (const Tensor& p : parts) {
    std::memcpy(po, p.data(), static_cast<std::size_t>(p.size()) * sizeof(float));
    po += p.size();
  }
  return out;
}

Tensor select0(const Tensor& input, std::int64_t index) {
  check(input.rank() >= 2, "select0 requires rank >= 2");
  check(index >= 0 && index < input.dim(0), "select0 index out of range");
  std::vector<std::int64_t> dims(input.shape().dims().begin() + 1,
                                 input.shape().dims().end());
  Shape out_shape(dims);
  const std::int64_t chunk = out_shape.volume();
  Tensor out(out_shape);
  std::memcpy(out.data(), input.data() + index * chunk,
              static_cast<std::size_t>(chunk) * sizeof(float));
  return out;
}

}  // namespace mtsr
