// Tests for the int8 inference path: quantise/dequantise round-trip error
// bounds, the channels-last byte lowering, gemm_u8s8 bit-exactness against
// the scalar s32 reference across pool sizes, BatchNorm-fold parity of the
// channels-last layers against the unfused float stack,
// ZipNetInt8 conversion fidelity, int8 serving interchangeability with the
// float model (NRMSE), the zero-arena-growth steady-state contract for
// int8 sessions, and pinned output digests of the int8 and float models.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/workspace.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/zipnet_int8.hpp"
#include "src/data/milan.hpp"
#include "src/metrics/metrics.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/quantized.hpp"
#include "src/serving/engine.hpp"
#include "src/serving/model.hpp"
#include "src/tensor/quant.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr {
namespace {

struct PoolGuard {
  ~PoolGuard() { set_num_threads(0); }
};

// ---- quantise / dequantise -------------------------------------------------

TEST(Quant, ActivationRoundTripErrorBound) {
  Rng rng(11);
  Tensor x = Tensor::uniform(Shape{512}, rng, -3.f, 5.f);
  quant::RangeObserver obs;
  obs.observe(x);
  const quant::ActQuant aq = quant::choose_act_quant(obs.lo, obs.hi);
  ASSERT_GT(aq.scale, 0.f);
  std::vector<std::uint8_t> q(static_cast<std::size_t>(x.size()));
  std::vector<float> back(static_cast<std::size_t>(x.size()));
  quant::quantize_u8(x.data(), x.size(), aq, q.data());
  quant::dequantize_u8(q.data(), x.size(), aq, back.data());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(q[static_cast<std::size_t>(i)],
              quant::quantize_value(x.flat(i), aq));
    // In-range values round-trip within half a quantisation step.
    EXPECT_LE(std::fabs(back[static_cast<std::size_t>(i)] - x.flat(i)),
              aq.scale * 0.5f + 1e-6f)
        << "at " << i;
  }
  // Zero is exactly representable (the zero point).
  EXPECT_EQ(quant::dequantize_value(quant::quantize_value(0.f, aq), aq), 0.f);
  // Out-of-range values clamp to the calibrated bounds.
  const float below =
      quant::dequantize_value(quant::quantize_value(obs.lo - 100.f, aq), aq);
  const float above =
      quant::dequantize_value(quant::quantize_value(obs.hi + 100.f, aq), aq);
  EXPECT_LE(std::fabs(below - (-aq.scale * aq.zero_point)), 1e-6f);
  EXPECT_LE(std::fabs(above - aq.scale * (255 - aq.zero_point)), 1e-6f);
}

TEST(Quant, DegenerateRangesAreSafe) {
  const quant::ActQuant all_zero = quant::choose_act_quant(0.f, 0.f);
  EXPECT_GT(all_zero.scale, 0.f);
  EXPECT_EQ(quant::quantize_value(0.f, all_zero), all_zero.zero_point);
  // Purely positive and purely negative ranges still bracket zero.
  const quant::ActQuant pos = quant::choose_act_quant(2.f, 6.f);
  EXPECT_EQ(quant::dequantize_value(quant::quantize_value(0.f, pos), pos),
            0.f);
  const quant::ActQuant neg = quant::choose_act_quant(-6.f, -2.f);
  EXPECT_EQ(quant::dequantize_value(quant::quantize_value(0.f, neg), neg),
            0.f);
}

TEST(Quant, WeightRoundTripPerChannel) {
  Rng rng(12);
  const std::int64_t channels = 5, per = 37;
  Tensor w = Tensor::randn(Shape{channels, per}, rng, 0.3f);
  w.flat(0) = 2.5f;  // make channel 0's range distinct
  std::vector<std::int8_t> wq(static_cast<std::size_t>(channels * per));
  std::vector<float> scales(static_cast<std::size_t>(channels));
  quant::quantize_weights_per_channel(w.data(), channels, per, wq.data(),
                                      scales.data());
  for (std::int64_t o = 0; o < channels; ++o) {
    ASSERT_GT(scales[static_cast<std::size_t>(o)], 0.f);
    for (std::int64_t i = 0; i < per; ++i) {
      const std::int8_t q = wq[static_cast<std::size_t>(o * per + i)];
      EXPECT_LE(std::abs(static_cast<int>(q)), quant::kWeightQmax);
      const float back = scales[static_cast<std::size_t>(o)] * q;
      EXPECT_LE(std::fabs(back - w.flat(o * per + i)),
                scales[static_cast<std::size_t>(o)] * 0.5f + 1e-6f);
    }
  }
}

TEST(Quant, QuantizeRowsMatchesElementwise) {
  Rng rng(13);
  const std::int64_t rows = 23, cols = 5, ldx = 16;
  Tensor m = Tensor::uniform(Shape{rows, ldx}, rng, -2.f, 2.f);
  const quant::ActQuant aq = quant::choose_act_quant(-2.f, 2.f);
  // Strided source rows (ldx > cols) into both a packed (ldo = cols) and a
  // k-aligned (ldo = 8) destination.
  for (const std::int64_t ldo : {cols, std::int64_t{8}}) {
    std::vector<std::uint8_t> out(static_cast<std::size_t>(rows * ldo), 0xEE);
    quant::quantize_rows_u8(m.data(), rows, cols, ldx, aq, out.data(), ldo);
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        EXPECT_EQ(out[static_cast<std::size_t>(r * ldo + c)],
                  quant::quantize_value(m.flat(r * ldx + c), aq));
      }
      for (std::int64_t c = cols; c < ldo; ++c) {
        EXPECT_EQ(out[static_cast<std::size_t>(r * ldo + c)], 0);
      }
    }
  }
}

// Geometry of one channels-last lowering case.
struct RowCase {
  std::int64_t n, c, ld, d, h, w;
  int kd, kh, kw, sd, sh, sw, pd, ph, pw;
};

TEST(Quant, RowLoweringMatchesIndexFormula) {
  Rng rng(25);
  // Padding on every axis, stride 2, a strided (ld > C) input, a 2-D
  // (d = kd = 1) case and a depth-collapsing (kd = d, no depth padding)
  // case like ZipNet's entry conv.
  const RowCase cases[] = {{2, 3, 3, 3, 7, 9, 3, 3, 3, 1, 1, 1, 1, 1, 1},
                           {2, 3, 5, 3, 7, 9, 3, 3, 3, 1, 2, 2, 1, 1, 1},
                           {1, 4, 16, 1, 6, 5, 1, 3, 3, 1, 1, 1, 0, 1, 1},
                           {2, 4, 16, 3, 5, 5, 3, 3, 3, 1, 1, 1, 0, 1, 1},
                           {1, 1, 1, 1, 9, 8, 1, 5, 5, 1, 2, 1, 0, 2, 2}};
  const std::uint8_t pad = 77;
  for (const RowCase& g : cases) {
    std::vector<std::uint8_t> in(static_cast<std::size_t>(g.n * g.d * g.h *
                                                          g.w * g.ld));
    for (auto& v : in) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const std::int64_t od = (g.d + 2 * g.pd - g.kd) / g.sd + 1;
    const std::int64_t oh = (g.h + 2 * g.ph - g.kh) / g.sh + 1;
    const std::int64_t ow = (g.w + 2 * g.pw - g.kw) / g.sw + 1;
    const std::int64_t k = g.kd * g.kh * g.kw * g.c;
    const std::int64_t lda = (k + 3) / 4 * 4 + 4;
    const std::int64_t m = g.n * od * oh * ow;
    std::vector<std::uint8_t> out(static_cast<std::size_t>(m * lda), 0xAB);
    vol2row_u8_into(in.data(), g.ld, g.n, g.c, g.d, g.h, g.w, g.kd, g.kh,
                    g.kw, g.sd, g.sh, g.sw, g.pd, g.ph, g.pw, pad, out.data(),
                    lda);
    for (std::int64_t r = 0; r < m; ++r) {
      const std::int64_t ox = r % ow, oy = (r / ow) % oh,
                         oz = (r / (ow * oh)) % od, i = r / (ow * oh * od);
      for (std::int64_t kz = 0; kz < g.kd; ++kz) {
        for (std::int64_t ky = 0; ky < g.kh; ++ky) {
          for (std::int64_t kx = 0; kx < g.kw; ++kx) {
            const std::int64_t iz = oz * g.sd - g.pd + kz;
            const std::int64_t iy = oy * g.sh - g.ph + ky;
            const std::int64_t ix = ox * g.sw - g.pw + kx;
            const bool inside = iz >= 0 && iz < g.d && iy >= 0 &&
                                iy < g.h && ix >= 0 && ix < g.w;
            for (std::int64_t ch = 0; ch < g.c; ++ch) {
              const std::uint8_t want =
                  inside ? in[static_cast<std::size_t>(
                               (((i * g.d + iz) * g.h + iy) * g.w + ix) *
                                   g.ld +
                               ch)]
                         : pad;
              const std::int64_t col =
                  ((kz * g.kh + ky) * g.kw + kx) * g.c + ch;
              ASSERT_EQ(out[static_cast<std::size_t>(r * lda + col)], want)
                  << "row " << r << " col " << col;
            }
          }
        }
      }
      for (std::int64_t col = k; col < lda; ++col) {
        ASSERT_EQ(out[static_cast<std::size_t>(r * lda + col)], 0);
      }
    }
  }
}

TEST(Quant, RowLoweringMatchesQuantisedFloatLowering) {
  Rng rng(24);
  const std::int64_t n = 2, c = 3, d = 3, h = 7, w = 9;
  const quant::ActQuant aq = quant::choose_act_quant(-1.f, 3.f);
  // Quantise-then-lower must equal lower-then-quantise against the NCHW
  // float lowering: padding taps are 0.0 there and the zero point here,
  // and column (c, t) of the float layout is byte t·C + c of a row.
  Tensor vol = Tensor::uniform(Shape{n, c, d, h, w}, rng, -1.f, 3.f);
  const Tensor fcols = vol2col_batched(vol, 3, 3, 3, 1, 2, 2, 1, 1, 1);
  // The channels-last copy of the input, quantised.
  const std::int64_t inner = d * h * w;
  std::vector<std::uint8_t> qin(static_cast<std::size_t>(vol.size()));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t p = 0; p < inner; ++p) {
        qin[static_cast<std::size_t>((i * inner + p) * c + ch)] =
            quant::quantize_value(vol.flat((i * c + ch) * inner + p), aq);
      }
    }
  }
  const std::int64_t taps = 27, m = fcols.dim(1), lda = (c * taps + 3) / 4 * 4;
  std::vector<std::uint8_t> rows(static_cast<std::size_t>(m * lda));
  vol2row_u8_into(qin.data(), c, n, c, d, h, w, 3, 3, 3, 1, 2, 2, 1, 1, 1,
                  static_cast<std::uint8_t>(aq.zero_point), rows.data(), lda);
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t t = 0; t < taps; ++t) {
        ASSERT_EQ(rows[static_cast<std::size_t>(r * lda + t * c + ch)],
                  quant::quantize_value(fcols.flat((ch * taps + t) * m + r),
                                        aq))
            << "row " << r << " channel " << ch << " tap " << t;
      }
    }
  }
}

// ---- gemm_u8s8 -------------------------------------------------------------

struct GemmCase {
  std::int64_t m, k, n;
};

TEST(GemmU8S8, BitExactVsScalarReferenceAcrossPoolSizes) {
  PoolGuard guard;
  Rng rng(14);
  const GemmCase cases[] = {{1, 1, 1},    {4, 4, 16},   {37, 23, 17},
                            {129, 144, 32}, {8, 7, 100}, {3, 288, 96},
                            {65, 13, 1}};
  const int hw = num_threads();
  for (const auto& [m, k, n] : cases) {
    const std::int64_t kpad = (k + 3) / 4 * 4;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * kpad));
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    for (auto& v : b) {
      v = static_cast<std::int8_t>(
          rng.uniform_int(-quant::kWeightQmax, quant::kWeightQmax));
    }
    const PackedInt8B packed = pack_b_s8(b.data(), k, n);
    EXPECT_EQ(packed.kpad(), kpad);
    std::vector<float> col_scale(static_cast<std::size_t>(n));
    std::vector<float> bias(static_cast<std::size_t>(n));
    for (auto& v : col_scale) v = 0.001f + 0.01f * rng.uniform();
    for (auto& v : bias) v = rng.uniform() - 0.5f;
    for (const bool with_bias : {true, false}) {
      for (const float alpha : {1.f, 0.1f}) {
        const QuantEpilogue ep{col_scale.data(), 37,
                               with_bias ? bias.data() : nullptr, alpha};
        std::vector<float> ref(static_cast<std::size_t>(m * n));
        gemm_u8s8_ref(a.data(), kpad, packed, m, ep, ref.data());
        for (const int pool : {1, 2, hw}) {
          set_num_threads(pool);
          std::vector<float> got(static_cast<std::size_t>(m * n), -1e30f);
          gemm_u8s8(a.data(), kpad, packed, m, ep, got.data());
          ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                ref.size() * sizeof(float)),
                    0)
              << "kernel " << gemm_u8s8_kernel_name() << " m=" << m
              << " k=" << k << " n=" << n << " pool=" << pool
              << " bias=" << with_bias << " alpha=" << alpha;
        }
        set_num_threads(0);
      }
    }
  }
}

TEST(GemmU8S8, DequantisedProductTracksFloatGemm) {
  Rng rng(15);
  const std::int64_t m = 50, k = 72, n = 24;
  Tensor af = Tensor::uniform(Shape{m, k}, rng, -1.f, 3.f);
  Tensor bf = Tensor::randn(Shape{k, n}, rng, 0.5f);

  // Quantise A per tensor (rows widened to the k-alignment, as the
  // layers do) and B per column.
  const quant::ActQuant aq = quant::choose_act_quant(-1.f, 3.f);
  const std::int64_t kpad = (k + 3) / 4 * 4;
  std::vector<std::uint8_t> a8(static_cast<std::size_t>(m * kpad));
  quant::quantize_rows_u8(af.data(), m, k, k, aq, a8.data(), kpad);

  Tensor bt = transpose(bf);  // (n, k): per-"channel" rows
  std::vector<std::int8_t> wq(static_cast<std::size_t>(n * k));
  std::vector<float> scales(static_cast<std::size_t>(n));
  quant::quantize_weights_per_channel(bt.data(), n, k, wq.data(),
                                      scales.data());
  std::vector<std::int8_t> b8(static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      b8[static_cast<std::size_t>(kk * n + j)] =
          wq[static_cast<std::size_t>(j * k + kk)];
    }
  }
  const PackedInt8B packed = pack_b_s8(b8.data(), k, n);
  std::vector<float> col_scale(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    col_scale[static_cast<std::size_t>(j)] =
        aq.scale * scales[static_cast<std::size_t>(j)];
  }
  const QuantEpilogue ep{col_scale.data(), aq.zero_point, nullptr, 1.f};
  std::vector<float> got(static_cast<std::size_t>(m * n));
  gemm_u8s8(a8.data(), kpad, packed, m, ep, got.data());

  const Tensor want = matmul(af, bf);
  // The zero-point compensation and per-column scales must reconstruct the
  // float product up to quantisation noise: a few percent in relative L2
  // for 8-bit operands at k = 72.
  double num = 0.0, den = 0.0, worst = 0.0;
  for (std::int64_t i = 0; i < want.size(); ++i) {
    const double err = want.flat(i) - got[i];
    num += err * err;
    den += static_cast<double>(want.flat(i)) * want.flat(i);
    worst = std::max(worst, std::fabs(err));
  }
  EXPECT_LE(std::sqrt(num / den), 0.03)
      << "quantisation error beyond the noise budget";
  EXPECT_GT(worst, 0.0);  // it IS quantised
}

TEST(GemmU8S8, PackRejectsSaturationUnsafeWeights) {
  std::vector<std::int8_t> b(16, 0);
  b[3] = 127;  // outside ±kWeightQmax
  EXPECT_THROW((void)pack_b_s8(b.data(), 4, 4), ContractViolation);
}

TEST(GemmU8S8, FullRangePackAdmitsWiderWeights) {
  std::vector<std::int8_t> b(16, 0);
  b[3] = 127;
  b[7] = -127;
  const PackedInt8B packed = pack_b_s8(b.data(), 4, 4, /*full_range=*/true);
  EXPECT_TRUE(packed.full_range);
  EXPECT_EQ(packed.colsum[3], 127 - 127);
}

TEST(GemmU8S8, KernelNameIsKnown) {
  const std::string name = gemm_u8s8_kernel_name();
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "avx512" ||
              name == "vnni")
      << name;
  const char* forced = std::getenv("MTSR_SIMD");
  if (forced != nullptr && std::string(forced) == "scalar") {
    EXPECT_EQ(name, "scalar");
  }
}

// Every SIMD level this host can run must reproduce the scalar s32
// reference bit-for-bit in the default ±63 mode; the levels that accept
// full-range (±127) packs — scalar and VNNI — must agree bit-for-bit there
// too, and a full-range pack pushed through a maddubs level must demote to
// the scalar kernel (same bits) rather than saturate.
TEST(GemmU8S8, ForcedKernelSweepBitExactInBothRanges) {
  Rng rng(41);
  const GemmCase cases[] = {{5, 288, 96}, {64, 48, 16}, {7, 40, 33}};
  const char* levels[] = {"scalar", "sse2", "avx2", "avx512", "vnni"};
  for (const auto& [m, k, n] : cases) {
    const std::int64_t kpad = (k + 3) / 4 * 4;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * kpad));
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    for (const bool full_range : {false, true}) {
      const int qmax =
          full_range ? quant::kWeightQmaxFull : quant::kWeightQmax;
      std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
      for (auto& v : b) {
        v = static_cast<std::int8_t>(rng.uniform_int(-qmax, qmax));
      }
      const PackedInt8B packed = pack_b_s8(b.data(), k, n, full_range);
      std::vector<float> col_scale(static_cast<std::size_t>(n));
      std::vector<float> bias(static_cast<std::size_t>(n));
      for (auto& v : col_scale) v = 0.001f + 0.01f * rng.uniform();
      for (auto& v : bias) v = rng.uniform() - 0.5f;
      const QuantEpilogue ep{col_scale.data(), 19, bias.data(), 0.1f};
      std::vector<float> ref(static_cast<std::size_t>(m * n));
      gemm_u8s8_ref(a.data(), kpad, packed, m, ep, ref.data());
      int levels_run = 0;
      for (const char* level : levels) {
        std::vector<float> got(static_cast<std::size_t>(m * n), -1e30f);
        if (!gemm_u8s8_forced_kernel(level, a.data(), kpad, packed, m, ep,
                                     got.data())) {
          continue;  // host cannot execute this level
        }
        ++levels_run;
        ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                              ref.size() * sizeof(float)),
                  0)
            << "level " << level << " full_range=" << full_range << " m="
            << m << " k=" << k << " n=" << n;
      }
      EXPECT_GE(levels_run, 2);  // scalar + sse2 run everywhere
    }
  }
  EXPECT_FALSE(gemm_u8s8_forced_kernel("no-such-level", nullptr, 4,
                                       PackedInt8B{}, 1, QuantEpilogue{},
                                       nullptr));
}

// ---- quantised layers: BatchNorm-fold parity -------------------------------

// Exact per-sample relayout from the float layers' NCHW / NCDHW to the
// quantised layers' channels-last (N, [D,] H, W, C).
Tensor to_channels_last(const Tensor& x) {
  const std::int64_t n = x.dim(0), c = x.dim(1), inner = x.size() / (n * c);
  std::vector<std::int64_t> dims{n};
  for (int i = 2; i < x.rank(); ++i) dims.push_back(x.dim(i));
  dims.push_back(c);
  Tensor out{Shape(dims)};
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      for (std::int64_t p = 0; p < inner; ++p) {
        out.flat((i * inner + p) * c + ch) = x.flat((i * c + ch) * inner + p);
      }
    }
  }
  return out;
}

// Runs a few training steps so BatchNorm's running statistics diverge from
// their initial values, then compares the folded calibration path — fed
// the channels-last copy of the input — against the unfused float
// [conv → BN → LeakyReLU] stack in inference mode. `to_quant_layout` maps
// the float layer's input onto the quantised layer's and
// `to_quant_output` its output onto the quantised layer's, shape included.
template <typename Conv, typename MakeInput>
void expect_fold_parity(Conv& conv, nn::BatchNorm& bn, float alpha,
                        MakeInput&& make_input, auto&& build_quant,
                        auto&& to_quant_layout, auto&& to_quant_output) {
  Rng rng(16);
  nn::LeakyReLU lrelu(alpha);
  for (int step = 0; step < 3; ++step) {
    Workspace::Scope scope(Workspace::tls());
    Tensor x = make_input(rng);
    (void)bn.forward(conv.forward(x, true), true);  // update running stats
  }
  auto quantised = build_quant(conv, bn, alpha);

  Tensor x = make_input(rng);
  const Tensor xq = to_quant_layout(x);
  Tensor want;
  {
    Workspace::Scope scope(Workspace::tls());
    want = to_quant_output(
        lrelu.forward(bn.forward(conv.forward(x, false), false), false));
  }
  Tensor got;
  {
    Workspace::Scope scope(Workspace::tls());
    got = quantised->forward_calibrate(xq);
  }
  ASSERT_EQ(want.shape(), got.shape());
  for (std::int64_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(want.flat(i), got.flat(i), 1e-4)
        << "BN-fold parity failed at " << i;
  }

  // After freeze, the quantised forward tracks the float output within the
  // quantisation noise of the observed ranges.
  quantised->freeze();
  Tensor q8;
  {
    Workspace::Scope scope(Workspace::tls());
    q8 = quantised->forward(xq);
  }
  ASSERT_EQ(got.shape(), q8.shape());
  double num = 0.0, den = 0.0;
  for (std::int64_t i = 0; i < want.size(); ++i) {
    num += (want.flat(i) - q8.flat(i)) * (want.flat(i) - q8.flat(i));
    den += want.flat(i) * want.flat(i);
  }
  EXPECT_LE(std::sqrt(num / want.size()),
            0.05 * std::sqrt(den / want.size()) + 1e-3)
      << "int8 forward strayed beyond quantisation noise";
}

TEST(QuantLayers, Conv2dFoldParityAndInt8Accuracy) {
  Rng rng(17);
  nn::Conv2d conv(5, 7, 3, 1, 1, rng);
  nn::BatchNorm bn(7);
  expect_fold_parity(
      conv, bn, 0.1f,
      [](Rng& r) { return Tensor::randn(Shape{2, 5, 9, 9}, r); },
      [](const nn::Conv2d& c, const nn::BatchNorm& b, float a) {
        return std::make_unique<nn::QuantConv3d>(c, &b, a);
      },
      to_channels_last, to_channels_last);
}

TEST(QuantLayers, Conv3dFoldParityAndInt8Accuracy) {
  Rng rng(18);
  nn::Conv3d conv(3, 4, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}, rng);
  nn::BatchNorm bn(4);
  expect_fold_parity(
      conv, bn, 0.1f,
      [](Rng& r) { return Tensor::randn(Shape{2, 3, 3, 7, 7}, r); },
      [](const nn::Conv3d& c, const nn::BatchNorm& b, float a) {
        return std::make_unique<nn::QuantConv3d>(c, &b, a);
      },
      to_channels_last, to_channels_last);
}

TEST(QuantLayers, CollapseConvMatchesConv2dOverStackedChannels) {
  // ZipNet's entry conv: a Conv2d over C·S stacked maps (channel c·S + s)
  // run as a depth-S 3-D conv over the (N, S, H, W, C) stage output.
  Rng rng(21);
  const std::int64_t c = 4, s = 3;
  nn::Conv2d conv(c * s, 6, 3, 1, 1, rng);
  nn::BatchNorm bn(6);
  expect_fold_parity(
      conv, bn, 0.1f,
      [](Rng& r) { return Tensor::randn(Shape{2, c * s, 6, 5}, r); },
      [](const nn::Conv2d& cv, const nn::BatchNorm& b, float a) {
        return std::make_unique<nn::QuantConv3d>(cv, &b, a,
                                                 static_cast<int>(s));
      },
      [](const Tensor& x) {
        // (N, C·S, H, W) is (N, C, S, H, W) in memory.
        return to_channels_last(
            x.reshape(Shape{x.dim(0), c, s, x.dim(2), x.dim(3)}));
      },
      [](const Tensor& y) {
        // The collapse leaves depth 1: (N, O, H, W) → (N, 1, H, W, O).
        const Tensor t = to_channels_last(y);
        return t.reshape(Shape{t.dim(0), 1, t.dim(1), t.dim(2), t.dim(3)});
      });
}

TEST(QuantLayers, ConvTranspose3dFoldParityAndInt8Accuracy) {
  Rng rng(20);
  nn::ConvTranspose3d deconv(3, 4, {3, 4, 4}, {1, 2, 2}, {1, 1, 1}, rng);
  nn::BatchNorm bn(4);
  expect_fold_parity(
      deconv, bn, 0.1f,
      [](Rng& r) { return Tensor::randn(Shape{2, 3, 3, 5, 5}, r); },
      [](const nn::ConvTranspose3d& c, const nn::BatchNorm& b, float a) {
        return std::make_unique<nn::QuantConvTranspose3d>(c, &b, a);
      },
      to_channels_last, to_channels_last);
}

TEST(QuantLayers, FreezeRequiresCalibration) {
  Rng rng(22);
  nn::Conv2d conv(2, 2, 3, 1, 1, rng);
  nn::QuantConv3d quantised(conv, nullptr);
  EXPECT_THROW(quantised.freeze(), ContractViolation);
  Tensor x = Tensor::randn(Shape{1, 5, 5, 2}, rng);
  EXPECT_THROW((void)quantised.forward(x), ContractViolation);
  {
    Workspace::Scope scope(Workspace::tls());
    (void)quantised.forward_calibrate(x);
  }
  quantised.freeze();
  EXPECT_THROW(quantised.freeze(), ContractViolation);
  EXPECT_THROW((void)quantised.forward_calibrate(x), ContractViolation);
}

// ---- ZipNetInt8 + serving --------------------------------------------------

data::TrafficDataset quant_dataset(std::uint64_t seed = 430,
                                   std::int64_t side = 16) {
  data::MilanConfig config;
  config.rows = side;
  config.cols = side;
  config.num_hotspots = 10;
  config.seed = seed;
  return data::TrafficDataset(
      data::MilanTrafficGenerator(config).generate(0, 40), 10);
}

core::PipelineConfig quant_pipeline_config() {
  core::PipelineConfig config;
  config.instance = data::MtsrInstance::kUp4;
  config.window = 8;
  config.temporal_length = 3;
  config.zipnet.base_channels = 3;
  config.zipnet.zipper_modules = 3;
  config.zipnet.zipper_channels = 6;
  config.zipnet.final_channels = 8;
  config.discriminator.base_channels = 2;
  config.pretrain_steps = 60;
  config.gan_rounds = 0;
  return config;
}

TEST(ZipNetInt8, ConvertRequiresCalibrationBatches) {
  data::TrafficDataset dataset = quant_dataset();
  core::MtsrPipeline pipeline(quant_pipeline_config(), dataset);
  EXPECT_THROW(
      (void)core::ZipNetInt8::convert(pipeline.generator(), {}),
      ContractViolation);
  core::ZipNetInt8 net(pipeline.generator());
  Rng rng(23);
  Tensor batch = Tensor::randn(Shape{2, 3, 2, 2}, rng);
  EXPECT_THROW((void)net.forward(batch), ContractViolation);  // not frozen
}

TEST(ZipNetInt8, MirrorsFloatGeneratorWithinQuantisationNoise) {
  data::TrafficDataset dataset = quant_dataset(431);
  core::MtsrPipeline pipeline(quant_pipeline_config(), dataset);
  const std::vector<Tensor> calibration = serving::calibration_batches(
      dataset, pipeline.window_layout(), 3, 8, 4);
  ASSERT_FALSE(calibration.empty());

  core::ZipNetInt8 net(pipeline.generator());
  // Calibration forward equals the float generator's inference forward to
  // fold-associativity error.
  {
    Workspace::Scope scope(Workspace::tls());
    Tensor want = pipeline.generator().forward(calibration[0], false);
    Tensor got = net.forward_calibrate(calibration[0]);
    ASSERT_EQ(want.shape(), got.shape());
    for (std::int64_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(want.flat(i), got.flat(i), 1e-4);
    }
  }
  for (std::size_t i = 1; i < calibration.size(); ++i) {
    Workspace::Scope scope(Workspace::tls());
    (void)net.forward_calibrate(calibration[i]);
  }
  net.freeze();
  EXPECT_TRUE(net.frozen());

  Workspace::Scope scope(Workspace::tls());
  Tensor want = pipeline.generator().forward(calibration[0], false);
  Tensor got = net.forward(calibration[0]);
  ASSERT_EQ(want.shape(), got.shape());
  double num = 0.0, den = 0.0;
  for (std::int64_t i = 0; i < want.size(); ++i) {
    num += (want.flat(i) - got.flat(i)) * (want.flat(i) - got.flat(i));
    den += want.flat(i) * want.flat(i);
  }
  EXPECT_LE(std::sqrt(num), 0.05 * std::sqrt(den) + 1e-3)
      << "int8 generator strayed beyond quantisation noise";
}

TEST(ServingInt8, InterchangeableWithFloatAndNrmseWithinTwoPercent) {
  data::TrafficDataset dataset = quant_dataset(432);
  core::PipelineConfig config = quant_pipeline_config();
  // The 2%-relative criterion presumes a usefully trained generator: with
  // random weights the prediction error is as large as the signal and any
  // quantisation noise lands on top of it coherently.
  config.pretrain_steps = 700;
  core::MtsrPipeline pipeline(config, dataset);
  pipeline.train();  // pretrain only (gan_rounds = 0)

  serving::Engine engine;
  engine.register_model("zipnet", std::make_shared<serving::ZipNetModel>(
                                      pipeline.generator()));
  engine.register_model(
      "zipnet-int8",
      serving::quantize_generator(
          pipeline.generator(),
          serving::calibration_batches(dataset, pipeline.window_layout(), 3,
                                       8, 6)));

  serving::SessionConfig stream = serving::SessionConfig::from_dataset(
      "zipnet", data::MtsrInstance::kUp4, dataset, 8, 4);
  const auto float_id = engine.open_session(stream);
  stream.model = "zipnet-int8";
  const auto int8_id = engine.open_session(stream);

  const data::SplitRange test = dataset.test_range();
  double nrmse_float = 0.0, nrmse_int8 = 0.0;
  int frames = 0;
  for (std::int64_t t = test.begin; t < std::min(test.begin + 5, test.end);
       ++t) {
    auto f = engine.push(float_id, dataset.frame(t));
    auto q = engine.push(int8_id, dataset.frame(t));
    ASSERT_EQ(f.has_value(), q.has_value());
    if (!f) continue;
    ASSERT_EQ(f->shape(), q->shape());
    nrmse_float += metrics::nrmse(*f, dataset.frame(t));
    nrmse_int8 += metrics::nrmse(*q, dataset.frame(t));
    ++frames;
  }
  ASSERT_GT(frames, 0);
  nrmse_float /= frames;
  nrmse_int8 /= frames;
  // Acceptance criterion: stitched-frame NRMSE within 2% relative of the
  // float path on the test split.
  EXPECT_LE(std::fabs(nrmse_int8 - nrmse_float), 0.02 * nrmse_float)
      << "float NRMSE " << nrmse_float << " vs int8 " << nrmse_int8;
}

TEST(ServingInt8, SteadyStateZeroArenaGrowth) {
  data::TrafficDataset dataset = quant_dataset(433);
  core::MtsrPipeline pipeline(quant_pipeline_config(), dataset);
  serving::Engine engine;
  engine.register_model(
      "zipnet-int8",
      serving::quantize_generator(
          pipeline.generator(),
          serving::calibration_batches(dataset, pipeline.window_layout(), 3,
                                       8, 3)));
  serving::SessionConfig config = serving::SessionConfig::from_dataset(
      "zipnet-int8", data::MtsrInstance::kUp4, dataset, 8, 4);
  // 9 windows in blocks of Scheduler::kFixedBlock (2) -> 5 blocks: both
  // arena slots in play.
  const auto id = engine.open_session(config);

  for (std::int64_t t = 0; t < 3; ++t) {
    (void)engine.push(id, dataset.frame(t));
  }
  const Workspace::Stats warm = engine.session(id).arena_stats();
  EXPECT_GT(warm.capacity_bytes, 0);

  for (std::int64_t t = 3; t < 8; ++t) {
    ASSERT_TRUE(engine.push(id, dataset.frame(t)).has_value());
  }
  const Workspace::Stats after = engine.session(id).arena_stats();
  EXPECT_EQ(after.capacity_bytes, warm.capacity_bytes);
  EXPECT_EQ(after.growth_events, warm.growth_events);
  EXPECT_EQ(after.live_bytes, 0);
  EXPECT_GT(after.alloc_count, warm.alloc_count);

  const serving::Engine::Stats stats = engine.stats();
  ASSERT_EQ(stats.sessions.size(), 1u);
  EXPECT_EQ(stats.sessions[0].model, "zipnet-int8");
}

// ---- pinned output digests -------------------------------------------------
//
// The int8 generator and the float generator must stay
// bitwise stable across refactors of the lowering, layout and epilogue
// code (s32 accumulation is exact, so any such refactor can keep every
// bit). The digests below were recorded from the NCHW implementation;
// they must hold for every pool size and every SIMD level.

// FNV-1a over the raw float bytes: any changed output bit moves it.
std::uint64_t fnv1a64(const Tensor& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  const auto bytes = static_cast<std::size_t>(t.size()) * sizeof(float);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// splitmix64 → 24-bit uniform floats: no <random> distribution and no
// libm call, so the seeded values are identical on every host.
struct PortableRng {
  std::uint64_t state;
  float next(float lo, float hi) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return lo + (hi - lo) * (static_cast<float>(z >> 40) * 0x1p-24f);
  }
  void fill(Tensor& t, float lo, float hi) {
    for (std::int64_t i = 0; i < t.size(); ++i) t.flat(i) = next(lo, hi);
  }
  Tensor tensor(Shape shape, float lo, float hi) {
    Tensor t(std::move(shape));
    fill(t, lo, hi);
    return t;
  }
};

// Overwrites every parameter (and BatchNorm statistic) with portable
// seeded values: weights at ±1/√fan_in, biases small, BN gains near 1.
void fill_portable(const std::vector<nn::Parameter*>& params,
                   const std::vector<std::pair<std::string, Tensor*>>& buffers,
                   PortableRng& rng) {
  for (nn::Parameter* p : params) {
    Tensor& v = p->value;
    if (p->name.find("gamma") != std::string::npos) {
      rng.fill(v, 0.5f, 1.5f);
    } else if (v.rank() >= 2) {
      const float a =
          1.f / std::sqrt(static_cast<float>(v.size() / v.dim(0)));
      rng.fill(v, -a, a);
    } else {
      rng.fill(v, -0.1f, 0.1f);
    }
  }
  for (const auto& [name, t] : buffers) {
    if (name.find("var") != std::string::npos) {
      rng.fill(*t, 0.5f, 2.f);
    } else {
      rng.fill(*t, -0.1f, 0.1f);
    }
  }
}

TEST(OutputDigest, ZipNetFloatAndInt8ArePinned) {
  // The serving geometry of the benchmark: window 20 at up-4, S = 3. The
  // bare network (no residual base) pins the layer stack at full
  // sensitivity; the bicubic base pins the serving configuration.
  std::uint64_t int8_digest = 0, float_digest = 0, calibrate_digest = 0;
  PortableRng rng{1307};
  for (const auto base : {core::ZipNetConfig::ResidualBase::kNone,
                          core::ZipNetConfig::ResidualBase::kBicubic}) {
    core::ZipNetConfig config;
    config.temporal_length = 3;
    config.upscale_factors = {2, 2};
    config.base_channels = 4;
    config.zipper_modules = 4;
    config.zipper_channels = 16;
    config.final_channels = 12;
    config.residual_base = base;
    Rng init(5);
    core::ZipNet generator(config, init);
    fill_portable(generator.parameters(), generator.buffers(), rng);

    // ZipNetInt8::convert, spelled out so the calibration outputs (the
    // float path behind the layers' interface) are pinned too.
    auto net = std::make_unique<core::ZipNetInt8>(generator);
    for (int i = 0; i < 3; ++i) {
      const Tensor batch = rng.tensor(Shape{2, 3, 5, 5}, -1.f, 3.f);
      Workspace::Scope scope(Workspace::tls());
      calibrate_digest =
          calibrate_digest * 31 + fnv1a64(net->forward_calibrate(batch));
    }
    net->freeze();
    for (const std::int64_t batch : {1, 2, 4}) {
      const Tensor x = rng.tensor(Shape{batch, 3, 5, 5}, -1.f, 3.f);
      Workspace::Scope scope(Workspace::tls());
      const Tensor q = net->forward(x);
      const Tensor f = generator.forward(x, false);
      ASSERT_EQ(q.shape(), Shape({batch, 20, 20}));
      ASSERT_EQ(f.shape(), q.shape());
      int8_digest = int8_digest * 31 + fnv1a64(q);
      float_digest = float_digest * 31 + fnv1a64(f);
    }
  }
  // The float path rounds two ways per kernel: the panel kernel is the
  // portable mul + add one or an FMA one, and the small-k / NT block
  // kernels fuse a·b + c or not as their resolved build was compiled. The
  // int8 digest inherits the difference through the calibrated ranges, so
  // each of the four combinations has its own recorded digests. They were
  // recorded from the earlier NCHW implementation of the int8 pass, built
  // with GCC 12.2 (x86-64, Release) on an AVX-512 host, each at the
  // default dispatch (FMA panel) and at MTSR_SIMD=scalar (generic panel):
  // fused blocks from the normal build, unfused ones from an ASan build
  // (blocks built once for the baseline ISA) and from a build whose blocks
  // were cloned for AVX2 and the baseline only, as on an AVX2-only host.
  // A -ffp-contract=off build reports unfused blocks and matches too.
  const bool generic = std::string(matmul_kernel_name()) == "generic";
  const bool fma_blocks = matmul_block_kernels_fuse_mul_add();
  const std::uint64_t want[2][2][3] = {
      // {int8, float, calibrate}: [fma_blocks][generic]
      {{0x2ff29b39c47bb71eull, 0x27fb42fd598c8fe0ull, 0xb1fc75c6bad3cd99ull},
       {0x784b1cf0b870793full, 0x33020fb76a5d0ee5ull, 0x16111a9737bc17c4ull}},
      {{0xb0b9e815171f70faull, 0xb6a0b18c3ea0e900ull, 0x62f0af2a6b4a078aull},
       {0x784b1cf0b870793full, 0x000c4591029a8400ull, 0xfd65c15a9cbc95f5ull}}};
  const std::uint64_t* expect = want[fma_blocks][generic];
  EXPECT_EQ(int8_digest, expect[0]) << std::hex << int8_digest;
  EXPECT_EQ(float_digest, expect[1]) << std::hex << float_digest;
  EXPECT_EQ(calibrate_digest, expect[2]) << std::hex << calibrate_digest;
}

}  // namespace
}  // namespace mtsr
