// Tests for the shared parallel execution engine and the kernels riding on
// it: thread-pool scheduling semantics, blocked-GEMM / batched-lowering
// parity against naive serial references, and bit-identical gradients
// across pool sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/conv3d.hpp"
#include "src/nn/conv_transpose3d.hpp"
#include "src/nn/dense.hpp"
#include "src/nn/sequential.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr {
namespace {

// Restores the default pool size when a test that resizes the pool exits.
class PoolGuard {
 public:
  PoolGuard() = default;
  ~PoolGuard() { set_num_threads(0); }
};

// ---- Naive serial references (the seed implementations) --------------------

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c(Shape{m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aik = a.data()[i * k + kk];
      for (std::int64_t j = 0; j < n; ++j) {
        c.data()[i * n + j] += aik * b.data()[kk * n + j];
      }
    }
  }
  return c;
}

Tensor naive_transpose(const Tensor& a) {
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out(Shape{n, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      out.data()[j * m + i] = a.data()[i * n + j];
    }
  }
  return out;
}

void expect_close(const Tensor& got, const Tensor& want, float tol = 1e-5f) {
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got.flat(i), want.flat(i), tol) << "at flat index " << i;
  }
}

// ---- Engine scheduling semantics -------------------------------------------

TEST(ParallelEngine, CoversEveryIndexExactlyOnce) {
  const std::int64_t n = 1013;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_for(n, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
  }
}

TEST(ParallelEngine, ChunkGeometryIndependentOfPoolSize) {
  PoolGuard guard;
  const std::int64_t n = 97;
  auto collect = [&] {
    std::vector<std::int64_t> bounds;
    std::mutex mu;
    parallel_for_chunks(n, [&](std::int64_t b, std::int64_t e, int slot) {
      std::lock_guard<std::mutex> lock(mu);
      bounds.push_back(b);
      bounds.push_back(e);
      bounds.push_back(slot);
    });
    std::sort(bounds.begin(), bounds.end());
    return bounds;
  };
  set_num_threads(1);
  const auto serial = collect();
  set_num_threads(2);
  const auto two = collect();
  set_num_threads(0);
  const auto hw = collect();
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, hw);
  EXPECT_EQ(static_cast<int>(serial.size()) / 3, parallel_chunk_count(n));
}

TEST(ParallelEngine, SlotsAreBoundedAndDense) {
  EXPECT_EQ(parallel_chunk_count(0), 0);
  EXPECT_EQ(parallel_chunk_count(1), 1);
  EXPECT_EQ(parallel_chunk_count(7), 7);
  EXPECT_EQ(parallel_chunk_count(1 << 20), parallel_chunk_count(1 << 21));
}

TEST(ParallelEngine, NestedCallsRunSerially) {
  std::atomic<int> total{0};
  parallel_for(8, [&](std::int64_t) {
    parallel_for(8, [&](std::int64_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelEngine, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(64,
                   [&](std::int64_t i) {
                     if (i == 13) throw ContractViolation("boom");
                   }),
      ContractViolation);
  // The pool must stay usable after an exception.
  std::atomic<int> total{0};
  parallel_for(16, [&](std::int64_t) { total++; });
  EXPECT_EQ(total.load(), 16);
}

TEST(ParallelEngine, SetNumThreadsFromInsideParallelRegionThrows) {
  // Resizing the pool while a parallel region is executing would join the
  // very thread running the body; the engine must refuse.
  std::atomic<int> threw{0};
  parallel_for(8, [&](std::int64_t i) {
    if (i != 0) return;
    try {
      set_num_threads(2);
    } catch (const ContractViolation&) {
      threw.fetch_add(1);
    }
  });
  EXPECT_EQ(threw.load(), 1);
  // The pool must stay usable afterwards.
  std::atomic<int> total{0};
  parallel_for(16, [&](std::int64_t) { total++; });
  EXPECT_EQ(total.load(), 16);
}

TEST(ParallelEngine, SetNumThreadsRoundTrips) {
  PoolGuard guard;
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(0);
  EXPECT_GE(num_threads(), 1);
}

// ---- Blocked kernel parity -------------------------------------------------

TEST(BlockedGemm, MatmulMatchesNaiveReference) {
  Rng rng(41);
  // Odd sizes exercise the remainder rows and tail columns of the
  // microkernel; the wide case exercises the column-split dispatch.
  for (auto [m, k, n] : {std::array<std::int64_t, 3>{37, 53, 41},
                         std::array<std::int64_t, 3>{3, 17, 301},
                         std::array<std::int64_t, 3>{129, 300, 2},
                         std::array<std::int64_t, 3>{1, 1, 1}}) {
    Tensor a = Tensor::randn(Shape{m, k}, rng);
    Tensor b = Tensor::randn(Shape{k, n}, rng);
    expect_close(matmul(a, b), naive_matmul(a, b));
  }
}

TEST(BlockedGemm, MatmulTnMatchesNaiveReference) {
  Rng rng(42);
  Tensor a = Tensor::randn(Shape{53, 37}, rng);  // (k, m)
  Tensor b = Tensor::randn(Shape{53, 41}, rng);  // (k, n)
  expect_close(matmul_tn(a, b), naive_matmul(naive_transpose(a), b));
}

// The register-tiled NT kernel against the naive product, including every
// edge of its 2×4 tile (m, n = 1..9 and 37) and of its eight-lane k loop
// (k below, at and above multiples of 8), overwriting and accumulating.
TEST(BlockedGemm, MatmulNtMatchesNaiveReference) {
  Rng rng(43);
  Tensor a = Tensor::randn(Shape{37, 53}, rng);  // (m, k)
  Tensor b = Tensor::randn(Shape{41, 53}, rng);  // (n, k)
  expect_close(matmul_nt(a, b), naive_matmul(a, naive_transpose(b)));
  // Wide case dispatches over columns.
  Tensor c = Tensor::randn(Shape{2, 19}, rng);
  Tensor d = Tensor::randn(Shape{203, 19}, rng);
  expect_close(matmul_nt(c, d), naive_matmul(c, naive_transpose(d)));

  const std::vector<std::int64_t> dims = {1, 2, 3, 4, 5, 6, 7, 8, 9, 37};
  for (const std::int64_t k : {1, 7, 8, 9, 17, 515}) {
    for (const std::int64_t m : dims) {
      for (const std::int64_t n : dims) {
        Tensor x = Tensor::randn(Shape{m, k}, rng);
        Tensor y = Tensor::randn(Shape{n, k}, rng);
        Tensor c0 = Tensor::randn(Shape{m, n}, rng);
        const Tensor want = naive_matmul(x, naive_transpose(y));
        for (const bool accumulate : {false, true}) {
          Tensor got = c0.clone();
          matmul_nt_into(x.data(), y.data(), got.data(), m, k, n, accumulate);
          // Sums of k unit-variance products: scale the bound with k.
          const float tol = 1e-5f * static_cast<float>(k);
          for (std::int64_t i = 0; i < m * n; ++i) {
            const float expect =
                want.flat(i) + (accumulate ? c0.flat(i) : 0.f);
            ASSERT_NEAR(got.flat(i), expect, tol)
                << "m=" << m << " k=" << k << " n=" << n
                << " accumulate=" << accumulate << " at " << i;
          }
        }
      }
    }
  }
}

// Every element of a product computed over a sub-block of A's rows and B's
// rows is bitwise the same element of the full product: the sub-block
// shifts every element to another tile position (edge tiles included) and
// another chunk, which must not change its arithmetic.
TEST(BlockedGemm, MatmulNtSubBlocksAreBitwiseFullProduct) {
  Rng rng(49);
  const std::int64_t m = 37, n = 41;
  for (const std::int64_t k : {9, 515}) {
    Tensor a = Tensor::randn(Shape{m, k}, rng);
    Tensor b = Tensor::randn(Shape{n, k}, rng);
    Tensor full(Shape{m, n});
    matmul_nt_into(a.data(), b.data(), full.data(), m, k, n);
    for (const auto [i0, i1, j0, j1] :
         {std::array<std::int64_t, 4>{1, 36, 3, 40},
          std::array<std::int64_t, 4>{5, 6, 0, 41},
          std::array<std::int64_t, 4>{0, 37, 7, 10},
          std::array<std::int64_t, 4>{2, 19, 1, 2},
          std::array<std::int64_t, 4>{11, 14, 13, 38}}) {
      const std::int64_t sm = i1 - i0, sn = j1 - j0;
      Tensor sub(Shape{sm, sn});
      matmul_nt_into(a.data() + i0 * k, b.data() + j0 * k, sub.data(), sm, k,
                     sn);
      for (std::int64_t i = 0; i < sm; ++i) {
        for (std::int64_t j = 0; j < sn; ++j) {
          const float want = full.at(i0 + i, j0 + j);
          const float got = sub.at(i, j);
          ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
              << "k=" << k << " block [" << i0 << "," << i1 << ")x[" << j0
              << "," << j1 << ") at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(BlockedGemm, TransposeMatchesNaiveReference) {
  Rng rng(44);
  Tensor a = Tensor::randn(Shape{67, 45}, rng);
  expect_close(transpose(a), naive_transpose(a), 0.f);
}

// ---- Batched lowering parity -----------------------------------------------

TEST(BatchedLowering, Im2colBatchedMatchesPerSample) {
  Rng rng(45);
  const std::int64_t n = 3, c = 2, h = 7, w = 6;
  const int kh = 3, kw = 2, sh = 2, sw = 1, ph = 1, pw = 0;
  Tensor input = Tensor::randn(Shape{n, c, h, w}, rng);
  Tensor batched = im2col_batched(input, kh, kw, sh, sw, ph, pw);
  const std::int64_t oh = (h + 2 * ph - kh) / sh + 1;
  const std::int64_t ow = (w + 2 * pw - kw) / sw + 1;
  ASSERT_EQ(batched.shape(), Shape({c * kh * kw, n * oh * ow}));
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor per = im2col(select0(input, i), kh, kw, sh, sw, ph, pw);
    for (std::int64_t r = 0; r < per.dim(0); ++r) {
      for (std::int64_t p = 0; p < per.dim(1); ++p) {
        EXPECT_EQ(batched.at(r, i * oh * ow + p), per.at(r, p));
      }
    }
  }
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.size()) * sizeof(float)),
            0);
}

// The batched scatter against the single-image col2im() (a bounds test per
// element) run on each sample's slice of the columns: bit for bit, over
// strides {1, 2}, pads {0, 1, 2} and kernels {3, 4} (the k=4, s=2, p=1
// upscaling geometry among them) plus one asymmetric geometry.
TEST(BatchedLowering, Col2imBatchedMatchesPerSample) {
  Rng rng(46);
  const std::int64_t n = 2, c = 2, h = 7, w = 6;
  std::vector<std::array<int, 6>> geometries;  // {kh, kw, sh, sw, ph, pw}
  for (const int k : {3, 4}) {
    for (const int s : {1, 2}) {
      for (const int p : {0, 1, 2}) geometries.push_back({k, k, s, s, p, p});
    }
  }
  geometries.push_back({3, 3, 1, 2, 1, 1});
  for (const auto& [kh, kw, sh, sw, ph, pw] : geometries) {
    SCOPED_TRACE("k=" + std::to_string(kh) + "x" + std::to_string(kw) +
                 " s=" + std::to_string(sh) + "," + std::to_string(sw) +
                 " p=" + std::to_string(ph) + "," + std::to_string(pw));
    const std::int64_t oh = (h + 2 * ph - kh) / sh + 1;
    const std::int64_t ow = (w + 2 * pw - kw) / sw + 1;
    Tensor cols = Tensor::randn(Shape{c * kh * kw, n * oh * ow}, rng);
    Tensor batched = col2im_batched(cols, n, c, h, w, kh, kw, sh, sw, ph, pw);
    for (std::int64_t i = 0; i < n; ++i) {
      // Slice sample i's columns back out and run the per-sample adjoint.
      Tensor per_cols(Shape{c * kh * kw, oh * ow});
      for (std::int64_t r = 0; r < per_cols.dim(0); ++r) {
        for (std::int64_t p = 0; p < oh * ow; ++p) {
          per_cols.at(r, p) = cols.at(r, i * oh * ow + p);
        }
      }
      expect_bitwise(select0(batched, i),
                     col2im(per_cols, c, h, w, kh, kw, sh, sw, ph, pw));
    }
  }
}

// The 3-D scatter loop as it was written before the in-bounds tap ranges
// were hoisted: a bounds test per element. col2vol_batched must reproduce
// it bit for bit (same elements, same add order).
Tensor branchy_col2vol_batched(const Tensor& columns, std::int64_t n,
                               std::int64_t channels, std::int64_t depth,
                               std::int64_t height, std::int64_t width,
                               std::array<int, 3> k, std::array<int, 3> s,
                               std::array<int, 3> p) {
  const std::int64_t od = (depth + 2 * p[0] - k[0]) / s[0] + 1;
  const std::int64_t oh = (height + 2 * p[1] - k[1]) / s[1] + 1;
  const std::int64_t ow = (width + 2 * p[2] - k[2]) / s[2] + 1;
  Tensor out(Shape{n, channels, depth, height, width});
  const float* pc = columns.data();
  for (std::int64_t i = 0; i < n; ++i) {
    float* vol_base = out.data() + i * channels * depth * height * width;
    for (std::int64_t ch = 0; ch < channels; ++ch) {
      for (int kz = 0; kz < k[0]; ++kz) {
        for (int ky = 0; ky < k[1]; ++ky) {
          for (int kx = 0; kx < k[2]; ++kx) {
            const std::int64_t row = ((ch * k[0] + kz) * k[1] + ky) * k[2] + kx;
            const float* crow = pc + row * n * od * oh * ow + i * od * oh * ow;
            for (std::int64_t oz = 0; oz < od; ++oz) {
              const std::int64_t iz = oz * s[0] - p[0] + kz;
              if (iz < 0 || iz >= depth) continue;
              for (std::int64_t oy = 0; oy < oh; ++oy) {
                const std::int64_t iy = oy * s[1] - p[1] + ky;
                if (iy < 0 || iy >= height) continue;
                float* orow =
                    vol_base + ((ch * depth + iz) * height + iy) * width;
                const float* cline = crow + (oz * oh + oy) * ow;
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                  const std::int64_t ix = ox * s[2] - p[2] + kx;
                  if (ix >= 0 && ix < width) orow[ix] += cline[ox];
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

TEST(BatchedLowering, Col2volBatchedIsBitwiseBranchyScatter) {
  Rng rng(51);
  const std::int64_t n = 2, c = 2, d = 4, h = 6, w = 5;
  std::vector<std::array<std::array<int, 3>, 3>> geometries;  // {k, s, p}
  for (const int k : {3, 4}) {
    for (const int s : {1, 2}) {
      for (const int p : {0, 1, 2}) geometries.push_back({{{k, k, k}, {s, s, s}, {p, p, p}}});
    }
  }
  // ZipNet's 3-D upscale deconvolution: (3, 4, 4) taps, stride (1, 2, 2),
  // padding 1 — the layer whose float forward is this scatter.
  geometries.push_back({{{3, 4, 4}, {1, 2, 2}, {1, 1, 1}}});
  for (const auto& [k, s, p] : geometries) {
    SCOPED_TRACE("k=" + std::to_string(k[0]) + "," + std::to_string(k[1]) +
                 " s=" + std::to_string(s[0]) + "," + std::to_string(s[1]) +
                 " p=" + std::to_string(p[0]));
    const std::int64_t od = (d + 2 * p[0] - k[0]) / s[0] + 1;
    const std::int64_t oh = (h + 2 * p[1] - k[1]) / s[1] + 1;
    const std::int64_t ow = (w + 2 * p[2] - k[2]) / s[2] + 1;
    Tensor cols =
        Tensor::randn(Shape{c * k[0] * k[1] * k[2], n * od * oh * ow}, rng);
    expect_bitwise(col2vol_batched(cols, n, c, d, h, w, k[0], k[1], k[2], s[0],
                                   s[1], s[2], p[0], p[1], p[2]),
                   branchy_col2vol_batched(cols, n, c, d, h, w, k, s, p));
  }
}

TEST(BatchedLowering, Vol2colGemmMatchesDirectConv3d) {
  // Lowered 3-D convolution (vol2col + GEMM) against a direct nested-loop
  // convolution written out here.
  Rng rng(47);
  const std::int64_t n = 2, c = 2, d = 3, h = 5, w = 4, o = 3;
  const int kd = 3, kh = 3, kw = 3, sd = 1, sh = 1, sw = 1, pd = 1, ph = 1,
            pw = 1;
  Tensor input = Tensor::randn(Shape{n, c, d, h, w}, rng);
  Tensor weight = Tensor::randn(Shape{o, c, kd, kh, kw}, rng);

  Tensor cols = vol2col_batched(input, kd, kh, kw, sd, sh, sw, pd, ph, pw);
  Tensor y = matmul(weight.reshape(Shape{o, c * kd * kh * kw}), cols);
  Tensor lowered = channel_major_to_batch(y, Shape{n, o, d, h, w});

  Tensor direct(Shape{n, o, d, h, w});
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t oc = 0; oc < o; ++oc) {
      for (std::int64_t zd = 0; zd < d; ++zd) {
        for (std::int64_t zh = 0; zh < h; ++zh) {
          for (std::int64_t zw = 0; zw < w; ++zw) {
            double acc = 0.0;
            for (std::int64_t ic = 0; ic < c; ++ic) {
              for (int fd = 0; fd < kd; ++fd) {
                const std::int64_t id = zd * sd - pd + fd;
                if (id < 0 || id >= d) continue;
                for (int fh = 0; fh < kh; ++fh) {
                  const std::int64_t ih = zh * sh - ph + fh;
                  if (ih < 0 || ih >= h) continue;
                  for (int fw = 0; fw < kw; ++fw) {
                    const std::int64_t iw = zw * sw - pw + fw;
                    if (iw < 0 || iw >= w) continue;
                    acc += input.at(in, ic, id, ih, iw) *
                           weight.at(oc, ic, fd, fh, fw);
                  }
                }
              }
            }
            direct.at(in, oc, zd, zh, zw) = static_cast<float>(acc);
          }
        }
      }
    }
  }
  expect_close(lowered, direct);
}

TEST(BatchedLowering, ChannelMajorRoundTrip) {
  Rng rng(48);
  Tensor x = Tensor::randn(Shape{3, 4, 5, 2}, rng);
  Tensor cm = batch_to_channel_major(x);
  ASSERT_EQ(cm.shape(), Shape({4, 3 * 10}));
  Tensor back = channel_major_to_batch(cm, x.shape());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(back.flat(i), x.flat(i));
  }
}

// ---- Bit-identical gradients across pool sizes -----------------------------

// Builds the layer stack fresh (identical seed), runs forward + backward,
// and returns every parameter gradient flattened into one buffer.
std::vector<float> run_gradients() {
  Rng rng(123);
  nn::Sequential net;
  net.emplace<nn::Conv2d>(2, 4, 3, 1, 1, rng);
  net.emplace<nn::BatchNorm>(4);
  net.emplace<nn::Conv2d>(4, 2, 3, 2, 1, rng);
  Tensor x = Tensor::randn(Shape{5, 2, 8, 8}, rng);
  Tensor y = net.forward(x, /*training=*/true);
  Tensor g = Tensor::randn(y.shape(), rng);
  net.backward(g);
  std::vector<float> grads;
  for (nn::Parameter* p : net.parameters()) {
    const float* pg = p->grad.data();
    grads.insert(grads.end(), pg, pg + p->grad.size());
  }
  return grads;
}

std::vector<float> run_gradients_3d() {
  Rng rng(321);
  nn::Sequential net;
  net.emplace<nn::ConvTranspose3d>(1, 2, std::array<int, 3>{3, 4, 4},
                                   std::array<int, 3>{1, 2, 2},
                                   std::array<int, 3>{1, 1, 1}, rng);
  net.emplace<nn::Conv3d>(2, 1, std::array<int, 3>{3, 3, 3},
                          std::array<int, 3>{1, 1, 1},
                          std::array<int, 3>{1, 1, 1}, rng);
  Tensor x = Tensor::randn(Shape{3, 1, 3, 4, 4}, rng);
  Tensor y = net.forward(x, /*training=*/true);
  Tensor g = Tensor::randn(y.shape(), rng);
  net.backward(g);
  std::vector<float> grads;
  for (nn::Parameter* p : net.parameters()) {
    const float* pg = p->grad.data();
    grads.insert(grads.end(), pg, pg + p->grad.size());
  }
  return grads;
}

void expect_bit_identical(const std::vector<float>& a,
                          const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(PoolDeterminism, GradientsBitIdenticalAcrossPoolSizes) {
  PoolGuard guard;
  set_num_threads(1);
  const auto serial = run_gradients();
  set_num_threads(2);
  const auto two = run_gradients();
  set_num_threads(0);  // hardware default
  const auto hw = run_gradients();
  expect_bit_identical(serial, two);
  expect_bit_identical(serial, hw);
}

TEST(PoolDeterminism, Gradients3dBitIdenticalAcrossPoolSizes) {
  PoolGuard guard;
  set_num_threads(1);
  const auto serial = run_gradients_3d();
  set_num_threads(2);
  const auto two = run_gradients_3d();
  set_num_threads(0);
  const auto hw = run_gradients_3d();
  expect_bit_identical(serial, two);
  expect_bit_identical(serial, hw);
}

TEST(PoolDeterminism, DenseAndTransposeGradientsAcrossPoolSizes) {
  PoolGuard guard;
  auto run = [] {
    Rng rng(99);
    nn::Sequential net;
    net.emplace<nn::Dense>(48, 20, rng);
    Tensor x = Tensor::randn(Shape{8, 48}, rng);
    Tensor y = net.forward(x, /*training=*/true);
    net.backward(Tensor::ones(y.shape()));
    std::vector<float> grads;
    for (nn::Parameter* p : net.parameters()) {
      const float* pg = p->grad.data();
      grads.insert(grads.end(), pg, pg + p->grad.size());
    }
    return grads;
  };
  set_num_threads(1);
  const auto serial = run();
  set_num_threads(2);
  const auto two = run();
  set_num_threads(0);
  const auto hw = run();
  expect_bit_identical(serial, two);
  expect_bit_identical(serial, hw);
}

}  // namespace
}  // namespace mtsr
