#include "src/tensor/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"

namespace mtsr::quant {
namespace {

// Round-half-up quantisation core. For v < -0.5 the truncation below is
// wrong by one, but every such value clamps to 0 anyway, so the result
// matches round-half-up for all representable outputs.
inline std::uint8_t quantize_core(float x, float inv_scale, float zp) {
  const float v = x * inv_scale + zp;
  const int q = static_cast<int>(v + 0.5f);
  return static_cast<std::uint8_t>(std::clamp(q, 0, 255));
}

}  // namespace

void RangeObserver::observe(const float* x, std::int64_t n) {
  if (n <= 0) return;
  float mn = seen ? lo : x[0];
  float mx = seen ? hi : x[0];
  double s = 0.0, sq = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    mn = std::min(mn, x[i]);
    mx = std::max(mx, x[i]);
    s += x[i];
    sq += static_cast<double>(x[i]) * x[i];
  }
  lo = mn;
  hi = mx;
  sum += s;
  sum_sq += sq;
  count += n;
  seen = true;
}

ActQuant choose_act_quant(float lo, float hi) {
  check(lo <= hi, "choose_act_quant: inverted range");
  check(std::isfinite(lo) && std::isfinite(hi),
        "choose_act_quant: non-finite range");
  // Widen to include zero so lowering padding quantises exactly.
  lo = std::min(lo, 0.f);
  hi = std::max(hi, 0.f);
  ActQuant aq;
  aq.scale = (hi - lo) / 255.f;
  if (aq.scale <= 0.f) aq.scale = 1.f;  // degenerate all-zero range
  aq.zero_point = std::clamp(
      static_cast<std::int32_t>(std::lrintf(-lo / aq.scale)), 0, 255);
  return aq;
}

ActQuant choose_act_quant(const RangeObserver& observer) {
  check(observer.seen, "choose_act_quant: observer saw no data");
  // Full observed min/max — no tail clipping. Traffic activations are
  // heavy-tailed BY DESIGN (hotspots are the signal the network must
  // reconstruct); clipping the calibrated range at mean ± k·sigma was
  // measured to triple the int8 error because it saturates exactly the
  // hotspot cells NRMSE weights most.
  return choose_act_quant(observer.lo, observer.hi);
}

std::uint8_t quantize_value(float x, const ActQuant& aq) {
  return quantize_core(x, 1.f / aq.scale,
                       static_cast<float>(aq.zero_point));
}

float dequantize_value(std::uint8_t q, const ActQuant& aq) {
  return aq.scale * static_cast<float>(static_cast<std::int32_t>(q) -
                                       aq.zero_point);
}

void quantize_u8(const float* x, std::int64_t n, const ActQuant& aq,
                 std::uint8_t* out) {
  const float inv = 1.f / aq.scale;
  const float zp = static_cast<float>(aq.zero_point);
  for (std::int64_t i = 0; i < n; ++i) out[i] = quantize_core(x[i], inv, zp);
}

void dequantize_u8(const std::uint8_t* q, std::int64_t n, const ActQuant& aq,
                   float* out) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = dequantize_value(q[i], aq);
}

void quantize_rows_u8(const float* x, std::int64_t rows, std::int64_t cols,
                      std::int64_t ldx, const ActQuant& aq, std::uint8_t* out,
                      std::int64_t ldo) {
  check(ldx >= cols && ldo >= cols, "quantize_rows_u8: stride below cols");
  if (ldx == cols && ldo == cols) {
    quantize_u8(x, rows * cols, aq, out);
    return;
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    quantize_u8(x + r * ldx, cols, aq, out + r * ldo);
    if (ldo > cols) {
      std::memset(out + r * ldo + cols, 0,
                  static_cast<std::size_t>(ldo - cols));
    }
  }
}

namespace {

// Quantisation MSE of one channel row at clip threshold `clip`.
double channel_quant_mse(const float* row, std::int64_t n, float clip,
                         int qmax) {
  const float scale = clip / static_cast<float>(qmax);
  const float inv = 1.f / scale;
  double mse = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const int q = std::clamp(static_cast<int>(std::lrintf(row[i] * inv)),
                             -qmax, qmax);
    const double err = static_cast<double>(row[i]) - scale * q;
    mse += err * err;
  }
  return mse;
}

}  // namespace

void quantize_weights_per_channel(const float* w, std::int64_t channels,
                                  std::int64_t per_channel, std::int8_t* wq,
                                  float* scales, bool mse_clip, int qmax) {
  check(channels > 0 && per_channel > 0,
        "quantize_weights_per_channel: empty weight");
  check(qmax > 0 && qmax <= kWeightQmaxFull,
        "quantize_weights_per_channel: qmax outside (0, 127]");
  parallel_for(channels, [&](std::int64_t o) {
    const float* row = w + o * per_channel;
    float amax = 0.f;
    for (std::int64_t i = 0; i < per_channel; ++i) {
      amax = std::max(amax, std::fabs(row[i]));
    }
    float clip = amax;
    if (mse_clip && amax > 0.f) {
      // Grid-search the clip threshold: a channel whose range is set by a
      // single outlier tap trades a bounded clip error on that tap for a
      // finer step on the bulk.
      double best = channel_quant_mse(row, per_channel, amax, qmax);
      for (int step = 1; step <= 10; ++step) {
        const float candidate =
            amax * (1.f - 0.05f * static_cast<float>(step));
        const double mse =
            channel_quant_mse(row, per_channel, candidate, qmax);
        if (mse < best) {
          best = mse;
          clip = candidate;
        }
      }
    }
    const float scale =
        clip > 0.f ? clip / static_cast<float>(qmax) : 1.f;
    scales[o] = scale;
    const float inv = 1.f / scale;
    std::int8_t* qrow = wq + o * per_channel;
    for (std::int64_t i = 0; i < per_channel; ++i) {
      const int q = static_cast<int>(std::lrintf(row[i] * inv));
      qrow[i] = static_cast<std::int8_t>(std::clamp(q, -qmax, qmax));
    }
  });
}

}  // namespace mtsr::quant
