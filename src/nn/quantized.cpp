#include "src/nn/quantized.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"

namespace mtsr::nn {
namespace {

// Byte-typed carve from the float arena (the u8 A operand of gemm_u8s8).
std::uint8_t* ws_bytes(Workspace& ws, std::int64_t bytes) {
  return reinterpret_cast<std::uint8_t*>(ws.alloc((bytes + 3) / 4));
}

// Per-channel BN fold factors: g = γ/√(σ²+ε), shift = β − g·μ, so
// BN(y) = g·y + shift and the conv absorbs g into its weights and
// g·b + shift into its bias.
struct BnFold {
  std::vector<float> gain;   ///< per-channel weight multiplier
  std::vector<float> shift;  ///< per-channel bias offset (after gain)
};

BnFold bn_fold(const BatchNorm* bn, std::int64_t channels) {
  BnFold fold;
  fold.gain.assign(static_cast<std::size_t>(channels), 1.f);
  fold.shift.assign(static_cast<std::size_t>(channels), 0.f);
  if (bn == nullptr) return fold;
  check(bn->channels() == channels,
        "quantized: BatchNorm channel count does not match the conv");
  for (std::int64_t c = 0; c < channels; ++c) {
    const float g = bn->gamma().flat(c) /
                    std::sqrt(bn->running_var().flat(c) + bn->epsilon());
    fold.gain[static_cast<std::size_t>(c)] = g;
    fold.shift[static_cast<std::size_t>(c)] =
        bn->beta().flat(c) - g * bn->running_mean().flat(c);
  }
  return fold;
}

// Folded (W', b') for a CONV layout weight (O, per) — output channel rows.
void fold_conv(const Tensor& w, const Tensor& b, std::int64_t out_channels,
               std::int64_t per_channel, const BatchNorm* bn, Tensor& wf,
               Tensor& bf) {
  const BnFold fold = bn_fold(bn, out_channels);
  wf = Tensor(Shape{out_channels, per_channel});
  bf = Tensor(Shape{out_channels});
  for (std::int64_t o = 0; o < out_channels; ++o) {
    const float g = fold.gain[static_cast<std::size_t>(o)];
    const float* src = w.data() + o * per_channel;
    float* dst = wf.data() + o * per_channel;
    for (std::int64_t i = 0; i < per_channel; ++i) dst[i] = src[i] * g;
    bf.flat(o) = b.flat(o) * g + fold.shift[static_cast<std::size_t>(o)];
  }
}

// Folded (W', b') for a DECONV layout weight (C, O·kvol) — output channel o
// occupies the strided slices [:, o·kvol .. (o+1)·kvol).
void fold_deconv(const Tensor& w, const Tensor& b, std::int64_t in_channels,
                 std::int64_t out_channels, std::int64_t kvol,
                 const BatchNorm* bn, Tensor& wf, Tensor& bf) {
  const BnFold fold = bn_fold(bn, out_channels);
  const std::int64_t taps = out_channels * kvol;
  wf = Tensor(Shape{in_channels, taps});
  bf = Tensor(Shape{out_channels});
  for (std::int64_t ci = 0; ci < in_channels; ++ci) {
    const float* src = w.data() + ci * taps;
    float* dst = wf.data() + ci * taps;
    for (std::int64_t o = 0; o < out_channels; ++o) {
      const float g = fold.gain[static_cast<std::size_t>(o)];
      for (std::int64_t t = 0; t < kvol; ++t) {
        dst[o * kvol + t] = src[o * kvol + t] * g;
      }
    }
  }
  for (std::int64_t o = 0; o < out_channels; ++o) {
    bf.flat(o) = b.flat(o) * fold.gain[static_cast<std::size_t>(o)] +
                 fold.shift[static_cast<std::size_t>(o)];
  }
}

// LeakyReLU as max(y, α·y) — the exact elementwise form of the fused GEMM
// epilogue, so float and int8 paths agree on the activation.
inline float lrelu(float y, float alpha) {
  return alpha == 1.f ? y : std::max(y, y * alpha);
}

// Calibration relayouts between channels-last rows and the float layers'
// planar layouts. Both are exact copies, so the NCHW float arithmetic —
// and the ranges it records — is unchanged by the channels-last interface.
//
// planes[(b·c + ch)·p + q] = rows[(b·p + q)·ld + ch] for `batches` blocks of
// p positions: NCHW with batches = n, channel-major (C, N·P) with
// batches = 1.
void rows_to_planes(const ChannelsLast& x, std::int64_t batches,
                    float* planes) {
  const std::int64_t p = x.positions() / batches, c = x.channels;
  for (std::int64_t b = 0; b < batches; ++b) {
    for (std::int64_t q = 0; q < p; ++q) {
      const float* row = x.data + (b * p + q) * x.ld;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        planes[(b * c + ch) * p + q] = row[ch];
      }
    }
  }
}

// rows[(b·p + q)·c + ch] = lrelu(planes[(b·c + ch)·p + q] + bias[ch]): the
// inverse relayout with the float layers' bias add and activation applied
// per element in their order.
void planes_to_rows(const float* planes, std::int64_t batches, std::int64_t p,
                    std::int64_t c, const float* bias, float alpha,
                    float* rows) {
  for (std::int64_t b = 0; b < batches; ++b) {
    for (std::int64_t q = 0; q < p; ++q) {
      float* row = rows + (b * p + q) * c;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        row[ch] = lrelu(planes[(b * c + ch) * p + q] + bias[ch], alpha);
      }
    }
  }
}

// Read-only channels-last view of a packed (N, H, W, C) or (N, D, H, W, C)
// Tensor; layers never write their input.
ChannelsLast view_of(const Tensor& t) {
  ChannelsLast v;
  v.data = const_cast<float*>(t.data());
  v.n = t.dim(0);
  if (t.rank() == 5) v.d = t.dim(1);
  v.h = t.dim(t.rank() - 3);
  v.w = t.dim(t.rank() - 2);
  v.channels = v.ld = t.dim(t.rank() - 1);
  return v;
}

// Packed Tensor copy of a view: (N, H, W, C) for rank 4 (d must be 1),
// (N, D, H, W, C) for rank 5.
Tensor to_tensor(const ChannelsLast& v, int rank) {
  check(rank == 5 || v.d == 1, "quantised layer: output depth is not 1");
  Tensor out(rank == 5 ? Shape{v.n, v.d, v.h, v.w, v.channels}
                       : Shape{v.n, v.h, v.w, v.channels});
  const auto row_bytes = static_cast<std::size_t>(v.channels) * sizeof(float);
  if (v.ld == v.channels) {
    std::memcpy(out.data(), v.data, row_bytes * v.positions());
  } else {
    for (std::int64_t p = 0; p < v.positions(); ++p) {
      std::memcpy(out.data() + p * v.channels, v.data + p * v.ld, row_bytes);
    }
  }
  return out;
}

// Quantises + packs CONV-layout folded weights (O rows of C·taps, K order
// (c, t)). Quantisation runs in that float order; the s8 values then
// permute into the channels-last B row order (t, c), transposed to
// (K × O). Per-column scales are the per-output-channel scales combined
// with the activation scale. Epilogue arrays are padded to npad so
// forward can run the GEMM over the padded destination.
void freeze_conv_core(const Tensor& wf, const Tensor& bf,
                      std::int64_t out_channels, std::int64_t in_channels,
                      std::int64_t taps, detail::QuantCore& core) {
  const std::int64_t k = in_channels * taps;
  std::vector<std::int8_t> wq(
      static_cast<std::size_t>(out_channels * k));
  std::vector<float> scales(static_cast<std::size_t>(out_channels));
  quant::quantize_weights_per_channel(wf.data(), out_channels, k, wq.data(),
                                      scales.data(), /*mse_clip=*/true);
  std::vector<std::int8_t> bt(static_cast<std::size_t>(k * out_channels));
  for (std::int64_t o = 0; o < out_channels; ++o) {
    for (std::int64_t c = 0; c < in_channels; ++c) {
      for (std::int64_t t = 0; t < taps; ++t) {
        bt[static_cast<std::size_t>((t * in_channels + c) * out_channels +
                                    o)] =
            wq[static_cast<std::size_t>(o * k + c * taps + t)];
      }
    }
  }
  core.packed = pack_b_s8(bt.data(), k, out_channels);
  core.col_scale.assign(static_cast<std::size_t>(core.packed.npad), 0.f);
  core.bias_pad.assign(static_cast<std::size_t>(core.packed.npad), 0.f);
  for (std::int64_t o = 0; o < out_channels; ++o) {
    core.col_scale[static_cast<std::size_t>(o)] =
        core.act.scale * scales[static_cast<std::size_t>(o)];
    core.bias_pad[static_cast<std::size_t>(o)] = bf.flat(o);
  }
  core.frozen = true;
}

// Quantises + packs DECONV-layout folded weights (C rows of O·kvol taps):
// B is (C × kvol·O) with columns in channels-last (t, o) order, so a GEMM
// row holds each kernel tap's O output channels contiguously. Per-column
// scales expand each output channel's scale across its kvol tap columns.
void freeze_deconv_core(const Tensor& wf, std::int64_t in_channels,
                        std::int64_t out_channels, std::int64_t kvol,
                        detail::QuantCore& core) {
  const std::int64_t taps = out_channels * kvol;
  // Rearrange to (O, C·kvol) rows so the per-channel quantiser sees each
  // output channel contiguously.
  std::vector<float> wr(static_cast<std::size_t>(out_channels * in_channels *
                                                 kvol));
  for (std::int64_t ci = 0; ci < in_channels; ++ci) {
    for (std::int64_t o = 0; o < out_channels; ++o) {
      std::memcpy(
          wr.data() + (o * in_channels + ci) * kvol,
          wf.data() + ci * taps + o * kvol,
          static_cast<std::size_t>(kvol) * sizeof(float));
    }
  }
  std::vector<std::int8_t> wq(wr.size());
  std::vector<float> scales(static_cast<std::size_t>(out_channels));
  quant::quantize_weights_per_channel(wr.data(), out_channels,
                                      in_channels * kvol, wq.data(),
                                      scales.data(), /*mse_clip=*/true);
  std::vector<std::int8_t> bt(
      static_cast<std::size_t>(in_channels * taps));
  for (std::int64_t ci = 0; ci < in_channels; ++ci) {
    for (std::int64_t o = 0; o < out_channels; ++o) {
      for (std::int64_t t = 0; t < kvol; ++t) {
        bt[static_cast<std::size_t>(ci * taps + t * out_channels + o)] =
            wq[static_cast<std::size_t>((o * in_channels + ci) * kvol + t)];
      }
    }
  }
  core.packed = pack_b_s8(bt.data(), in_channels, taps);
  core.col_scale.assign(static_cast<std::size_t>(core.packed.npad), 0.f);
  for (std::int64_t t = 0; t < kvol; ++t) {
    for (std::int64_t o = 0; o < out_channels; ++o) {
      core.col_scale[static_cast<std::size_t>(t * out_channels + o)] =
          core.act.scale * scales[static_cast<std::size_t>(o)];
    }
  }
  core.frozen = true;
}

void begin_freeze(detail::QuantCore& core, const char* who) {
  check(!core.frozen, std::string(who) + ": already frozen");
  check(core.in_range.seen,
        std::string(who) +
            ": freeze() before any forward_calibrate() pass — run at least "
            "one warm-up batch");
  core.act = quant::choose_act_quant(core.in_range);
}

// Scatters deconv GEMM output rows — one row of kd·kh·kw·O dequantised
// taps per INPUT position, in (kz, ky, kx, o) order, row stride ld —
// straight into the channels-last (N, od, oh, ow, O) output, then adds the
// bias and applies the LeakyReLU. Every output element accumulates its
// taps in ascending input-position order, exactly as the NCHW col2vol
// scatter does, so the sums are bit-identical to it. Tasks are (sample,
// output depth) planes with disjoint outputs, so results are pool-size
// independent.
void scatter_rows_to_volume(const float* rows, std::int64_t ld,
                            const ChannelsLast& in, std::int64_t out_channels,
                            const std::array<std::int64_t, 3>& out_extent,
                            const std::array<int, 3>& kernel,
                            const std::array<int, 3>& stride,
                            const std::array<int, 3>& padding,
                            const float* bias, float alpha, float* out) {
  const auto [od, oh, ow] = out_extent;
  const std::int64_t oc = out_channels;
  const std::int64_t plane = oh * ow * oc;
  parallel_for(in.n * od, [&](std::int64_t task) {
    const std::int64_t i = task / od;
    const std::int64_t oz = task % od;
    float* dst = out + task * plane;
    std::memset(dst, 0, static_cast<std::size_t>(plane) * sizeof(float));
    for (std::int64_t z = 0; z < in.d; ++z) {
      const std::int64_t kz = oz - (z * stride[0] - padding[0]);
      if (kz < 0 || kz >= kernel[0]) continue;
      for (std::int64_t y = 0; y < in.h; ++y) {
        const std::int64_t y0 = y * stride[1] - padding[1];
        const int ky_lo = static_cast<int>(std::max<std::int64_t>(0, -y0));
        const int ky_hi =
            static_cast<int>(std::min<std::int64_t>(kernel[1], oh - y0));
        for (std::int64_t x = 0; x < in.w; ++x) {
          const std::int64_t x0 = x * stride[2] - padding[2];
          const std::int64_t kx_lo = std::max<std::int64_t>(0, -x0);
          const std::int64_t kx_hi =
              std::min<std::int64_t>(kernel[2], ow - x0);
          const float* taps =
              rows + ((i * in.d + z) * in.h * in.w + y * in.w + x) * ld +
              kz * kernel[1] * kernel[2] * oc;
          for (int ky = ky_lo; ky < ky_hi; ++ky) {
            // The taps kx_lo..kx_hi of one kernel row land on adjacent
            // output positions: one contiguous run of channels.
            float* orow = dst + ((y0 + ky) * ow + x0) * oc;
            const float* trow = taps + ky * kernel[2] * oc;
            for (std::int64_t j = kx_lo * oc; j < kx_hi * oc; ++j) {
              orow[j] += trow[j];
            }
          }
        }
      }
    }
    for (std::int64_t p = 0; p < oh * ow; ++p) {
      float* px = dst + p * oc;
      for (std::int64_t o = 0; o < oc; ++o) {
        px[o] = lrelu(px[o] + bias[o], alpha);
      }
    }
  });
}

}  // namespace

// ---- QuantConv3d -----------------------------------------------------------

QuantConv3d::QuantConv3d(const Conv3d& conv, const BatchNorm* bn,
                         float lrelu_alpha)
    : in_channels_(conv.in_channels()),
      out_channels_(conv.out_channels()),
      kernel_(conv.kernel()),
      stride_(conv.stride()),
      padding_(conv.padding()),
      alpha_(lrelu_alpha) {
  const std::int64_t k =
      in_channels_ * kernel_[0] * kernel_[1] * kernel_[2];
  fold_conv(conv.weight(), conv.bias(), out_channels_, k, bn, wf_, bf_);
}

// A Conv2d weight (O, C·depth, k, k) flattens exactly like the Conv3d
// weight (O, C, depth, k, k): both index c·depth·k² + s·k² + ky·k + kx.
QuantConv3d::QuantConv3d(const Conv2d& conv, const BatchNorm* bn,
                         float lrelu_alpha, int depth)
    : in_channels_(conv.in_channels() / std::max(depth, 1)),
      out_channels_(conv.out_channels()),
      kernel_{depth, conv.kernel(), conv.kernel()},
      stride_{1, conv.stride(), conv.stride()},
      padding_{0, conv.padding(), conv.padding()},
      alpha_(lrelu_alpha) {
  check(depth >= 1 && conv.in_channels() % depth == 0,
        "QuantConv3d: Conv2d channels do not split into the collapse depth");
  fold_conv(conv.weight(), conv.bias(), out_channels_,
            conv.in_channels() * conv.kernel() * conv.kernel(), bn, wf_,
            bf_);
}

std::array<std::int64_t, 3> QuantConv3d::out_extent(
    const ChannelsLast& input) const {
  check(input.channels == in_channels_, "QuantConv3d: bad input channels");
  const std::array<std::int64_t, 3> extent{
      (input.d + 2 * padding_[0] - kernel_[0]) / stride_[0] + 1,
      (input.h + 2 * padding_[1] - kernel_[1]) / stride_[1] + 1,
      (input.w + 2 * padding_[2] - kernel_[2]) / stride_[2] + 1};
  check(extent[0] > 0 && extent[1] > 0 && extent[2] > 0,
        "QuantConv3d: output would be empty");
  return extent;
}

ChannelsLast QuantConv3d::forward_calibrate(const ChannelsLast& input,
                                            Workspace& ws) {
  check(!core_.frozen, "QuantConv3d: forward_calibrate after freeze");
  const auto [od, oh, ow] = out_extent(input);
  const std::int64_t k =
      in_channels_ * kernel_[0] * kernel_[1] * kernel_[2];
  const std::int64_t m = input.n * od * oh * ow;
  float* out = ws.alloc(m * out_channels_);
  {
    Workspace::Scope scratch(ws);
    float* planes = ws.alloc(input.positions() * in_channels_);
    rows_to_planes(input, input.n, planes);
    core_.in_range.observe(planes, input.positions() * in_channels_);
    float* cols = ws.alloc(k * m);
    vol2col_batched_into(planes, input.n, in_channels_, input.d, input.h,
                         input.w, kernel_[0], kernel_[1], kernel_[2],
                         stride_[0], stride_[1], stride_[2], padding_[0],
                         padding_[1], padding_[2], cols);
    float* y = ws.alloc(out_channels_ * m);
    matmul_into(wf_.data(), cols, y, out_channels_, k, m);
    planes_to_rows(y, 1, m, out_channels_, bf_.data(), alpha_, out);
  }
  return {out, input.n, od, oh, ow, out_channels_, out_channels_};
}

void QuantConv3d::freeze() {
  begin_freeze(core_, "QuantConv3d");
  freeze_conv_core(wf_, bf_, out_channels_, in_channels_,
                   static_cast<std::int64_t>(kernel_[0]) * kernel_[1] *
                       kernel_[2],
                   core_);
  wf_ = Tensor();  // weights live on as packed s8 only
}

ChannelsLast QuantConv3d::forward(const ChannelsLast& input, Workspace& ws,
                                  float* out) const {
  check(core_.frozen, "QuantConv3d::forward before freeze()");
  const auto [od, oh, ow] = out_extent(input);
  const std::int64_t m = input.n * od * oh * ow;
  const std::int64_t kpad = core_.packed.kpad();
  const std::int64_t npad = core_.packed.npad;
  if (out == nullptr) out = ws.alloc(m * npad);
  {
    Workspace::Scope scratch(ws);
    // Quantise the input once (dropping any padded channels), then lower
    // the bytes straight into the GEMM's A operand.
    std::uint8_t* qin = ws_bytes(ws, input.positions() * in_channels_);
    quant::quantize_rows_u8(input.data, input.positions(), in_channels_,
                            input.ld, core_.act, qin, in_channels_);
    std::uint8_t* a = ws_bytes(ws, m * kpad);
    vol2row_u8_into(qin, in_channels_, input.n, in_channels_, input.d,
                    input.h, input.w, kernel_[0], kernel_[1], kernel_[2],
                    stride_[0], stride_[1], stride_[2], padding_[0],
                    padding_[1], padding_[2],
                    static_cast<std::uint8_t>(core_.act.zero_point), a, kpad);
    const QuantEpilogue ep{core_.col_scale.data(), core_.act.zero_point,
                           core_.bias_pad.data(), alpha_};
    gemm_u8s8(a, kpad, core_.packed, m, ep, out, npad);
  }
  return {out, input.n, od, oh, ow, out_channels_, npad};
}

Tensor QuantConv3d::forward_calibrate(const Tensor& input) {
  check(input.rank() == 4 || input.rank() == 5,
        "QuantConv3d: expects (N, H, W, C) or (N, D, H, W, C) input");
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  return to_tensor(forward_calibrate(view_of(input), ws), input.rank());
}

Tensor QuantConv3d::forward(const Tensor& input) const {
  check(input.rank() == 4 || input.rank() == 5,
        "QuantConv3d: expects (N, H, W, C) or (N, D, H, W, C) input");
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  return to_tensor(forward(view_of(input), ws), input.rank());
}

// ---- QuantConvTranspose3d --------------------------------------------------

QuantConvTranspose3d::QuantConvTranspose3d(const ConvTranspose3d& deconv,
                                           const BatchNorm* bn,
                                           float lrelu_alpha)
    : in_channels_(deconv.in_channels()),
      out_channels_(deconv.out_channels()),
      kernel_(deconv.kernel()),
      stride_(deconv.stride()),
      padding_(deconv.padding()),
      alpha_(lrelu_alpha) {
  fold_deconv(deconv.weight(), deconv.bias(), in_channels_, out_channels_,
              static_cast<std::int64_t>(kernel_[0]) * kernel_[1] * kernel_[2],
              bn, wf_, bf_);
}

std::array<std::int64_t, 3> QuantConvTranspose3d::out_extent(
    const ChannelsLast& input) const {
  check(input.channels == in_channels_,
        "QuantConvTranspose3d: bad input channels");
  const std::array<std::int64_t, 3> extent{
      (input.d - 1) * stride_[0] - 2 * padding_[0] + kernel_[0],
      (input.h - 1) * stride_[1] - 2 * padding_[1] + kernel_[1],
      (input.w - 1) * stride_[2] - 2 * padding_[2] + kernel_[2]};
  check(extent[0] > 0 && extent[1] > 0 && extent[2] > 0,
        "QuantConvTranspose3d: output would be empty");
  return extent;
}

ChannelsLast QuantConvTranspose3d::forward_calibrate(const ChannelsLast& input,
                                                     Workspace& ws) {
  check(!core_.frozen, "QuantConvTranspose3d: forward_calibrate after freeze");
  const auto [od, oh, ow] = out_extent(input);
  const std::int64_t taps =
      out_channels_ * kernel_[0] * kernel_[1] * kernel_[2];
  const std::int64_t m = input.positions();
  const std::int64_t out_inner = od * oh * ow;
  float* out = ws.alloc(input.n * out_inner * out_channels_);
  {
    Workspace::Scope scratch(ws);
    float* x_cm = ws.alloc(in_channels_ * m);
    rows_to_planes(input, 1, x_cm);
    core_.in_range.observe(x_cm, in_channels_ * m);
    float* cols = ws.alloc(taps * m);
    matmul_tn_into(wf_.data(), x_cm, cols, in_channels_, taps, m);
    float* vol = ws.alloc(input.n * out_channels_ * out_inner);
    col2vol_batched_into(cols, input.n, out_channels_, od, oh, ow, kernel_[0],
                         kernel_[1], kernel_[2], stride_[0], stride_[1],
                         stride_[2], padding_[0], padding_[1], padding_[2],
                         vol);
    planes_to_rows(vol, input.n, out_inner, out_channels_, bf_.data(), alpha_,
                   out);
  }
  return {out, input.n, od, oh, ow, out_channels_, out_channels_};
}

void QuantConvTranspose3d::freeze() {
  begin_freeze(core_, "QuantConvTranspose3d");
  freeze_deconv_core(
      wf_, in_channels_, out_channels_,
      static_cast<std::int64_t>(kernel_[0]) * kernel_[1] * kernel_[2], core_);
  wf_ = Tensor();
}

ChannelsLast QuantConvTranspose3d::forward(const ChannelsLast& input,
                                           Workspace& ws, float* out) const {
  check(core_.frozen, "QuantConvTranspose3d::forward before freeze()");
  const auto extent = out_extent(input);
  const auto [od, oh, ow] = extent;
  const std::int64_t m = input.positions();
  const std::int64_t kpad = core_.packed.kpad();
  const std::int64_t npad = core_.packed.npad;
  if (out == nullptr) out = ws.alloc(input.n * od * oh * ow * out_channels_);
  {
    Workspace::Scope scratch(ws);
    // Channels-last input rows are the GEMM's A rows as they stand: one
    // quantise widens them to the k-alignment.
    std::uint8_t* a = ws_bytes(ws, m * kpad);
    quant::quantize_rows_u8(input.data, m, in_channels_, input.ld, core_.act,
                            a, kpad);
    float* cf = ws.alloc(m * npad);
    const QuantEpilogue ep{core_.col_scale.data(), core_.act.zero_point,
                           nullptr, 1.f};
    gemm_u8s8(a, kpad, core_.packed, m, ep, cf, npad);
    scatter_rows_to_volume(cf, npad, input, out_channels_, extent, kernel_,
                           stride_, padding_, bf_.data(), alpha_, out);
  }
  return {out, input.n, od, oh, ow, out_channels_, out_channels_};
}

Tensor QuantConvTranspose3d::forward_calibrate(const Tensor& input) {
  check(input.rank() == 5,
        "QuantConvTranspose3d: expects (N, D, H, W, C) input");
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  return to_tensor(forward_calibrate(view_of(input), ws), 5);
}

Tensor QuantConvTranspose3d::forward(const Tensor& input) const {
  check(input.rank() == 5,
        "QuantConvTranspose3d: expects (N, D, H, W, C) input");
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  return to_tensor(forward(view_of(input), ws), 5);
}

}  // namespace mtsr::nn
