// Loss functions.
//
// * MSE — used to pre-train the generator (Eq. 10) and as the data term of
//   the generator loss (Eq. 9).
// * Binary cross-entropy — the discriminator objective (Eq. 5 is its
//   maximisation form; we minimise the negated value).
//
// Both are sliced for data-parallel training: a micro-slice of a batch
// contributes an UNNORMALISED loss sum plus a gradient already scaled by
// the FULL batch denominator, so per-slice backward passes accumulate
// exactly the whole-batch gradient and the caller finishes the scalar loss
// as sum-of-slice-sums (in ascending slice order) / full denominator. A
// whole batch is the one-slice case: pass its own count as the total.
#pragma once

#include <utility>

#include "src/tensor/tensor.hpp"

namespace mtsr::nn {

/// Slice contribution to a batch loss: `sum` is the unnormalised loss sum
/// over the slice; `grad` is d(full-batch loss)/d(slice prediction), i.e.
/// already divided by the full-batch denominator passed by the caller.
struct SliceLossResult {
  double sum;
  Tensor grad;
};

/// Mean squared error L = mean((pred - target)²), slice term:
/// sum((pred - target)²) over this slice, with the gradient scaled by
/// 2 / total_elements (the FULL batch element count).
[[nodiscard]] SliceLossResult mse_loss_slice(const Tensor& prediction,
                                             const Tensor& target,
                                             std::int64_t total_elements);

/// Binary cross-entropy for (N, 1) probability outputs against scalar
/// labels in {0, 1}, L = -mean(y·log p + (1-y)·log(1-p)), slice term: the
/// unnormalised -log-likelihood sum over this slice's rows, gradient scaled
/// by 1 / total_rows (the FULL batch row count). Probabilities are clamped
/// to [eps, 1-eps] for numerical stability.
[[nodiscard]] SliceLossResult bce_loss_slice(const Tensor& probability,
                                             float label,
                                             std::int64_t total_rows,
                                             float eps = 1e-6f);

/// Per-sample squared error ‖pred_i - target_i‖² over an (N, ...) batch,
/// returned as an (N) tensor. Used by the Eq. 9 generator loss, which
/// weights each sample's MSE by its own discriminator score.
[[nodiscard]] Tensor per_sample_sq_error(const Tensor& prediction,
                                         const Tensor& target);

}  // namespace mtsr::nn
