#pragma once
// Softmax cross-entropy for node classification (the paper's task).

#include <cstdint>
#include <span>

#include "gnn/tensor.hpp"

namespace moment::gnn {

struct LossResult {
  float loss = 0.0f;       // mean over rows
  float accuracy = 0.0f;   // argmax == label
  Tensor grad_logits;      // d loss / d logits (already divided by N)
};

/// logits: (n x classes); labels: n entries in [0, classes). Writes into
/// `result`, reshaping its grad_logits in place.
void softmax_cross_entropy(const Tensor& logits,
                           std::span<const std::int32_t> labels,
                           LossResult& result);

inline LossResult softmax_cross_entropy(const Tensor& logits,
                                        std::span<const std::int32_t> labels) {
  LossResult result;
  softmax_cross_entropy(logits, labels, result);
  return result;
}

}  // namespace moment::gnn
