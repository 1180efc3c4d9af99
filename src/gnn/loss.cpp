#include "gnn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace moment::gnn {

void softmax_cross_entropy(const Tensor& logits,
                           std::span<const std::int32_t> labels,
                           LossResult& result) {
  if (labels.size() != logits.rows()) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }
  const std::size_t n = logits.rows();
  const std::size_t k = logits.cols();
  // Copy the logits, then convert them to probabilities.
  result.grad_logits.reshape(n, k);
  std::copy(logits.data(), logits.data() + logits.size(),
            result.grad_logits.data());
  softmax_rows(result.grad_logits);

  double loss = 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto label = static_cast<std::size_t>(labels[i]);
    if (label >= k) {
      throw std::out_of_range("softmax_cross_entropy: label out of range");
    }
    float* probs = result.grad_logits.data() + i * k;
    loss -= std::log(std::max(probs[label], 1e-12f));
    std::size_t argmax = 0;
    for (std::size_t c = 1; c < k; ++c) {
      if (probs[c] > probs[argmax]) argmax = c;
    }
    if (argmax == label) ++correct;
    // dL/dlogit = (p - onehot) / n
    probs[label] -= 1.0f;
  }
  const float inv_n = 1.0f / static_cast<float>(n);
  result.grad_logits *= inv_n;
  result.loss = static_cast<float>(loss) * inv_n;
  result.accuracy = static_cast<float>(correct) * inv_n;
}

}  // namespace moment::gnn
