#include "gnn/optimizer.hpp"

#include <cmath>

namespace moment::gnn {

Adam::Adam(std::vector<Param*> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      const float g = p.grad.data()[j];
      float& m = m_[i].data()[j];
      float& v = v_[i].data()[j];
      m = kBeta1 * m + (1.0f - kBeta1) * g;
      v = kBeta2 * v + (1.0f - kBeta2) * g * g;
      const float mhat = m / bc1;
      const float vhat = v / bc2;
      p.value.data()[j] -= lr_ * mhat / (std::sqrt(vhat) + kEps);
    }
  }
}

}  // namespace moment::gnn
