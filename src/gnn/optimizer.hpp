#pragma once
// Adam, the training runtime's one optimizer, operating on registered Params
// with the usual fixed moments (beta1 0.9, beta2 0.999, eps 1e-8).

#include <vector>

#include "gnn/param.hpp"

namespace moment::gnn {

class Adam {
 public:
  static constexpr float kBeta1 = 0.9f;
  static constexpr float kBeta2 = 0.999f;
  static constexpr float kEps = 1e-8f;

  Adam(std::vector<Param*> params, float lr);

  void step();
  void zero_grad() {
    for (Param* p : params_) p->zero_grad();
  }

 private:
  std::vector<Param*> params_;
  float lr_;
  std::vector<Tensor> m_, v_;
  std::int64_t t_ = 0;
};

}  // namespace moment::gnn
