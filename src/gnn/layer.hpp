#pragma once
// Polymorphic layer interface so models can mix layer types.

#include "gnn/block.hpp"
#include "gnn/param.hpp"

namespace moment::gnn {

/// A layer's saved activations and gradient buffers are workspaces it
/// reshapes on every call, so a steady-state step allocates nothing. The
/// tensors forward and backward return stay valid until its next call.
class GnnLayer : public Module {
 public:
  /// x_src: (block.num_src() x in_dim). Returns (block.num_dst() x out_dim).
  /// A layer may keep a reference to x_src instead of a copy, so x_src must
  /// outlive the matching backward.
  virtual const Tensor& forward(const Block& block, const Tensor& x_src) = 0;
  /// grad_out: gradient w.r.t. forward's return. Returns the gradient w.r.t.
  /// x_src (empty when !input_grad) and accumulates parameter gradients.
  /// Must follow a forward() on the same block, and consumes its saved
  /// state: the next backward needs a forward of its own (std::logic_error
  /// otherwise).
  virtual const Tensor& backward(const Block& block, const Tensor& grad_out,
                                 bool input_grad) = 0;
  virtual std::size_t out_dim() const = 0;
};

}  // namespace moment::gnn
