#pragma once
// GNN models assembled from layers, with the paper's two configurations:
// GraphSAGE (hidden 256) and GAT (hidden 64, 8 heads), both 2-hop.

#include <memory>
#include <span>
#include <vector>

#include "gnn/block.hpp"
#include "gnn/gat_layer.hpp"
#include "gnn/gcn_layer.hpp"
#include "gnn/loss.hpp"
#include "gnn/param.hpp"
#include "gnn/sage_layer.hpp"

namespace moment::gnn {

/// Polymorphic layer interface so models can mix layer types.
class GnnLayer : public Module {
 public:
  virtual Tensor forward(const Block& block, const Tensor& x_src) = 0;
  /// Skips the input gradient (returns an empty tensor) when !input_grad.
  virtual Tensor backward(const Block& block, const Tensor& grad_out,
                          bool input_grad) = 0;
  virtual std::size_t out_dim() const = 0;
};

class SageGnnLayer final : public GnnLayer {
 public:
  SageGnnLayer(std::size_t in, std::size_t out, bool relu, util::Pcg32& rng)
      : layer_(in, out, relu, rng) {}
  Tensor forward(const Block& b, const Tensor& x) override {
    return layer_.forward(b, x);
  }
  Tensor backward(const Block& b, const Tensor& g, bool input_grad) override {
    return layer_.backward(b, g, input_grad);
  }
  std::vector<Param*> parameters() override { return layer_.parameters(); }
  std::size_t out_dim() const override { return layer_.out_dim(); }

 private:
  SageLayer layer_;
};

class GatGnnLayer final : public GnnLayer {
 public:
  GatGnnLayer(std::size_t in, std::size_t heads, std::size_t head_dim,
              bool elu, util::Pcg32& rng)
      : layer_(in, heads, head_dim, elu, rng) {}
  Tensor forward(const Block& b, const Tensor& x) override {
    return layer_.forward(b, x);
  }
  Tensor backward(const Block& b, const Tensor& g, bool input_grad) override {
    return layer_.backward(b, g, input_grad);
  }
  std::vector<Param*> parameters() override { return layer_.parameters(); }
  std::size_t out_dim() const override { return layer_.out_dim(); }

 private:
  GatLayer layer_;
};

class GcnGnnLayer final : public GnnLayer {
 public:
  GcnGnnLayer(std::size_t in, std::size_t out, bool relu, util::Pcg32& rng)
      : layer_(in, out, relu, rng) {}
  Tensor forward(const Block& b, const Tensor& x) override {
    return layer_.forward(b, x);
  }
  Tensor backward(const Block& b, const Tensor& g, bool input_grad) override {
    return layer_.backward(b, g, input_grad);
  }
  std::vector<Param*> parameters() override { return layer_.parameters(); }
  std::size_t out_dim() const override { return layer_.out_dim(); }

 private:
  GcnLayer layer_;
};

enum class ModelKind { kGraphSage, kGat, kGcn };

struct ModelConfig {
  ModelKind kind = ModelKind::kGraphSage;
  std::size_t in_dim = 64;
  std::size_t hidden_dim = 256;  // paper: 256 for GraphSAGE, 64 for GAT
  std::size_t num_classes = 16;
  std::size_t num_hops = 2;
  std::size_t gat_heads = 8;
  std::uint64_t seed = 1;
};

/// A stack of GNN layers matching a block sequence of length num_hops.
class GnnModel final : public Module {
 public:
  explicit GnnModel(const ModelConfig& config);

  /// blocks.size() must equal num_hops. x0: features of blocks[0].src_ids.
  Tensor forward(std::span<const Block> blocks, const Tensor& x0);
  /// grad w.r.t. forward's output; backpropagates and accumulates parameter
  /// grads. The first layer's input gradient is never computed.
  void backward(std::span<const Block> blocks, const Tensor& grad_out);

  std::vector<Param*> parameters() override;
  /// Read-only view of the parameters (e.g. for DDP sync checks).
  std::vector<const Param*> parameters() const;
  const ModelConfig& config() const noexcept { return config_; }
  std::size_t num_parameters() const;

 private:
  ModelConfig config_;
  std::vector<std::unique_ptr<GnnLayer>> layers_;
};

/// One training step up to (not including) the optimizer update: forward,
/// the seed-label lookup (`labels` indexes by global vertex id; throws
/// std::out_of_range when the table is too short), zero_grad, softmax
/// cross-entropy and backward. Data-parallel callers average the gradients
/// it leaves behind before stepping their optimizers.
LossResult train_step(GnnModel& model, std::span<const Block> blocks,
                      const Tensor& x0, std::span<const std::int32_t> labels);

}  // namespace moment::gnn
