#pragma once
// GNN models assembled from layers, with the paper's two configurations:
// GraphSAGE (hidden 256) and GAT (hidden 64, 8 heads), both 2-hop.

#include <memory>
#include <span>
#include <vector>

#include "gnn/block.hpp"
#include "gnn/gat_layer.hpp"
#include "gnn/gcn_layer.hpp"
#include "gnn/layer.hpp"
#include "gnn/loss.hpp"
#include "gnn/param.hpp"
#include "gnn/sage_layer.hpp"

namespace moment::gnn {

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

  /// blocks.size() must equal num_hops, and each block's src_ids must equal
  /// the previous block's dst_ids (std::logic_error otherwise). x0: features
  /// of blocks[0].src_ids; layers may read it in backward, so it must outlive
  /// the matching backward. Returns the last layer's output, valid until the
  /// next forward or backward.
  const Tensor& forward(std::span<const Block> blocks, const Tensor& x0);
  /// grad w.r.t. forward's output; backpropagates and accumulates parameter
  /// grads. The first layer's input gradient is never computed. Consumes the
  /// forward's saved state (GnnLayer::backward).
  void backward(std::span<const Block> blocks, const Tensor& grad_out);

  std::vector<Param*> parameters() override;
  /// Read-only view of the parameters (e.g. for DDP sync checks).
  std::vector<const Param*> parameters() const;
  const ModelConfig& config() const noexcept { return config_; }
  std::size_t num_parameters() const;

 private:
  ModelConfig config_;
  std::vector<std::unique_ptr<GnnLayer>> layers_;
  LossResult loss_;                       // train_step's result
  std::vector<std::int32_t> seed_labels_;  // train_step's label lookup

  friend const LossResult& train_step(GnnModel&, std::span<const Block>,
                                      const Tensor&,
                                      std::span<const std::int32_t>);
};

/// One training step up to (not including) the optimizer update: forward,
/// the seed-label lookup (`labels` indexes by global vertex id; throws
/// std::out_of_range when the table is too short), zero_grad, softmax
/// cross-entropy and backward. Data-parallel callers average the gradients
/// it leaves behind before stepping their optimizers. The result is held by
/// the model until its next train_step.
const LossResult& train_step(GnnModel& model, std::span<const Block> blocks,
                             const Tensor& x0,
                             std::span<const std::int32_t> labels);

}  // namespace moment::gnn
