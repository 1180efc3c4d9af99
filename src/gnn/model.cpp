#include "gnn/model.hpp"

#include <stdexcept>

namespace moment::gnn {

GnnModel::GnnModel(const ModelConfig& config) : config_(config) {
  util::Pcg32 rng(config.seed, 0x4d4f444c);  // "MODL"
  if (config.num_hops == 0) {
    throw std::invalid_argument("GnnModel: num_hops must be >= 1");
  }
  if (config.kind == ModelKind::kGraphSage ||
      config.kind == ModelKind::kGcn) {
    std::size_t in = config.in_dim;
    for (std::size_t l = 0; l < config.num_hops; ++l) {
      const bool last = l + 1 == config.num_hops;
      const std::size_t out = last ? config.num_classes : config.hidden_dim;
      if (config.kind == ModelKind::kGraphSage) {
        layers_.push_back(
            std::make_unique<SageLayer>(in, out, /*relu=*/!last, rng));
      } else {
        layers_.push_back(
            std::make_unique<GcnLayer>(in, out, /*relu=*/!last, rng));
      }
      in = out;
    }
  } else {
    // GAT: hidden layers use `gat_heads` heads of dim hidden_dim (concat);
    // the output layer is single-head onto the class logits.
    std::size_t in = config.in_dim;
    for (std::size_t l = 0; l < config.num_hops; ++l) {
      const bool last = l + 1 == config.num_hops;
      if (last) {
        layers_.push_back(std::make_unique<GatLayer>(
            in, 1, config.num_classes, /*elu=*/false, rng));
        in = config.num_classes;
      } else {
        layers_.push_back(std::make_unique<GatLayer>(
            in, config.gat_heads, config.hidden_dim, /*elu=*/true, rng));
        in = config.gat_heads * config.hidden_dim;
      }
    }
  }
}

namespace {

// Layer l+1 reads layer l's output rows as they are, so each block's src set
// must be the previous block's dst set (build_blocks makes them so).
void check_chaining(std::span<const Block> blocks) {
  for (std::size_t l = 1; l < blocks.size(); ++l) {
    if (blocks[l].src_ids != blocks[l - 1].dst_ids) {
      throw std::logic_error("GnnModel: block chaining broken");
    }
  }
}

}  // namespace

const Tensor& GnnModel::forward(std::span<const Block> blocks,
                                const Tensor& x0) {
  if (blocks.size() != layers_.size()) {
    throw std::invalid_argument("GnnModel::forward: block/layer mismatch");
  }
  check_chaining(blocks);
  // Each layer reads the previous layer's output in place.
  const Tensor* x = &x0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    x = &layers_[l]->forward(blocks[l], *x);
  }
  return *x;
}

void GnnModel::backward(std::span<const Block> blocks, const Tensor& grad_out) {
  if (blocks.size() != layers_.size()) {
    throw std::invalid_argument("GnnModel::backward: block/layer mismatch");
  }
  // Checked before any layer consumes its saved state.
  check_chaining(blocks);
  // Each layer reads the next layer's input gradient in place. Layer 0's
  // would be w.r.t. the raw features: it is skipped.
  const Tensor* g = &grad_out;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    g = &layers_[l]->backward(blocks[l], *g, /*input_grad=*/l > 0);
  }
}

std::vector<Param*> GnnModel::parameters() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    for (Param* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<const Param*> GnnModel::parameters() const {
  std::vector<const Param*> out;
  for (const auto& layer : layers_) {
    for (const Param* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::size_t GnnModel::num_parameters() const {
  std::size_t n = 0;
  for (const Param* p : parameters()) n += p->value.size();
  return n;
}

const LossResult& train_step(GnnModel& model, std::span<const Block> blocks,
                             const Tensor& x0,
                             std::span<const std::int32_t> labels) {
  const Tensor& logits = model.forward(blocks, x0);
  // The last block's destinations are the batch's seed vertices.
  std::vector<std::int32_t>& seed_labels = model.seed_labels_;
  seed_labels.clear();
  for (graph::VertexId v : blocks.back().dst_ids) {
    if (v >= labels.size()) {
      throw std::out_of_range("train_step: label table too small");
    }
    seed_labels.push_back(labels[v]);
  }
  model.zero_grad();
  softmax_cross_entropy(logits, seed_labels, model.loss_);
  model.backward(blocks, model.loss_.grad_logits);
  return model.loss_;
}

}  // namespace moment::gnn
