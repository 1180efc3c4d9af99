#include "gnn/model.hpp"

#include <algorithm>
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

// The next block's src set is a subset of this block's dst set (both sorted):
// calls fn(i, row) for each next.src_ids[i] with its row in cur.dst_ids.
template <typename Fn>
void for_each_chained_row(const Block& cur, const Block& next, Fn&& fn) {
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < next.src_ids.size(); ++i) {
    while (cursor < cur.dst_ids.size() &&
           cur.dst_ids[cursor] < next.src_ids[i]) {
      ++cursor;
    }
    if (cursor >= cur.dst_ids.size() ||
        cur.dst_ids[cursor] != next.src_ids[i]) {
      throw std::logic_error("GnnModel: block chaining broken");
    }
    fn(i, cursor);
  }
}

}  // namespace

Tensor GnnModel::forward(std::span<const Block> blocks, const Tensor& x0) {
  if (blocks.size() != layers_.size()) {
    throw std::invalid_argument("GnnModel::forward: block/layer mismatch");
  }
  // Layer 0 reads x0 in place; inputs_ holds the later layers' inputs until
  // backward. Each layer keeps its own output, so only the rows the next
  // block needs are copied.
  inputs_.resize(layers_.size());
  for (std::size_t l = 0;; ++l) {
    const Tensor& out =
        layers_[l]->forward(blocks[l], l == 0 ? x0 : inputs_[l]);
    if (l + 1 == layers_.size()) return out;
    // Gather the next block's src rows out of this block's dst rows.
    Tensor gathered(blocks[l + 1].num_src(), out.cols());
    for_each_chained_row(blocks[l], blocks[l + 1],
                         [&](std::size_t i, std::size_t row) {
                           std::copy(out.row(row).begin(), out.row(row).end(),
                                     gathered.row(i).begin());
                         });
    inputs_[l + 1] = std::move(gathered);
  }
}

void GnnModel::backward(std::span<const Block> blocks, const Tensor& grad_out) {
  if (blocks.size() != layers_.size()) {
    throw std::invalid_argument("GnnModel::backward: block/layer mismatch");
  }
  // The last layer reads grad_out in place; g holds the earlier layers'.
  Tensor g;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    // Layer 0's input gradient would be w.r.t. the raw features: skip it.
    Tensor gin = layers_[l]->backward(
        blocks[l], l + 1 == layers_.size() ? grad_out : g,
        /*input_grad=*/l > 0);
    if (l > 0) {
      // Scatter gin (defined on blocks[l].src_ids) back onto the previous
      // block's dst rows.
      Tensor scattered(blocks[l - 1].num_dst(), gin.cols());
      for_each_chained_row(blocks[l - 1], blocks[l],
                           [&](std::size_t i, std::size_t row) {
                             std::copy(gin.row(i).begin(), gin.row(i).end(),
                                       scattered.row(row).begin());
                           });
      g = std::move(scattered);
    }
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

LossResult train_step(GnnModel& model, std::span<const Block> blocks,
                      const Tensor& x0, std::span<const std::int32_t> labels) {
  Tensor logits = model.forward(blocks, x0);
  // The last block's destinations are the batch's seed vertices.
  std::vector<std::int32_t> seed_labels;
  seed_labels.reserve(blocks.back().dst_ids.size());
  for (graph::VertexId v : blocks.back().dst_ids) {
    if (v >= labels.size()) {
      throw std::out_of_range("train_step: label table too small");
    }
    seed_labels.push_back(labels[v]);
  }
  model.zero_grad();
  LossResult loss = softmax_cross_entropy(logits, seed_labels);
  model.backward(blocks, loss.grad_logits);
  return loss;
}

}  // namespace moment::gnn
