#pragma once
// Model presets for the evaluation: per-batch GPU compute times calibrated so
// the compute/IO balance matches the paper's setting (GNN training is
// IO-bound for both models on these machines; GAT is ~2x heavier than
// GraphSAGE at hidden 64 x 8 heads vs hidden 256).

#include <string>

#include "gnn/model.hpp"

namespace moment::runtime {

struct ModelPreset {
  gnn::ModelKind kind;
  std::string name;
  /// A100 per-batch training time (batch 8000, 2-hop [25,10]), seconds.
  double compute_time_per_batch;
};

inline ModelPreset model_preset(gnn::ModelKind kind) {
  switch (kind) {
    case gnn::ModelKind::kGat: return {kind, "GAT", 0.110};
    case gnn::ModelKind::kGcn: return {kind, "GCN", 0.045};
    case gnn::ModelKind::kGraphSage: break;
  }
  return {gnn::ModelKind::kGraphSage, "GraphSAGE", 0.055};
}

}  // namespace moment::runtime
