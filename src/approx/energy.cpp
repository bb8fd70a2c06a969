#include "approx/energy.hpp"

#include <cmath>

#include "snn/weight_layer.hpp"
#include "tensor/check.hpp"

namespace axsnn::approx {

EnergyReport EstimateEnergy(snn::Network& net, const Tensor& input_tb,
                            Precision precision) {
  AXSNN_CHECK(input_tb.rank() >= 3, "energy input must be [T, B, ...]");
  const long batch = input_tb.dim(1);
  const double mac_energy = RelativeMacEnergy(precision);

  EnergyReport report;
  Tensor activation = input_tb;

  for (std::size_t i = 0; i < net.size(); ++i) {
    snn::Layer& layer = net.layer(i);

    // Spike-driven MAC count: every active input element triggers one MAC
    // per surviving outgoing connection.
    double total_in_activity = 0.0;  // sum of activation (spike count)
    for (float v : activation.flat()) total_in_activity += std::fabs(v);

    if (auto* weighted = dynamic_cast<snn::WeightLayer*>(&layer)) {
      LayerEnergy le;
      le.layer = weighted->Name();
      const Tensor& weight = weighted->weight();
      const long total_w = weight.numel();
      const long nnz = weight.CountGreater(0.0f) +
                       Tensor(weight).Scale(-1.0f).CountGreater(0.0f);
      le.nnz_fraction = total_w == 0 ? 0.0
                                     : static_cast<double>(nnz) /
                                           static_cast<double>(total_w);
      // Fan-out of one input element (ignoring borders): Cout * K * K for
      // a conv, F_out for a dense layer.
      const double fanout = static_cast<double>(weighted->fan_out());
      le.input_rate =
          total_in_activity / static_cast<double>(activation.numel());
      le.synaptic_ops =
          total_in_activity * fanout * le.nnz_fraction / batch;
      le.energy = le.synaptic_ops * mac_energy;
      report.layers.push_back(le);
    }

    activation = layer.Forward(activation, /*train=*/false);
  }

  for (const LayerEnergy& le : report.layers) {
    report.total_ops += le.synaptic_ops;
    report.total_energy += le.energy;
  }
  return report;
}

}  // namespace axsnn::approx
