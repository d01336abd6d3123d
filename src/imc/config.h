// IMC architecture configuration.
//
// Table I parameters of the paper (32nm CMOS, 64x64 4-bit RRAM crossbars,
// 64 crossbars/tile, 8-bit weights, Roff/Ron = 10 at Ron = 20k, 0.9V VDD,
// 0.1V read voltage, 20/10/5 KB global/tile/PE buffers, 3KB sigma & E LUTs)
// plus the per-operation energy/latency atoms of the analytic macro-model.
//
// The energy atoms are calibrated (see README, "Substitutions for the
// paper's setting", item 3) so that the VGG-16 / CIFAR-10 mapping
// reproduces the paper's Fig. 1(A) component shares (digital peripherals
// 45%, crossbar+ADC 25%, H-Tree 17%, NoC 9%, LIF 1%) and the Fig. 1(B)
// affine energy-vs-timesteps scaling (E(T) ~ 0.44+0.56*T normalized to
// T=1). All constants live here so alternative technologies can be modeled
// by swapping one struct.

#pragma once

#include <cstddef>

namespace dtsnn::imc {

struct ImcConfig {
  // ---- Table I ------------------------------------------------------------
  std::size_t crossbar_size = 64;      ///< rows = cols = 64
  std::size_t crossbars_per_tile = 64;
  std::size_t pes_per_tile = 4;        ///< 16 crossbars per PE
  std::size_t device_bits = 4;         ///< RRAM cell precision
  std::size_t weight_bits = 8;         ///< two 4-bit slices per weight
  bool differential_columns = true;    ///< positive/negative column pairs
  double device_sigma_over_mu = 0.20;  ///< conductance variation sigma/mu
  double r_on_ohm = 20e3;
  double roff_over_ron = 10.0;
  double vdd = 0.9;
  double vread = 0.1;
  std::size_t global_buffer_kb = 20;
  std::size_t tile_buffer_kb = 10;
  std::size_t pe_buffer_kb = 5;
  std::size_t adc_bits = 6;
  std::size_t adc_mux_ratio = 8;       ///< crossbar columns sharing one ADC
  std::size_t sigma_lut_kb = 3;
  std::size_t entropy_lut_kb = 3;

  // ---- Energy atoms (picojoules per event) ---------------------------------
  // Calibrated against the paper's Fig. 1 on the VGG-16/CIFAR-10 mapping:
  // component shares 45/25/17/9/1 (digital periph / crossbar+ADC / H-Tree /
  // NoC / LIF) and affine energy scaling E(T) ~ 0.44 + 0.56 T.
  // Crossbar + ADC ("Crossbar+DIFF" in Fig. 1A).
  double e_xbar_row_read_pj = 0.14;    ///< one active row during one MVM read
  double e_adc_conv_pj = 1.6;          ///< one ADC conversion (one column)
  // Digital peripherals: input switch matrix, column mux, shift&add,
  // PE/tile/global accumulators, buffer traffic.
  double e_switch_matrix_pj = 1.33;    ///< per crossbar input-vector setup
  double e_mux_pj = 0.044;             ///< per column select
  double e_shift_add_pj = 0.37;        ///< per partial-sum merge op
  double e_accumulate_pj = 0.37;       ///< per accumulator op (PE/tile/GA)
  double e_buffer_rw_pj_per_byte = 1.62;///< SRAM buffer read+write, per byte
  // Interconnect.
  double e_htree_pj_per_byte = 2.2;    ///< intra-tile H-tree transport
  double e_noc_pj_per_byte = 37.0;     ///< inter-tile NoC transport (multi-hop)
  // Neuron module (membrane SRAM access + leak/compare/reset datapath).
  double e_lif_update_pj = 4.5;        ///< one LIF membrane update
  // Fixed per-inference overhead: off-chip image fetch into the global
  // buffer plus per-inference control/configuration (tile setup, bias
  // broadcast). This timestep-independent term is what makes E(T) affine
  // rather than purely linear (Fig. 1B: E(1)=1.0 -> E(8)=4.9, not 8.0).
  double e_offchip_pj_per_byte = 120.0;
  double e_inference_setup_pj = 8.12e7;
  // sigma-E module energy per evaluated timestep, expressed as a fraction of
  // the one-timestep chip energy (paper: ~2e-5).
  double sigma_e_energy_fraction = 2e-5;

  // ---- Latency atoms (nanoseconds) -----------------------------------------
  double t_xbar_read_ns = 12.0;  ///< analog MVM + ADC via mux, one vector
  double t_layer_overhead_ns = 40.0;  ///< LIF + interconnect per layer drain

  // ---- Derived --------------------------------------------------------------
  [[nodiscard]] std::size_t weight_slices() const { return weight_bits / device_bits; }
  /// Device columns consumed by one logical weight.
  [[nodiscard]] std::size_t columns_per_weight() const {
    return weight_slices() * (differential_columns ? 2 : 1);
  }
  [[nodiscard]] std::size_t conductance_levels() const {
    return static_cast<std::size_t>(1) << device_bits;
  }
  [[nodiscard]] double g_on() const { return 1.0 / r_on_ohm; }
  [[nodiscard]] double g_off() const { return 1.0 / (r_on_ohm * roff_over_ron); }
  [[nodiscard]] bool valid() const {
    return crossbar_size > 0 && crossbars_per_tile > 0 && device_bits > 0 &&
           weight_bits % device_bits == 0 && roff_over_ron > 1.0 && adc_mux_ratio > 0;
  }
};

}  // namespace dtsnn::imc
