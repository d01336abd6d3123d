#include "snn/serialize.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "snn/norm.h"
#include "snn/quantize.h"
#include "util/quant.h"

namespace dtsnn::snn {

namespace {

constexpr char kMagic[4] = {'D', 'T', 'S', 'N'};
// Version 2 appends the quantized-weight section (see save_checkpoint).
// Version-1 files still load; they simply carry no quantized weights.
constexpr std::uint32_t kVersion = 2;

/// Weight-bearing layers in stable visit order; index into this vector is
/// the holder id stored in the quantized checkpoint section.
std::vector<QuantizedWeightHolder*> quantized_holders(SpikingNetwork& net) {
  std::vector<QuantizedWeightHolder*> holders;
  net.visit([&holders](Layer& l) {
    if (auto* holder = dynamic_cast<QuantizedWeightHolder*>(&l)) {
      holders.push_back(holder);
    }
  });
  return holders;
}

/// Named tensors to (de)serialize: params then BN buffers, in stable order.
std::vector<std::pair<std::string, Tensor*>> checkpoint_entries(SpikingNetwork& net) {
  std::vector<std::pair<std::string, Tensor*>> entries;
  std::size_t pi = 0;
  for (Param* p : net.params()) {
    entries.emplace_back(p->name + "#" + std::to_string(pi++), &p->value);
  }
  std::size_t bi = 0;
  net.visit([&entries, &bi](Layer& l) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(&l)) {
      entries.emplace_back("bn.running_mean#" + std::to_string(bi), &bn->running_mean());
      entries.emplace_back("bn.running_var#" + std::to_string(bi), &bn->running_var());
      ++bi;
    }
  });
  return entries;
}

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
}

}  // namespace

void save_checkpoint(SpikingNetwork& net, const std::string& path) {
  // Write to a temp file and rename so concurrent readers (e.g. parallel
  // test processes sharing a checkpoint cache) never observe a torn file.
  const std::string tmp_path = path + ".tmp." + std::to_string(::getpid());
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("save_checkpoint: cannot open " + tmp_path);

  auto entries = checkpoint_entries(net);
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint64_t>(entries.size()));
  for (auto& [name, tensor] : entries) {
    write_pod(out, static_cast<std::uint32_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_pod(out, static_cast<std::uint32_t>(tensor->rank()));
    for (const std::size_t d : tensor->shape()) {
      write_pod(out, static_cast<std::uint64_t>(d));
    }
    out.write(reinterpret_cast<const char*>(tensor->data()),
              static_cast<std::streamsize>(tensor->numel() * sizeof(float)));
  }

  // Quantized-weight section (version 2): calibrated QuantizedMatrix state
  // per weight-bearing layer, keyed by holder visit order. Layout:
  //   u64 quant_count | per matrix: u64 holder_index | u32 bits |
  //   u64 group_size | u64 out | u64 in | u64 packed_bytes | packed bytes |
  //   u64 scale_count | f32 scales[]
  auto holders = quantized_holders(net);
  std::uint64_t quant_count = 0;
  for (const QuantizedWeightHolder* holder : holders) {
    quant_count += holder->quantized_weights().empty() ? 0 : 1;
  }
  write_pod(out, quant_count);
  for (std::size_t hi = 0; hi < holders.size(); ++hi) {
    const util::QuantizedMatrix& q = holders[hi]->quantized_weights();
    if (q.empty()) continue;
    write_pod(out, static_cast<std::uint64_t>(hi));
    write_pod(out, static_cast<std::uint32_t>(q.bits()));
    write_pod(out, static_cast<std::uint64_t>(q.group_size()));
    write_pod(out, static_cast<std::uint64_t>(q.out()));
    write_pod(out, static_cast<std::uint64_t>(q.in()));
    write_pod(out, static_cast<std::uint64_t>(q.packed_bytes()));
    out.write(reinterpret_cast<const char*>(q.packed().data()),
              static_cast<std::streamsize>(q.packed_bytes()));
    write_pod(out, static_cast<std::uint64_t>(q.scales().size()));
    out.write(reinterpret_cast<const char*>(q.scales().data()),
              static_cast<std::streamsize>(q.scale_bytes()));
  }
  if (!out) throw std::runtime_error("save_checkpoint: write failed for " + tmp_path);
  out.close();
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("save_checkpoint: rename to " + path + " failed");
  }
}

void load_checkpoint(SpikingNetwork& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);

  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_checkpoint: bad magic in " + path);
  }
  std::uint32_t version = 0;
  read_pod(in, version);
  if (version != 1 && version != kVersion) {
    throw std::runtime_error("load_checkpoint: unsupported version " +
                             std::to_string(version));
  }
  std::uint64_t count = 0;
  read_pod(in, count);

  auto entries = checkpoint_entries(net);
  if (count != entries.size()) {
    throw std::runtime_error("load_checkpoint: entry count mismatch (file " +
                             std::to_string(count) + ", model " +
                             std::to_string(entries.size()) + ")");
  }

  for (auto& [name, tensor] : entries) {
    std::uint32_t name_len = 0;
    read_pod(in, name_len);
    std::string file_name(name_len, '\0');
    in.read(file_name.data(), name_len);
    if (file_name != name) {
      throw std::runtime_error("load_checkpoint: entry name mismatch: file '" + file_name +
                               "' vs model '" + name + "'");
    }
    std::uint32_t rank = 0;
    read_pod(in, rank);
    Shape shape(rank);
    for (auto& d : shape) {
      std::uint64_t dim = 0;
      read_pod(in, dim);
      d = static_cast<std::size_t>(dim);
    }
    if (shape != tensor->shape()) {
      throw std::runtime_error("load_checkpoint: shape mismatch for '" + name + "': file " +
                               shape_to_string(shape) + " vs model " +
                               shape_to_string(tensor->shape()));
    }
    in.read(reinterpret_cast<char*>(tensor->data()),
            static_cast<std::streamsize>(tensor->numel() * sizeof(float)));
    if (!in) throw std::runtime_error("load_checkpoint: truncated file " + path);
  }

  // Quantized-weight section: absent in version-1 files (calibration state
  // simply clears); version 2 restores every stored matrix deterministically.
  auto holders = quantized_holders(net);
  for (QuantizedWeightHolder* holder : holders) holder->clear_quantized_weights();
  if (version < 2) return;
  std::uint64_t quant_count = 0;
  read_pod(in, quant_count);
  if (!in) throw std::runtime_error("load_checkpoint: truncated file " + path);
  for (std::uint64_t qi = 0; qi < quant_count; ++qi) {
    std::uint64_t holder_index = 0;
    std::uint32_t bits = 0;
    std::uint64_t group_size = 0, out_dim = 0, in_dim = 0, packed_bytes = 0;
    read_pod(in, holder_index);
    read_pod(in, bits);
    read_pod(in, group_size);
    read_pod(in, out_dim);
    read_pod(in, in_dim);
    read_pod(in, packed_bytes);
    if (!in) throw std::runtime_error("load_checkpoint: truncated file " + path);
    if (holder_index >= holders.size()) {
      throw util::QuantizationError(
          util::QuantizationError::Kind::kBadCheckpoint,
          "load_checkpoint: quantized entry for holder " +
              std::to_string(holder_index) + " but model has " +
              std::to_string(holders.size()) + " weight-bearing layers");
    }
    // Size the buffers from the entry's dims, checked against the layer,
    // never from the file's counts alone: a corrupt header must fail typed
    // here, before it allocates.
    const Tensor& weight = holders[holder_index]->quantizable_weight();
    if (out_dim != weight.dim(0) || in_dim != weight.dim(1)) {
      throw util::QuantizationError(
          util::QuantizationError::Kind::kShapeMismatch,
          "load_checkpoint: quantized entry for holder " + std::to_string(holder_index) +
              " is [" + std::to_string(out_dim) + " x " + std::to_string(in_dim) +
              "] but the layer's float weights are " + shape_to_string(weight.shape()));
    }
    const util::QuantizedMatrix::Layout want = util::QuantizedMatrix::layout(
        static_cast<std::size_t>(out_dim), static_cast<std::size_t>(in_dim),
        static_cast<int>(bits), static_cast<std::size_t>(group_size));
    const auto expect_count = [&](const char* what, std::uint64_t got,
                                  std::size_t expected) {
      if (got == expected) return;
      throw util::QuantizationError(
          util::QuantizationError::Kind::kBadCheckpoint,
          "load_checkpoint: quantized entry for holder " + std::to_string(holder_index) +
              " declares " + std::to_string(got) + " " + what + ", its dims need " +
              std::to_string(expected));
    };
    expect_count("packed bytes", packed_bytes, want.packed_bytes);
    std::vector<std::uint8_t> packed(want.packed_bytes);
    in.read(reinterpret_cast<char*>(packed.data()),
            static_cast<std::streamsize>(packed.size()));
    std::uint64_t scale_count = 0;
    read_pod(in, scale_count);
    expect_count("scales", scale_count, want.scale_count);
    std::vector<float> scales(want.scale_count);
    in.read(reinterpret_cast<char*>(scales.data()),
            static_cast<std::streamsize>(scales.size() * sizeof(float)));
    if (!in) throw std::runtime_error("load_checkpoint: truncated file " + path);
    // from_raw validates the codes and scales themselves.
    holders[holder_index]->set_quantized_weights(util::QuantizedMatrix::from_raw(
        static_cast<std::size_t>(out_dim), static_cast<std::size_t>(in_dim),
        static_cast<int>(bits), static_cast<std::size_t>(group_size),
        std::move(packed), std::move(scales)));
  }
}

void copy_network_state(SpikingNetwork& src, SpikingNetwork& dst) {
  auto src_entries = checkpoint_entries(src);
  auto dst_entries = checkpoint_entries(dst);
  if (src_entries.size() != dst_entries.size()) {
    throw std::runtime_error("copy_network_state: entry count mismatch (src " +
                             std::to_string(src_entries.size()) + ", dst " +
                             std::to_string(dst_entries.size()) + ")");
  }
  for (std::size_t i = 0; i < src_entries.size(); ++i) {
    auto& [src_name, src_tensor] = src_entries[i];
    auto& [dst_name, dst_tensor] = dst_entries[i];
    if (src_name != dst_name || src_tensor->shape() != dst_tensor->shape()) {
      throw std::runtime_error("copy_network_state: entry mismatch at '" + src_name +
                               "' vs '" + dst_name + "'");
    }
    std::copy(src_tensor->data(), src_tensor->data() + src_tensor->numel(),
              dst_tensor->data());
  }
  // Mirror calibrated quantized weights so replicas (parallel evaluation,
  // serving pools) run the same quantized weights without re-calibration.
  auto src_holders = quantized_holders(src);
  auto dst_holders = quantized_holders(dst);
  if (src_holders.size() != dst_holders.size()) {
    throw std::runtime_error("copy_network_state: weight-layer count mismatch (src " +
                             std::to_string(src_holders.size()) + ", dst " +
                             std::to_string(dst_holders.size()) + ")");
  }
  for (std::size_t i = 0; i < src_holders.size(); ++i) {
    const util::QuantizedMatrix& q = src_holders[i]->quantized_weights();
    if (q.empty()) {
      dst_holders[i]->clear_quantized_weights();
    } else {
      dst_holders[i]->set_quantized_weights(q);
    }
  }
}

}  // namespace dtsnn::snn
